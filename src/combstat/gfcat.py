"""Catalog of the multivariate generating functions.

Ten families, each with a functional equation S = a0 + S*m written once
in _system (a graded linear solve, or for I and J an ODE in z) and a
closed form.  An equation states a0 and then m as a chain of factors,
which the solvers consume one at a time, online, and never multiply
out: P's m is zy r1 r2 and G's yz T T(xz) (T + xT(xz)), every other m
is one factor.  No ordinary equation forms a series inverse.  The closed
form of every family but A, I and J is a0 times the solution of
S = 1 + S*m; A, I and J have forms of their own, built with no square
root or exponential solver (see gf_closed).  The equations of B, D, U,
W, A and G are rational in their base series and are stated in
EQUATIONS, which also feeds closed's fixed-r limit laws (all but A's,
still the stored printed law): the same equations at the base's
dominant singularity.  Cells are
y-polynomials whose coefficient of y^d counts objects whose marked
position has depth/height d; x marks the position, z the size, v (for P)
the leaf count, u (for Babs) the signed horizontal offset.

Each pair of objects.STATISTICS names the id it is read off, and the
read-off is worked out here from that id and the family's smallest size:
position r at size n is the cell z^(n - min_n) x^r, built in gf_box.

ids, statistic counted, and kind of generating function:

* B    binary trees, depth of the r-th leaf                 (ordinary)
* Babs binary trees, depth and abscissa of the r-th leaf    (Laurent u)
* D    Dyck walks, height of the r-th lattice point         (ordinary)
* U    Dyck walks, height of the r-th up-step; equivalently
       plane trees, depth of the r-th preorder node, r >= 1 (ordinary)
* W    Dyck walks, height of the r-th down-step             (ordinary)
* P    plane trees with k leaves, depth of the r-th leaf    (ordinary)
* A    Schroeder trees (sized by leaves-1), r-th leaf depth (ordinary)
* G    noncrossing chord trees, depth of vertex r           (ordinary)
* I    increasing binary trees, r-th leaf depth             (EGF)
* J    increasing binary trees, r-th internal node depth,
       inorder                                              (EGF)
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import objects
from .exact import yp_add, yp_eval1, yp_mul
from .series import (
    ZERO_KEY,
    Series,
    Truncation,
    ps_add,
    ps_bmul,
    ps_borel,
    ps_coeff,
    ps_diff_z,
    ps_integrate_z,
    ps_inv,
    ps_laplace,
    ps_linear_solve,
    ps_monomial,
    ps_mul,
    ps_mul_ypoly,
    ps_ode_solve,
    ps_one,
    ps_shift,
    ps_sub,
    ps_subst_scale,
    solve_fixed_point,
)

FAMILY_IDS = ("B", "Babs", "D", "U", "W", "P", "A", "G", "I", "J")

Y = [0, 1]  # the ypoly "y"


def _check(family, t):
    if family not in FAMILY_IDS:
        raise ValueError("unknown generating-function family %r" % (family,))
    if family == "P" and t.nv < 1:
        raise ValueError("P needs a truncation with nv >= 1")
    # every z-step moves u by at most one, so u_range >= nz keeps each
    # u-cell a product could carry back into the box
    if family == "Babs" and t.u_range < t.nz:
        raise ValueError("Babs needs a truncation with u_range >= nz")


# ------------------------------------------------------- base builders

def _z(t, p):
    return ps_monomial(t, (1, 0, 0, 0), p)


def _x(t):
    return ps_monomial(t, (0, 1, 0, 0), [1])


def _v(t):
    return ps_monomial(t, (0, 0, 1, 0), [1])


def _sub_x(s, powx):
    """z -> x^powx * z, i.e. C(z) -> C(xz) or C(x^2 z)."""
    return ps_subst_scale(s, s.trunc, {"z": (1, (1, powx, 0, 0))})


def _rising(t, powx, p):
    """(1 - x^powx z)^(-p) for a y-polynomial p, n!-scaled: the z^k cell is
    the rising factorial p(p+1)...(p+k-1), which is k! for p = 1."""
    cells, cell = {}, [1]
    for k in range(t.nz + 1):
        key = (k, powx * k, 0, 0)
        if not (cell and t.contains(key)):
            break
        cells[key] = cell
        cell = yp_mul(cell, yp_add(p, [k]), t.ny)
    return Series(t, cells=cells)


def _exp_logs(t, p):
    """exp(p(y) (L(z) + L(xz))) with L(z) = -log(1 - z), n!-scaled: the
    product (1 - z)^(-p) (1 - xz)^(-p)."""
    return ps_bmul(_rising(t, 0, p), _rising(t, 1, p))


def _drop_top_z(s: Series) -> Series:
    """Forget the top z-slice (used by the ODE residual, where d/dz
    genuinely loses one order)."""
    nz = s.trunc.nz
    return Series(s.trunc, {k: p for k, p in s.cells.items() if k[0] < nz})


# -------------------------------------------------------- closed forms

def gf_closed(family: str, trunc: Truncation) -> Series:
    """The closed form of a family at the given truncation: for every
    family but A, I and J its equation S = a0 + S*m (see _system) solved,
    a0/(1 - m), with 1/(1 - m) solved against m's factors in turn, which
    verify checks for B, D, U and W against Lagrange coefficients.  A, I
    and J have forms of their own, which gf_solve and gf_residual check.
    I is exp(y(L(z) + L(xz))) with L(z) = -log(1 - z), that is
    (1 - z)^(-y) (1 - xz)^(-y), and J's integrand is the same at 1 - y:
    n!-scaled, each factor (1 - z)^(-p) has the rising factorial
    p(p+1)...(p+k-1) as its z^k cell (_rising).
    """
    _check(family, trunc)
    t = trunc
    one = ps_one(t)

    if family == "A":
        # 1/(1 + y(1 - R)), R = q q(xz) with q = 1/(1 - zS(z))
        q = ps_inv(ps_sub(one, ps_shift(solve_fixed_point("schroeder", t), 1)))
        r = ps_mul(q, _sub_x(q, 1))
        return ps_inv(ps_sub(one, ps_mul_ypoly(ps_sub(r, one), Y)))

    if family == "I":
        return ps_laplace(_exp_logs(t, Y))

    if family == "J":
        # I times the integral of exp((1 - y)(L(z) + L(xz))), I's two
        # factors taken one at a time
        integral = ps_integrate_z(_exp_logs(t, [1, -1]))
        return ps_laplace(ps_bmul(_rising(t, 0, Y), ps_bmul(_rising(t, 1, Y), integral)))

    a0, ms, _ = _system(family, t)
    inv = ps_linear_solve(one, *ms)
    return inv if a0 == one else ps_mul(a0, inv)


# ------------------------------------------------ functional equations

# S = a0 + S*m for the families whose equation is rational in their base
# series b (C, S for A, or T for G), written once: family -> (base, the
# map from 1, y, z, x and b at z, xz and x^2 z to a0 followed by m's
# factors, the first with no constant cell).  _system passes series, and
# the solvers take G's four factors one at a time; closed folds them left
# to right and passes values at the base's dominant singularity, where
# the derivative in b gives the fixed-r limit laws (A's law is still the
# stored printed form).  A's a0 is 1/R in its printed form (see
# gf_closed), divided through; G's is the numerator of its printed form,
# T + y(1 - T)T(xz), which T = 1 + zT^3 also writes T - yzT^3 T(xz).
# Reversing a walk makes down-step r up-step n+1-r, so W(z, x) =
# x U(xz, 1/x), and U's equation at (xz, 1/x), times x, is W's.
EQUATIONS = {
    "B": ("catalan", lambda one, y, z, x, c, cx, cxx: (one, y * z * (c + x * cx))),
    "D": ("catalan", lambda one, y, z, x, c, cx, cxx: (c, z * x * (y * c + x * cxx))),
    "U": ("catalan", lambda one, y, z, x, c, cx, cxx: (
        y * z * x * c * c, z * x * (y * c + cx))),
    "W": ("catalan", lambda one, y, z, x, c, cx, cxx: (x * y * z * cx * cx, z * (y * cx + c))),
    "A": ("schroeder", lambda one, y, z, x, s, sx, sxx: (
        a0 := (one - z * s) * (one - x * z * sx), (one + y) * (one - a0))),
    "G": ("ternary", lambda one, y, z, x, t, tx, txx: (
        t + y * (one - t) * tx, y * z, t, tx, t + x * tx)),
}


def _system(family: str, t: Truncation):
    """The family's functional equation, written once: gf_solve and
    gf_residual are both derived from it, and for the families in
    EQUATIONS but A so are closed's limit laws.

    Returns (a0, ms, init), ms the factors of m, the first with no
    grade-0 cell.  With init None the equation is S = a0 + S*m, and
    gf_solve, gf_residual and gf_closed consume the factors one at a
    time, never forming m itself (for P, 443 cells at T(13,13,13,nv=14)
    against 92 for each of r1 and r2); otherwise m is one factor and the
    equation is dS/dz = a0 + S*m with S = init at z = 0, over n!-scaled
    series (the products are ps_bmul)."""
    _check(family, t)
    one = ps_one(t)

    if family in EQUATIONS:
        base, equation = EQUATIONS[family]
        b = solve_fixed_point(base, t)
        a0, *ms = equation(one, ps_monomial(t, ZERO_KEY, Y), _z(t, [1]), _x(t),
                           b, _sub_x(b, 1), _sub_x(b, 2))
        return a0, ms, None

    if family == "Babs":
        c = solve_fixed_point("catalan", t)
        cx = _sub_x(c, 1)
        m = ps_add(
            ps_mul(ps_monomial(t, (1, 0, 0, -1), Y), c),
            ps_mul(ps_monomial(t, (1, 1, 0, 1), Y), cx),
        )
        return one, [m], None

    if family == "P":
        # P = v + yzP/((1 - zN(z, xv))(1 - zN)), where 1/(1 - zN) = N + 1 - v
        nar = solve_fixed_point("narayana", t)
        narx = ps_subst_scale(nar, t, {"v": (1, (0, 1, 1, 0))})
        r1 = ps_add(ps_sub(narx, ps_monomial(t, (0, 1, 1, 0), [1])), one)
        r2 = ps_add(ps_sub(nar, _v(t)), one)
        return _v(t), [_z(t, Y), r1, r2], None

    if family in ("I", "J"):
        # d/dz I = y I (F(z) + x F(xz)), I(x,y,0) = 1, and
        # d/dz J = F(z)F(xz) + J (y F(z) + xy F(xz)), J(x,y,0) = 0,
        # with F(z) = 1/(1 - z)
        f = ps_add(_rising(t, 0, [1]), ps_mul(_x(t), _rising(t, 1, [1])))
        m = ps_mul_ypoly(f, Y)
        if family == "I":
            return Series(t), [m], one
        return _exp_logs(t, [1]), [m], Series(t)

    raise AssertionError  # pragma: no cover


def gf_solve(family: str, trunc: Truncation) -> Series:
    """Solve the family's functional equation directly -- an expansion
    path independent of the closed form."""
    a0, ms, init = _system(family, trunc)
    if init is None:
        return ps_linear_solve(a0, *ms)
    return ps_laplace(ps_ode_solve(init, a0, *ms))


def gf_residual(family: str, s: Series) -> Series:
    """Residual of the family's functional equation at s (zero exactly
    when s satisfies it inside the truncation box; an ODE loses its top
    z-slice to d/dz)."""
    a0, ms, init = _system(family, s.trunc)
    if init is None:
        return ps_sub(s, ps_add(a0, functools.reduce(ps_mul, ms, s)))
    s = ps_borel(s)
    rhs = ps_add(a0, ps_bmul(s, *ms))
    return ps_laplace(_drop_top_z(ps_sub(ps_diff_z(s), rhs)))


# ------------------------------------------------------ EGF reporting

def egf_cell_counts(s: Series, dz: int, dx: int):
    """Read an EGF cell as integer counts: multiply by dz! and check
    that everything clears."""
    p = ps_coeff(s, dz, dx)
    fact = math.factorial(dz)
    out = []
    for coef in p:
        val = coef * fact
        if isinstance(val, Fraction):
            if val.denominator != 1:
                raise ValueError("EGF cell z^%d x^%d is not integral" % (dz, dx))
            val = val.numerator
        out.append(val)
    return out


# ---------------------------------------- per-statistic distributions

def gf_box(family: str, nz: int, nx: int, nv: int = 0) -> Truncation:
    """The box that holds the family's series to z^nz x^nx (v^nv): no
    depth exceeds the size, so ny = nz, and every z-step moves u by at
    most one, so Babs needs u_range = nz."""
    return Truncation(nz, nx, nz, nv, nz if family == "Babs" else 0)


def columns_via_gf(family, statistic, n, rs, k=None):
    """Distributions at every requested position r for size n, read off
    the generating function: {r: (dict value -> count, total)}.  Every
    series counts its family's smallest object at z^0, so position r is
    the cell z^(n - min_n) x^r (v^k with a leaf count).  The series is
    built once, by gf_solve (gf_closed for I, whose form is faster), in
    the box of the largest x-degree read, and every column is cut out
    of it.  Mirrors objects.distribution_columns.
    """
    objects.check_positions(family, statistic, n, rs, k)
    st = objects.statistic_entry(family, statistic)
    dz = n - objects.FAMILIES[family].min_n
    xs = {r for r in rs if not (st.root and r == 0)}
    if xs:
        box = gf_box(st.gf, dz, max(xs), k or 0)
        s = (gf_closed if st.gf == "I" else gf_solve)(st.gf, box)
    out = {}
    for r in rs:
        if r in xs:
            out[r] = _cell_counts(st, s, (dz, r, k or 0))
        else:
            from . import closed  # closed imports gfcat: load it on use
            total = closed.family_count(family, n)
            out[r] = {0: total}, total
    return out


def _cell_counts(st, s, key):
    """One cell of the series as counts by value: for Babs the signed
    abscissa u^d summed over y, for the EGFs I and J the coefficient of
    y^d times n!, else the coefficient of y^d (see objects.Statistic)."""
    if st.gf == "Babs":
        u = s.trunc.u_range
        counts = {du: yp_eval1(ps_coeff(s, *key, du)) for du in range(-u, u + 1)}
    else:
        p = egf_cell_counts(s, *key[:2]) if st.gf in ("I", "J") else ps_coeff(s, *key)
        counts = {max(d - st.shift, 0): c for d, c in enumerate(p)}
    counts = {d: c for d, c in counts.items() if c}
    return counts, sum(counts.values())
