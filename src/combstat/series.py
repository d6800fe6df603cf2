"""Truncated multivariate power series over exact scalars.

A Series is a sparse dict mapping exponent keys ``(dz, dx, dv, du)`` to
dense y-polynomials (see the ``yp_*`` helpers in :mod:`combstat.exact`).
z is the main size variable, x the position marker, v an optional second
marker, u an optional signed (Laurent) marker; y always lives inside the
cell values.  The *grade* of a key is ``dz + dx + dv`` -- u is excluded,
which is what lets Laurent u-cells ride along through the graded
solvers below.

A Series is its Truncation and its cells, nothing more.  Its number
field is the type of its scalars: int and Fraction for Q, Quad2 for
Q(sqrt 2), which mix in one product as they do in exact.  ps_to_json
names the field it reads off them.

Everything is truncated: exponents beyond the Truncation bounds are
dropped on the spot, and y-degrees beyond ny are clipped by every
product and builder.  So every Series is canonical: each cell is a
non-empty ypoly with no trailing zero and y-degree <= ny.
Products are lower-triangular in z, x, v and y (exponents only ever
grow, and y-degree d of a product needs only y-degrees <= d of the
factors), so in those variables the retained box of a clipped series is
exact, and a smaller box can be cut out of a larger one.  The Laurent u
is not: a cell dropped at u^-(u_range+1) comes back into the box when
multiplied by a u^+1 cell.  The box is exact in u only when no dropped
cell can come back, e.g. when every u-step comes with a z-step and
u_range >= nz, which is what gfcat requires of Babs.

The three solvers (ps_linear_solve, ps_ode_solve, solve_fixed_point)
are online: each fixes one slice (of a grade, or of z) at a time from
the slices already fixed, forming its products with one kernel,
_online, so a solve costs about one product.  ps_linear_solve takes its
multiplier as a chain of sparse factors and multiplies by them one at
a time, so it costs about one product per factor and never forms their
dense product.  It is also the only reciprocal: 1/(1 - m) is the S of
S = 1 + S*m, for m with no grade-0 cell.  All the products share one
kernel, _acc, which multiplies each pair of cells straight into its
output cell.  No square root or exponential is taken here: gfcat and
closed build each one they need from a base series of solve_fixed_point
or from rising factorials.

Exponential GFs are handled n!-scaled (ps_borel): the z^n cells carry
n! times the coefficient, so a series counting labelled objects has int
cells.  ps_bmul and ps_ode_solve work on that form (a product is a
binomial convolution in z, and the z-integral is an index shift,
ps_shift by 1); ps_laplace divides by n! again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import itemgetter

from .exact import (
    Quad2,
    exact_int,
    render_scalar,
    yp_add,
    yp_mul,
    yp_scale,
    yp_trim,
)

ZERO_KEY = (0, 0, 0, 0)


@dataclass(frozen=True)
class Truncation:
    nz: int
    nx: int
    ny: int
    nv: int = 0
    u_range: int = 0

    def __post_init__(self):
        for name in ("nz", "nx", "ny", "nv", "u_range"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(
                    "truncation bound %s must be a non-negative int, got %r"
                    % (name, value)
                )

    @property
    def grade_bound(self) -> int:
        return self.nz + self.nx + self.nv

    def contains(self, key) -> bool:
        dz, dx, dv, du = key
        return (
            0 <= dz <= self.nz
            and 0 <= dx <= self.nx
            and 0 <= dv <= self.nv
            and -self.u_range <= du <= self.u_range
        )


def _grade(key) -> int:
    return key[0] + key[1] + key[2]


class Series:
    """Sparse truncated series; cells map (dz,dx,dv,du) -> ypoly."""

    __slots__ = ("trunc", "cells")

    def __init__(self, trunc: Truncation, cells=None):
        self.trunc = trunc
        self.cells = {} if cells is None else cells

    # operator sugar; the ps_* functions below are the primary API
    def __add__(self, other):
        if isinstance(other, Series):
            return ps_add(self, other)
        return ps_add(self, ps_monomial(self.trunc, ZERO_KEY, [other]))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Series):
            return ps_sub(self, other)
        return ps_sub(self, ps_monomial(self.trunc, ZERO_KEY, [other]))

    def __rsub__(self, other):
        return ps_sub(ps_monomial(self.trunc, ZERO_KEY, [other]), self)

    def __mul__(self, other):
        if isinstance(other, Series):
            return ps_mul(self, other)
        return ps_scale(self, other)

    def __rmul__(self, other):
        return ps_scale(self, other)

    def __neg__(self):
        return ps_scale(self, -1)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.trunc == other.trunc and self.cells == other.cells

    def __repr__(self):
        return "Series(%r, %d cells)" % (self.trunc, len(self.cells))


def _check_compat(a: Series, b: Series):
    if a.trunc != b.trunc:
        raise ValueError("truncation mismatch: %r vs %r" % (a.trunc, b.trunc))


# ------------------------------------------------------------- builders

def ps_one(trunc) -> Series:
    return Series(trunc, {ZERO_KEY: [1]})


def ps_monomial(trunc, key, ypoly) -> Series:
    """Single-cell series; a key outside the truncation box is dropped,
    and y-degrees beyond its ny are clipped."""
    p = yp_trim(list(ypoly[: trunc.ny + 1]))
    return Series(trunc, {key: p} if p and trunc.contains(key) else {})


# ----------------------------------------------------------- arithmetic

def ps_add(a: Series, b: Series) -> Series:
    _check_compat(a, b)
    out = dict(a.cells)
    for k, p in b.cells.items():
        _add_into(out, k, p)
    return Series(a.trunc, out)


def _add_into(out, k, p):
    """Set out[k] to out[k] + p, a new list; drop k if the sum cancels."""
    s = yp_add(out[k], p) if k in out else p
    if s:
        out[k] = s
    else:
        out.pop(k, None)


def ps_neg(a: Series) -> Series:
    return Series(a.trunc, {k: [-v for v in p] for k, p in a.cells.items()})


def ps_sub(a: Series, b: Series) -> Series:
    return ps_add(a, ps_neg(b))


def ps_scale(a: Series, c) -> Series:
    if c == 0:
        return Series(a.trunc)
    return Series(a.trunc, {k: yp_scale(p, c) for k, p in a.cells.items()})


def ps_mul_ypoly(a: Series, p) -> Series:
    """Multiply every cell by the y-polynomial p."""
    out = {}
    ny = a.trunc.ny
    for k, q in a.cells.items():
        r = yp_mul(q, p, ny)
        if r:
            out[k] = r
    return Series(a.trunc, out)


def ps_mul(a: Series, b: Series) -> Series:
    return _mul(a, b, None)


def ps_bmul(a: Series, b: Series) -> Series:
    """Product of two n!-scaled series (see ps_borel): the binomial
    convolution sum C(n, k) a_k b_(n-k) in z, an ordinary product in x,
    v, u and y."""
    return _mul(a, b, _pascal(a.trunc.nz))


def _pascal(n):
    return [[comb(i, j) for j in range(i + 1)] for i in range(n + 1)]


def _mul(a, b, pascal):
    """The product, weighted by pascal[dz][dz of the a-cell] if given."""
    _check_compat(a, b)
    # iterate the smaller factor outside: marginally fewer dead key-adds
    # (the binomial weight is symmetric, so swapping is safe)
    ac, bc = _canonical(a.cells), _canonical(b.cells)
    if len(ac) > len(bc):
        ac, bc = bc, ac
    out = {}
    _acc(out, ac.items(), list(bc.items()), a.trunc, pascal)
    return Series(a.trunc, out)


def _canonical(cells):
    """The cells, once none is empty or ends in a zero: _acc, where they
    go, reads the length of each cell as its y-degree plus one."""
    for k, p in cells.items():
        if not (p and p[-1]):
            raise ValueError("cell %r is not canonical: %r" % (k, p))
    return cells


def _acc(out, acells, bcells, t, pascal=None):
    """Add the products of two lists of canonical (key, ypoly) cells into
    the dict out, dropping keys outside the box t (by the limits each
    a-cell leaves); pascal weights them as in _mul.  Each pair adds into
    its cell of out in place, so those must be fresh lists.

    The sums are those of yp_add(cur, yp_mul(pa, pb, ny)), scalar types
    included: a one-entry pb scales through exact_int, a product clipped
    at ny is yp_mul's own (it drops the zeros its top may end in), and a
    cell is trimmed where its top cancels, or dropped."""
    nz, nx, ny, nv, u = t.nz, t.nx, t.ny, t.nv, t.u_range
    for (a0, a1, a2, a3), pa in acells:
        lz, lx, lv, ulo, uhi = nz - a0, nx - a1, nv - a2, -u - a3, u - a3
        la = len(pa)
        for (b0, b1, b2, b3), pb in bcells:
            if b0 > lz or b1 > lx or b2 > lv or b3 < ulo or b3 > uhi:
                continue
            n = la + len(pb) - 1
            prod = None
            if n > ny + 1:
                prod = yp_mul(pa, pb, ny)
                n = len(prod)
                if not n:
                    continue
            nk = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            c = pascal[nk[0]][a0] if pascal else 1
            cur = out.get(nk)
            if cur is None:
                cur = out[nk] = [0] * n
                m = 0
            else:
                m = len(cur)
                if m < n:
                    cur += [0] * (n - m)
            if prod is not None:
                for i, v in enumerate(prod):
                    cur[i] += c * v if c != 1 else v
            elif n == la:
                b = pb[0]
                for i, a in enumerate(pa):
                    v = exact_int(b * a)
                    cur[i] += c * v if c != 1 else v
            else:
                for i, a in enumerate(pa):
                    if not a:
                        continue
                    if c != 1:
                        a = c * a
                    for j, b in enumerate(pb, i):
                        cur[j] += a * b
            if n == m and not cur[-1]:
                yp_trim(cur)
                if not cur:
                    del out[nk]


def ps_is_zero(a: Series) -> bool:
    return not a.cells


def ps_has_quad2(*series) -> bool:
    """Whether a cell of the series holds a Quad2: whether they live in
    Q(sqrt 2) rather than Q."""
    return any(isinstance(c, Quad2) for a in series for p in a.cells.values() for c in p)


def ps_coeff(a: Series, dz, dx=0, dv=0, du=0):
    """The ypoly at one exponent key (a copy; [] when absent)."""
    return list(a.cells.get((dz, dx, dv, du), []))


# -------------------------------------------------------- graded solves

def _slices(cells, bound, grade=_grade):
    """The cells as (key, ypoly) lists by grade, slice i at index i, up to
    bound; cells past bound are left out."""
    out = [[] for _ in range(bound + 1)]
    for k, p in _canonical(cells).items():
        if grade(k) <= bound:
            out[grade(k)].append((k, p))
    return out


def _online(out, a, b, g, t, pascal=None):
    """Add the grade-g slice of A*B into the dict out and return it, from
    the slices a[g-j] and b[j] that exist, j rising (pascal as in _mul).
    The solvers pass the slices of S fixed so far as b, the inner operand
    of _acc, and the known factor as a."""
    for j in range(max(0, g - len(a) + 1), min(g, len(b) - 1) + 1):
        _acc(out, a[g - j], b[j], t, pascal)
    return out


def _cells(slices):
    return dict(cell for layer in slices for cell in layer)


def ps_linear_solve(a: Series, m: Series, *more: Series) -> Series:
    """The unique S with S = a + S*m, for m with no grade-0 cells; with
    more factors, S = a + S*m*f2*...*fk, and only m must lack them.

    Solved slice by slice in the grade g = dz+dx+dv: the grade-g slice of
    S*m only involves slices of S below g, so one pass from g = 0 up
    costs the same as a single multiplication.  The factors are never
    multiplied out: level 1 is S*m, and level l is level l-1 times the
    l-th factor, each slice g of it formed online from the slices up to g
    of the level below.  So a solve costs about one product per factor,
    against the cells of each, not those of their product.
    """
    t = a.trunc
    for f in (m, *more):
        _check_compat(a, f)
    if any(not _grade(k) for k in m.cells):
        raise ValueError("linear solve needs m with no grade-0 part")
    f_sl = [_slices(f.cells, t.grade_bound) for f in (m, *more)]
    s, levels = [], [[] for _ in more]
    for g, cells in enumerate(_slices(a.cells, t.grade_bound)):
        below = s
        for f, level in zip(f_sl, levels):
            level.append(list(_online({}, f, below, g, t).items()))
            below = level
        rhs = _online({k: list(p) for k, p in cells}, f_sl[-1], below, g, t)
        s.append(list(rhs.items()))
    return Series(t, _cells(s))


def ps_ode_solve(init: Series, drive: Series, m: Series) -> Series:
    """The unique S with dS/dz = drive + S*m and S = init at z = 0, all
    n!-scaled (see ps_borel), so S*m is ps_bmul.

    Solved slice by slice in z: the z^k slice of drive + S*m only
    involves slices of S up to k, and integrating it (an index shift)
    gives slice k+1, so one pass from k = 0 up costs about a single
    multiplication.
    """
    _check_compat(init, drive)
    _check_compat(init, m)
    if any(k[0] for k in init.cells):
        raise ValueError("ode solve needs an initial value free of z")
    t = init.trunc
    pascal = _pascal(t.nz)
    # slice nz - 1 of drive + S*m is the last one that gets integrated
    d_sl, m_sl = (_slices(c.cells, t.nz - 1, itemgetter(0)) for c in (drive, m))
    s = [list(init.cells.items())]
    for k, cells in enumerate(d_sl):
        rhs = _online({key: list(p) for key, p in cells}, m_sl, s, k, t, pascal)
        s.append([((k + 1, dx, dv, du), p) for (_, dx, dv, du), p in rhs.items()])
    return Series(t, _cells(s))


# ------------------------------------------------------- calculus in z

def ps_borel(a: Series) -> Series:
    """The n!-scaled form of an EGF: the z^n cells times n!.  Counting
    EGFs have int cells in this form; ps_bmul and ps_ode_solve work on
    it, and ps_shift by 1 is its z-integral."""
    return Series(a.trunc, {k: yp_scale(p, factorial(k[0])) for k, p in a.cells.items()})


def ps_laplace(a: Series) -> Series:
    """Inverse of ps_borel: one exact division by n! per cell."""
    return Series(a.trunc, {k: yp_scale(p, Fraction(1, factorial(k[0])))
                            for k, p in a.cells.items()})


def ps_shift(a: Series, k: int) -> Series:
    """Multiply by z**k (k may be negative; then the low cells must be
    absent, i.e. the series must actually be divisible by z**-k).
    Shifting up drops cells past nz."""
    t = a.trunc
    out = {}
    for (dz, dx, dv, du), p in a.cells.items():
        nz = dz + k
        if nz < 0:
            raise ValueError("ps_shift: cell z^%d nonzero, not divisible" % dz)
        if nz > t.nz:
            continue
        out[(nz, dx, dv, du)] = p
    return Series(t, out)


# ---------------------------------------------------------- substitution

def ps_subst_scale(a: Series, out_trunc: Truncation, subs) -> Series:
    """Monomial substitution: each variable goes to scale * monomial.

    ``subs`` maps a variable name among "z","x","v","u" to a pair
    ``(scale, (ez, ex, ev, eu))``; unmentioned variables stay put.  E.g.
    C(xz) from C(z) via  {"z": (1, (1, 1, 0, 0))},  and T(4x/27) via
    {"z": (Fraction(4, 27), (0, 1, 0, 0))}.  Distinct source keys may
    collide after substitution; they accumulate.
    """
    table = {
        "z": (1, (1, 0, 0, 0)),
        "x": (1, (0, 1, 0, 0)),
        "v": (1, (0, 0, 1, 0)),
        "u": (1, (0, 0, 0, 1)),
    }
    for var, pair in subs.items():
        if var not in table:
            raise ValueError("unknown variable %r" % (var,))
        table[var] = pair
    vecs = [table["z"], table["x"], table["v"], table["u"]]
    out = {}
    for key, p in a.cells.items():
        nk0 = nk1 = nk2 = nk3 = 0
        factor = 1
        for d, (sc, vec) in zip(key, vecs):
            if d == 0:
                continue
            if sc != 1:
                factor = factor * sc ** d
            nk0 += d * vec[0]
            nk1 += d * vec[1]
            nk2 += d * vec[2]
            nk3 += d * vec[3]
        nk = (nk0, nk1, nk2, nk3)
        if not out_trunc.contains(nk):
            continue
        _add_into(out, nk, yp_scale(p, factor))
    return Series(out_trunc, out)


# ----------------------------------------------------------- JSON dump

def ps_to_json(a: Series) -> dict:
    t = a.trunc
    names = ["z", "x", "y"]
    if t.nv:
        names.append("v")
    if t.u_range:
        names.append("u")
    entries = []
    for key in sorted(a.cells):
        dz, dx, dv, du = key
        e = {"z": dz, "x": dx}
        if t.nv:
            e["v"] = dv
        if t.u_range:
            e["u"] = du
        e["ypoly"] = [render_scalar(c) for c in a.cells[key]]
        entries.append(e)
    return {
        "vars": names,
        "truncation": {
            "nz": t.nz,
            "nx": t.nx,
            "ny": t.ny,
            "nv": t.nv,
            "u_range": t.u_range,
        },
        "field": "quad2" if ps_has_quad2(a) else "rational",
        "entries": entries,
    }


# ---------------------------------------------------- fixed-point bases

# Each base solves S = a0 + z*S*L, a0 a single cell 1.  The z^0 slice of
# L is 1, and above it L is k*S, or S*S for the ternary base (k None):
#   catalan    C = 1 + z C C
#   ternary    T = 1 + z T (T T)
#   schroeder  S = 1 + z S (2S - 1), i.e. St = z + St^2/(1 - St), St = zS
#   narayana   N = v + z N (N + 1 - v), i.e. N = 1/(1 - zN) - 1 + v
_BASES = {
    "catalan": (ZERO_KEY, 1),
    "ternary": (ZERO_KEY, None),
    "schroeder": (ZERO_KEY, 2),
    "narayana": ((0, 0, 1, 0), 1),
}


def solve_fixed_point(eq_id: str, trunc: Truncation) -> Series:
    """Solve one of the registered algebraic equations (see _BASES) z-slice
    by z-slice, with online products: the z^(g+1) slice of S is the z^g
    slice of L*S, which needs only slices of S up to g.  So each product
    of the equation is formed once, in about the time of one series
    product, and the result is a fixed point by construction; verify
    --suite gf checks it against the printed equations, denominators and
    all.  The cells are int."""
    if eq_id not in _BASES:
        raise ValueError("no fixed-point equation registered under %r" % (eq_id,))
    if eq_id == "narayana" and trunc.nv < 1:
        raise ValueError("narayana needs a truncation with nv >= 1")
    a0, k = _BASES[eq_id]
    s = [[(a0, [1])]]  # s[g]: the z^g slice of S, as (key, ypoly) pairs
    ell = [[(ZERO_KEY, [1])]]  # the slices of L
    for g in range(trunc.nz):
        prod = _online({}, ell, s, g, trunc)
        s.append([((g + 1, dx, dv, du), p) for (_, dx, dv, du), p in prod.items()])
        ell.append(list(_online({}, s, s, g + 1, trunc).items()) if k is None
                   else [(key, yp_scale(p, k)) for key, p in s[-1]])
    return Series(trunc, cells=_cells(s))
