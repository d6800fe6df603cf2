"""Closed-form counts, exact averages, and limit laws.

Everything here is exact (ints, Fractions, or a + b*sqrt(2) pairs)
except the explicitly-named asymptotic helpers, which return floats.

Most totals are printed in several shapes (a min-kernel convolution,
a partial-sum form, a subtracted form, a binomial form).  The public
functions serve one shape per answer -- the binomial form where there
is one, a few bigint products -- and form each big integer once per
call: an average hands its family count to the total (c(n + 1) comes
from c(n)), H_a + H_b sums the terms 1..min(a, b) once, and a Schroeder
leaf total, symmetric in r and n - 1 - r, sums from the nearer end.
cross_check(formula_id, n, r) evaluates all the others and raises
ClosedFormMismatch unless they agree with it, so a formula typo cannot
slip through silently.  Only `verify --suite identities` and the tests
call it; nothing on the serving path does.

Each fixed-r limit law is a bivariate N/D^power (series in x,
polynomials in y).  Those of B, D, U, W and G are derived from the one
statement of their equation, gfcat.EQUATIONS: the derivative of
S = a0/(1 - m) in the base, at the base's dominant singularity (Flajolet
and Sedgewick, Analytic Combinatorics, Thm VI.1), is N/D^2 with
N = a0'(1 - m) + a0 m' and D = 1 - m, m the product of the equation's
factors folded left to right.  Schroeder-leaf's family A has
an equation there too, but its law and its r = 0 law are still stored:
the paper's printed forms.  _column is the one expansion
of every law, over Z (Z[sqrt 2] for a law in Q(sqrt 2)) with one exact
division per returned entry; at y = 1 + t the t^1 entries of its
columns are the limit means.  LIMIT_LAWS is the one statement of which
ids have a law and from which r.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from . import gfcat, objects
from .exact import (
    Quad2,
    RHO,
    RHO_INV,
    exact_int,
    yp_shift1,
)
from .series import (
    ZERO_KEY,
    Series,
    Truncation,
    ps_add,
    ps_coeff,
    ps_has_quad2,
    ps_monomial,
    ps_mul,
    ps_mul_ypoly,
    ps_one,
    ps_scale,
    ps_shift,
    ps_sub,
    ps_subst_scale,
    solve_fixed_point,
)

# --------------------------------------------------------------- sequences

def catalan_number(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def narayana_number(n: int, k: int) -> int:
    """Plane trees of size n with k leaves."""
    if n == 0:
        return 1 if k == 1 else 0
    if not 1 <= k <= n:
        return 0
    return math.comb(n, k) * math.comb(n, k - 1) // n


_SCHROEDER = [1, 1]


def little_schroeder(n: int) -> int:
    """1, 1, 3, 11, 45, ...: series-parallel counts (s_n)."""
    if n < 0:
        raise ValueError("little Schroeder number s_%d is undefined" % n)
    while len(_SCHROEDER) <= n:
        m = len(_SCHROEDER)
        val = (3 * (2 * m - 1) * _SCHROEDER[m - 1] - (m - 2) * _SCHROEDER[m - 2]) // (m + 1)
        _SCHROEDER.append(val)
    return _SCHROEDER[n]


def ternary_count(n: int) -> int:
    """t_n = (3n choose n)/(2n+1): noncrossing chord trees on n chords."""
    return math.comb(3 * n, n) // (2 * n + 1)


_TERNARY_EDGE = [1]


def ternary_edge(n: int) -> int:
    """t'_n = (3n+1 choose n)/(n+1): the convolution square of t, by
    t'_n = t'_(n-1) (3n+1)(3n)(3n-1) / ((n+1)(2n+1)(2n))."""
    if n < 0:
        raise ValueError("ternary number t'_%d is undefined" % n)
    while len(_TERNARY_EDGE) <= n:
        m = len(_TERNARY_EDGE)
        num = _TERNARY_EDGE[m - 1] * (3 * m + 1) * (3 * m) * (3 * m - 1)
        _TERNARY_EDGE.append(num // ((m + 1) * (2 * m + 1) * (2 * m)))
    return _TERNARY_EDGE[n]


_RUN = 32  # consecutive terms 1/i that one leaf of harmonic's splitting adds


def _split(a, b):  # the sum of 1/i for 0 < a <= i < b, as (p, q)
    if b - a <= _RUN:
        p, q = 0, 1
        for i in range(a, b):
            p, q = p * i + q, q * i
        return p, q
    (p1, q1), (p2, q2) = _split(a, (a + b) // 2), _split((a + b) // 2, b)
    return p1 * q2 + p2 * q1, q1 * q2


def harmonic(n: int, m: int = 0) -> Fraction:
    """H_n + H_m (H_n alone by default), H_k = 1 + 1/2 + ... + 1/k (0 for
    k <= 0), as 2 H_min(n, m) plus the terms past min(n, m): binary
    splitting into int pairs p/q, each leaf a run of _RUN terms in one loop."""
    lo, hi = sorted((max(n, 0), max(m, 0)))
    (p, q), (p2, q2) = _split(1, lo + 1), _split(lo + 1, hi + 1)
    return Fraction(2 * p * q2 + p2 * q, q * q2)


_COUNTS = {
    "binary": catalan_number,
    "plane": catalan_number,
    "dyck": catalan_number,
    "triangulation": catalan_number,
    "schroeder": lambda n: little_schroeder(n - 1),
    "dissection": little_schroeder,
    "noncrossing": ternary_count,
    "increasing": math.factorial,
}


def family_count(family: str, n: int) -> int:
    """The number of objects of size n in the family."""
    if family not in _COUNTS:
        raise ValueError("unknown family %r" % (family,))
    objects.check_size(family, n)
    return _COUNTS[family](n)


# average id -> (family, statistic)
AVG_IDS = {st.avg_id: pair for pair, st in objects.STATISTICS.items() if st.avg_id}


class ClosedFormMismatch(ArithmeticError):
    """Two printed forms of one closed form gave different values."""


def _agree(forms):
    """forms maps a form's name to its value; raise unless all are equal."""
    values = list(forms.values())
    if any(v != values[0] for v in values[1:]):
        raise ClosedFormMismatch("closed forms disagree: %s" % (forms,))


def _as_int(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ClosedFormMismatch("expected an integer, got %s" % x)
        return x.numerator
    return x


def _check_formula(formula_id):
    if formula_id not in AVG_IDS:
        raise ValueError("unknown average id %r" % (formula_id,))


def _check_position(formula_id, n, r):
    _check_formula(formula_id)
    objects.check_positions(*AVG_IDS[formula_id], n, [r])


# ------------------------------------------------------------ exact totals

def exact_total(formula_id: str, n: int, r: int):
    """Statistic summed over the whole family at size n, position r.

    For "schroeder-leaf" n is the number of leaves (size n means n-1 in
    the z-grading, matching the enumerator); elsewhere n is the usual
    size.  Abscissa totals may be negative."""
    _check_position(formula_id, n, r)
    return _total(formula_id, n, r, family_count(AVG_IDS[formula_id][0], n))


def _total(formula_id, n, r, c):
    """exact_total at a checked position, c the family count at size n."""
    if formula_id == "dyck-downstep":
        formula_id, r = "dyck-upstep", n + 1 - r  # reversal: up-step n+1-r

    if formula_id in ("binary-leaf", "dyck-upstep"):  # x ties them (the leaf-tie form)
        x = (Fraction((2 * r + 1) * (2 * (n - r) + 1), (n + 1) * (n + 2))
             * math.comb(2 * r, r) * math.comb(2 * (n - r), n - r))
        if formula_id == "binary-leaf":
            return -c + _as_int(2 * x)
        c1 = c * 2 * (2 * n + 1) // (n + 2)  # c(n + 1)
        return _as_int(2 * r * c - Fraction(r + 1, 2) * c1 + x)
    if formula_id == "binary-abscissa":
        return _as_int(Fraction(3 * c * (2 * r - n), n + 2))
    if formula_id == "dyck-vertex":
        if n == 0:
            return 0
        delta = n if r % 2 == 0 else 2 * n + 1
        return -c + _as_int(
            Fraction(delta + r * (2 * n - r), n * (n + 1))
            * math.comb(r, r // 2) * math.comb(2 * n - r, n - r // 2))
    if formula_id == "schroeder-leaf":
        s, m = little_schroeder, n - 1
        r = min(r, m - r)  # leaves r and n-1-r mirror each other
        return ((r + 1) * (s(m + 1) + c) // 2 - c
                - 2 * sum((r - i) * s(i) * s(m - i) for i in range(r)))
    if formula_id == "noncrossing-node":
        tp = ternary_edge
        rr = min(r, n + 1 - r)  # columns r and n+1-r agree; 0 at the root
        return rr * (tp(n) - c) - 2 * sum(
            (rr - i) * tp(i - 1) * tp(n - i) for i in range(1, rr))
    # increasing trees: n! times the average, which is served directly
    return _as_int(c * exact_average(formula_id, n, r))


def exact_average(formula_id: str, n: int, r: int) -> Fraction:
    """Average of the statistic at position r, size n, as a Fraction."""
    _check_position(formula_id, n, r)
    if formula_id == "increasing-leaf":
        return harmonic(r, n - r)
    if formula_id == "increasing-internal":
        return harmonic(r + 1, n - r) - 2
    count = family_count(AVG_IDS[formula_id][0], n)
    return Fraction(_total(formula_id, n, r, count), count)


def _printed_forms(formula_id, n, r):
    """Every printed form of the position-r total that exact_total does
    not serve, by name; averages come multiplied by the family count."""
    if formula_id == "dyck-downstep":
        formula_id, r = "dyck-upstep", n + 1 - r
    c, s, tp = catalan_number, little_schroeder, ternary_edge
    forms = {}

    if formula_id == "binary-leaf":
        forms["mins"] = sum(
            c(i) * c(n - i) * min(r + 1, n + 1 - r, i + 1, n + 1 - i)
            for i in range(1, n + 1)
        )
        rr = min(r, n - r)  # the partial-sum form wants the small side
        forms["partial"] = (
            c(n + 1) - c(n)
            + 2 * sum(i * c(i) * c(n - i) for i in range(rr))
            + rr * sum(c(i) * c(n - i) for i in range(rr, n - rr + 1))
        )
        forms["subtracted"] = (
            (r + 1) * c(n + 1) - c(n)
            - 2 * sum((r - i) * c(i) * c(n - i) for i in range(r))
        )
        forms["direct"] = c(n) * (
            Fraction(2 * (2 * r + 1) * (2 * (n - r) + 1), n + 2)
            * math.comb(2 * r, r) * math.comb(2 * (n - r), n - r)
            / math.comb(2 * n, n) - 1)
        if r == 0:
            forms["r=0"] = c(n) * Fraction(3 * n, n + 2)

    elif formula_id == "dyck-vertex":
        forms["mins"] = sum(
            c(i) * c(n - i - 1) * min(r, 2 * n - r, 2 * i + 1, 2 * n - 2 * i - 1)
            for i in range(n)
        )
        rr = min(r, 2 * n - r)
        h = rr // 2
        forms["partial"] = 2 * sum(
            (2 * i + 1) * c(i) * c(n - i - 1) for i in range(h)
        ) + rr * sum(c(i) * c(n - i - 1) for i in range(h, n - h))
        forms["subtracted"] = r * c(n) - 2 * sum(
            (r - 2 * i - 1) * c(i) * c(n - i - 1) for i in range(r // 2)
        )
        if n > 0:
            delta = n if r % 2 == 0 else 2 * n + 1
            forms["direct"] = c(n) * (
                Fraction(delta + r * (2 * n - r), n)
                * math.comb(r, r // 2) * math.comb(2 * n - r, n - r // 2)
                / math.comb(2 * n, n) - 1)

    elif formula_id == "dyck-upstep":
        forms["sum"] = 2 * r * c(n) - sum((r - i) * c(i) * c(n - i) for i in range(r))
        forms["direct"] = c(n) * (
            Fraction((2 * r + 1) * (2 * (n - r) + 1), n + 2)
            * math.comb(2 * r, r) * math.comb(2 * (n - r), n - r)
            / math.comb(2 * n, n) + Fraction(3 * (r + 1), n + 2) - 2)
        # height sums of up-steps and leaves are tied together linearly
        forms["leaf-tie"] = Fraction(
            exact_total("binary-leaf", n, r) + (4 * r + 1) * c(n) - (r + 1) * c(n + 1), 2
        )
        if r == n:
            forms["r=n"] = c(n) * Fraction(3 * n, n + 2)

    elif formula_id == "schroeder-leaf":
        m = n - 1
        forms["direct"] = s(m) * (
            Fraction((r + 1) * s(m + 1), 2 * s(m)) + Fraction(r - 1, 2)
            - Fraction(2, s(m)) * sum((r - i) * s(i) * s(m - i) for i in range(r)))

    elif formula_id == "noncrossing-node":
        forms["mins"] = sum(
            tp(i) * tp(n - 1 - i) * min(r, n + 1 - r, i + 1, n - i) for i in range(n)
        )
        if r > 0:
            rr = min(r, n + 1 - r)
            forms["partial"] = 2 * sum(
                i * tp(i - 1) * tp(n - i) for i in range(1, rr)
            ) + rr * sum(tp(i - 1) * tp(n - i) for i in range(rr, n - rr + 2))
    return forms


def cross_check(formula_id: str, n: int, r: int) -> None:
    """Raise ClosedFormMismatch unless every printed form of the
    position-r total, and for "schroeder-leaf" both forms of its fixed-r
    limit, equal the values that exact_total, exact_average and
    fixed_r_limit_average serve."""
    _check_position(formula_id, n, r)
    count = family_count(AVG_IDS[formula_id][0], n)
    forms = {
        "served": exact_total(formula_id, n, r),
        "average": exact_average(formula_id, n, r) * count,
    }
    forms.update(_printed_forms(formula_id, n, r))
    _agree(forms)
    if formula_id == "schroeder-leaf":
        _agree({"limit": fixed_r_limit_average(formula_id, r),
                "limit-alt": _schroeder_limit_alt(r)})


def plane_leaf_total(n, k, r):
    """Summed depth of leaf r over plane trees of size n with k leaves."""
    objects.check_positions("plane", "leaf-depth", n, [r], k)
    nn = narayana_number  # N(n, k) counts each leaf's first edge; size 0 has none
    return (nn(n, k) if n else 0) + sum(
        nn(j, i) * nn(n - j, k + 1 - i) * min(r + 1, k - r, i, k + 1 - i)
        for j in range(1, n)
        for i in range(1, k + 1)
    )


def plane_leaf_average(n, k, r) -> Fraction:
    return Fraction(plane_leaf_total(n, k, r), narayana_number(n, k))


# --------------------------------------------------------- uniform averages

def uniform_average(formula_id: str, n: int) -> Fraction:
    """Average over a uniformly random position AND object."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if formula_id == "binary-leaf":
        return Fraction(4**n, math.comb(2 * n, n)) - 1
    if formula_id == "dyck-area":  # summed vertex heights = walk area
        return Fraction((n + 1) * 4**n, math.comb(2 * n, n)) - (2 * n + 1)
    if formula_id == "dyck-upstep":
        if n == 0:
            raise ValueError("the empty walk has no up-steps")
        return Fraction((n + 1) * 4**n, 2 * n * math.comb(2 * n, n)) - Fraction(n + 1, 2 * n)
    if formula_id == "noncrossing-node":
        if n == 0:
            raise ValueError("the one-vertex tree has no non-root vertices")
        tot = sum(
            (i + 1) * (n - i) * ternary_edge(i) * ternary_edge(n - 1 - i)
            for i in range(n)
        )
        return Fraction(tot, n * ternary_count(n))
    if formula_id == "increasing-leaf":
        return harmonic(n, n) - Fraction(2 * n, n + 1)
    raise ValueError("no uniform average for %r" % (formula_id,))


# -------------------------------------------------------- fixed-r limits

# formula id -> the first r of its fixed-r limit law, in table2's order.
# Walks have no 0th step; the abscissa drifts to -3 for every fixed r
# (no discrete law), and increasing-tree depths grow with n (no limit).
LIMIT_LAWS = {"binary-leaf": 0, "dyck-vertex": 0, "dyck-upstep": 1,
              "dyck-downstep": 1, "schroeder-leaf": 0, "noncrossing-node": 0}


def _check_limit_law(formula_id, r=None):
    _check_formula(formula_id)
    if formula_id not in LIMIT_LAWS:
        raise ValueError("no fixed-r limit law for %r" % (formula_id,))
    if r is not None and r < LIMIT_LAWS[formula_id]:
        raise ValueError("the %s limit law starts at r = %d, not %d"
                         % (formula_id, LIMIT_LAWS[formula_id], r))


def fixed_r_limit_average(formula_id: str, r: int):
    """Limit of the position-r average as the size grows, r held fixed.
    Exact: a Fraction, or a + b*sqrt(2) for the Schroeder family."""
    if formula_id == "binary-abscissa":
        if r < 0:
            raise ValueError("no position r = %d" % r)
        return Fraction(-3)  # (6r-3n)/(n+2) -> -3 for fixed r
    _check_limit_law(formula_id, r)

    if formula_id == "binary-leaf":
        return Fraction(4 * (2 * r + 1) * math.comb(2 * r, r), 4**r) - 1
    if formula_id == "dyck-vertex":
        if r % 2 == 0:
            return Fraction(2 * r + 1, 2**r) * math.comb(r, r // 2) - 1
        return Fraction(2 * r + 2, 2**r) * math.comb(r, (r - 1) // 2) - 1
    if formula_id == "dyck-upstep":
        return Fraction(4 * r + 2, 4**r) * math.comb(2 * r, r) - 2
    if formula_id == "dyck-downstep":
        s = r - 1
        return Fraction(4 * s + 2, 4**s) * math.comb(2 * s, s) + 1
    if formula_id == "schroeder-leaf":
        # (2 + sqrt 2)(r + 1) - 1 - 2 sum_{i<r} rho^i (r - i) s_i, by Horner
        acc = Quad2(0)
        for i in reversed(range(r)):
            acc = acc * RHO + (r - i) * little_schroeder(i)
        return Quad2(2, 1) * (r + 1) - 1 - 2 * acc
    if formula_id == "noncrossing-node":
        return Fraction(2 * r) - 6 * sum(
            (r - i) * ternary_edge(i - 1) * Fraction(4, 27) ** i for i in range(1, r)
        )
    raise AssertionError  # pragma: no cover


def _schroeder_limit_alt(r):
    """The second printed form of the schroeder-leaf fixed-r limit."""
    sch = little_schroeder
    form = (
        RHO ** (r - 1) * Fraction(math.comb(r + 2, 2), 2) * sch(r + 1)
        - RHO**r * math.comb(r + 1, 2) * sch(r)
        - Fraction(1, 2)
    )
    if r >= 1:
        form = form + RHO ** (r + 1) * Fraction(math.comb(r, 2), 2) * sch(r - 1)
    return form


# ------------------------------------------------- limit distribution GFs

# base -> (rho, tau): its dominant singularity and its value there
_SINGULARITY = {"catalan": (Fraction(1, 4), 2), "ternary": (Fraction(4, 27), Fraction(3, 2))}


def _limit_law_data(formula_id, nw):
    """(N, D, power, rho): the limit law's column r is rho^r times the
    w^r column of N/D^power, where N and D are series in w (stored on the
    z axis) with polynomial cells in y.

    The one stored law, schroeder-leaf's, is the paper's printed form,
    with y-degree at most 6, stated in w = rho*x for rho = 3 - 2 sqrt 2:
    its root sqrt((1 - x)(1 - rho^2 x)) is sqrt(1 - 6w + w^2) =
    1 + w - 4wS(w), S the little Schroeder series, so every cell of D is
    a Quad2 with integer parts.  Its family A has an equation in
    gfcat.EQUATIONS, but _SINGULARITY has no Schroeder entry yet, so it
    is not derived from it.  Every other id's law is derived
    from its family's equation there, and w = rho*x keeps the
    base's cells int: a0 and m are evaluated at z = rho, x = w/rho and
    the base at z, xz and x^2 z, namely tau + v, b(w) and b(w^2/rho).
    v squares to 0 in a box with nv = 1, so the v^1 cells are the
    derivatives in the base; each column has mass 1 with no
    normalisation.  a0 and m are linear in y, so N and D^2 have y-degree
    at most 2.  D times the lcm L of its denominators, and N times L^2,
    leave N/D^2 as it is with D's cells int, so D^2 is formed over Z."""
    if formula_id == "schroeder-leaf":
        t = Truncation(nw, 0, 6)
        w, s = ps_monomial(t, (1, 0, 0, 0), [1]), solve_fixed_point("schroeder", t)
        root = ps_sub(ps_add(ps_one(t), w), ps_shift(ps_scale(s, 4), 1))
        n = Series(t, {(0, 0, 0, 0): [0, 8]})
        d = ps_add(
            ps_add(
                ps_mul_ypoly(ps_one(t), [Quad2(9, 6), Quad2(-4, -12), Quad2(13, 6)]),
                Series(t, {(1, 0, 0, 0): [-RHO_INV, RHO_INV * (-2), RHO_INV * (-5)]}),
            ),
            ps_mul_ypoly(root, [RHO_INV, RHO_INV * 2, RHO_INV * (-3)]),
        )
        return n, d, 1, RHO

    base, equation = gfcat.EQUATIONS[objects.STATISTICS[AVG_IDS[formula_id]].gf]
    rho, tau = _SINGULARITY[base]
    t = Truncation(nw, 0, 2, nv=1)
    b, inv = solve_fixed_point(base, t), exact_int(1 / rho)
    a0, *ms = equation(
        ps_one(t), ps_monomial(t, ZERO_KEY, [0, 1]), ps_monomial(t, ZERO_KEY, [rho]),
        ps_monomial(t, (1, 0, 0, 0), [inv]),
        Series(t, cells={ZERO_KEY: [tau], (0, 0, 1, 0): [1]}),
        b, ps_subst_scale(b, t, {"z": (inv, (2, 0, 0, 0))}))
    (a00, a01), (m0, m1) = _dual_parts(a0), _dual_parts(functools.reduce(ps_mul, ms))
    d = ps_sub(ps_one(m0.trunc), m0)
    ell = math.lcm(*(c.denominator for p in d.cells.values() for c in p))
    n = ps_add(ps_mul(a01, d), ps_mul(a00, m1))
    return ps_scale(n, ell * ell), ps_scale(d, ell), 2, rho


def _dual_parts(s):
    """s = s0 + v*s1 in a box with nv = 1, as (s0, s1) in the box without v."""
    t = Truncation(s.trunc.nz, 0, s.trunc.ny)
    return tuple(Series(t, {(k[0], 0, 0, 0): p for k, p in s.cells.items() if k[2] == dv})
                 for dv in (0, 1))


LIMIT_VARIANTS = ("auto", "verbatim")


def limit_distribution(formula_id: str, r: int, dmax: int, variant: str = "auto"):
    """Fixed-r limit law of the statistic: [(d, probability)] pairs up
    to dmax, exact.

    variant is one of LIMIT_VARIANTS, and only "schroeder-leaf" takes
    "verbatim".  There "auto" uses the printed negative-binomial law for
    r = 0 and the bivariate form otherwise; "verbatim" always expands
    the bivariate form (whose columns are known not to normalize -- see
    the WARN in the verification suite).
    """
    _check_limit_law(formula_id, r)
    if variant not in LIMIT_VARIANTS:
        raise ValueError("unknown variant %r, not one of %s" % (variant, LIMIT_VARIANTS))
    if variant != "auto" and formula_id != "schroeder-leaf":
        raise ValueError("variants exist only for schroeder-leaf")
    if dmax < 0:
        raise ValueError("dmax must be nonnegative")

    if formula_id == "schroeder-leaf" and r == 0 and variant == "auto":
        law = _schroeder_r0_law()
    else:
        law = _limit_law_data(formula_id, r)
    return _column(*law, [r], dmax)[0]


def _schroeder_r0_law():
    """(N, D, power, rho) of the printed schroeder-leaf r = 0 law 2 rho d
    tau^(d-1), tau = sqrt(2) - 1: N/D^2 with N = 2 rho y, D = 1 - tau y,
    and rho = 1, as the law has only its column 0."""
    t = Truncation(0, 0, 2)
    return Series(t, {ZERO_KEY: [0, 2 * RHO]}), Series(t, {ZERO_KEY: [1, Quad2(1, -1)]}), 2, 1


class _Zrt2:
    """a + b*sqrt(2) with int parts, for _column: no Fraction to normalise."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __sub__(self, o):
        return _Zrt2(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return _Zrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __bool__(self):
        return bool(self.a or self.b)

    def over(self, g):  # self / g as a Quad2, through g's conjugate and norm
        num, norm = self * _Zrt2(g.a, -g.b), g.a * g.a - 2 * g.b * g.b
        return Quad2(Fraction(num.a, norm), Fraction(num.b, norm))


def _column(n, d, power, rho, rs, dmax):
    """The x^r columns of rho^r N/D^power for r in rs, as lists of nonzero
    (d, entry) pairs to y^dmax: one x-order at a time up to the largest r,
    over Z (Z[sqrt 2] once a cell of N or D holds a Quad2).  N, E =
    D^power and rho are cleared of their denominators (lcms lN, lE, lR);
    E's x^0 cell U(y) must be a unit in y, and y = u0 t makes U(u0 t) =
    u0 V(t) with V monic, so C~_m = u0^(m+1) C_m(u0 t) solves V C~_m =
    u0^m N_m(u0 t) - sum_j u0^(j-1) E_j(u0 t) C~_(m-j) with no division.
    Entry d of column r is C~_(r,d) lE (lR rho)^r / (lN lR^r u0^(r+1+d)),
    one exact division: a Quad2 or an exact_int Fraction."""
    top = max(rs)
    lift, over = ((_Zrt2, _Zrt2.over) if ps_has_quad2(n, d) else
                  (lambda a, b=0: a, lambda x, g: exact_int(Fraction(x, g))))

    def integral(cells):  # the scalars of cells times their lcm L, lifted, and L
        parts = [[(x.a, x.b) if isinstance(x, Quad2) else (x, 0) for x in p] for p in cells]
        lcm = math.lcm(*(c.denominator for p in parts for x in p for c in x))
        return [[lift(*(c.numerator * (lcm // c.denominator) for c in x)) for x in p]
                for p in parts], lcm

    e = functools.reduce(ps_mul, [d] * power)
    (nm, ln), (em, le) = (integral([ps_coeff(s, m) for m in range(top + 1)]) for s in (n, e))
    ((rn,),), lr = integral([[rho]])
    if not (em[0] and em[0][0]):
        raise ArithmeticError("the x^0 cell of D^%d is not a unit in y" % power)
    pw = [lift(1)]  # powers of u0
    for _ in range(top + dmax + len(em[0])):
        pw.append(pw[-1] * em[0][0])
    v = [c * pw[i] for i, c in enumerate(em[0][1:])]  # v_1, v_2, ...
    cols = []
    for m in range(top + 1):
        acc = [c * pw[m + i] for i, c in enumerate(nm[m][: dmax + 1])]
        acc += [lift(0)] * (dmax + 1 - len(acc))
        for j in range(1, m + 1):
            for i, c in enumerate(em[j][: dmax + 1]):
                c = c * pw[j - 1 + i]
                for dd, q in enumerate(cols[m - j][: dmax + 1 - i] if c else ()):
                    acc[i + dd] = acc[i + dd] - c * q
        for dd in range(dmax + 1):  # divide by V in place
            for i, c in enumerate(v[:dd], 1):
                acc[dd] = acc[dd] - c * acc[dd - i]
        cols.append(acc)
    out = []
    for r in rs:
        num = functools.reduce(operator.mul, [rn] * r, lift(le))
        den = lift(ln * lr**r)
        out.append([(deg, over(q * num, pw[r + 1 + deg] * den))
                    for deg, q in enumerate(cols[r]) if q])
    return out


def limit_mean_series(formula_id: str, rmax: int) -> list:
    """The exact means of the fixed-r laws, r = 0..rmax: the t^1 entry (the
    y-derivative at 1; int 0 if absent) of each column, N and D at y = 1 + t."""
    _check_limit_law(formula_id)
    if rmax < 0:
        raise ValueError("rmax must be nonnegative")
    return _column_means(*_limit_law_data(formula_id, rmax), range(rmax + 1))


def _column_means(n, d, power, rho, rs):
    """The t^1 entries (int 0 if absent) of the x^r columns of
    rho^r N/D^power at y = 1 + t, r in rs: each column's y-derivative at 1,
    its mean."""
    n, d = (Series(s.trunc, {k: c for k, p in s.cells.items() if (c := yp_shift1(p, 1))})
            for s in (n, d))
    return [dict(col).get(1, 0) for col in _column(n, d, power, rho, rs, 1)]


# ----------------------------------------------------------- asymptotics

def asymptotic_average(formula_id: str, n: int, r: int) -> float:
    """Growing-r regime: the average for r ~ alpha * n, as a float."""
    _check_position(formula_id, n, r)
    if formula_id == "binary-abscissa":
        return float(Fraction(6 * r - 3 * n, n + 2))
    m = n - 1 if formula_id == "schroeder-leaf" else n  # the forms divide by m
    if m == 0:
        raise ValueError("no growing-r asymptotics for %s at size %d" % (formula_id, n))
    pi = math.pi
    if formula_id == "binary-leaf":
        return 8 / math.sqrt(pi) * math.sqrt(r * (1 - r / n))
    if formula_id == "dyck-vertex":
        return 2 / math.sqrt(pi) * math.sqrt(r * (2 - r / n))
    if formula_id in ("dyck-upstep", "dyck-downstep"):
        return 4 / math.sqrt(pi) * math.sqrt(r * (1 - r / n))
    if formula_id == "schroeder-leaf":
        rho = float(RHO)
        coef = math.sqrt(1 - rho * rho) / (rho * math.sqrt(pi))
        return coef * math.sqrt(r * (1 - r / m))
    if formula_id == "noncrossing-node":
        return 8 / math.sqrt(3 * pi) * math.sqrt(r * (1 - r / n))
    # increasing trees: logarithmic growth
    alpha = r / n
    if not 0 < alpha < 1:
        raise ValueError("the log-regime form needs 0 < r < n")
    return 2 * math.log(n) + math.log(alpha) + math.log(1 - alpha)
