"""Reference series operations, for the tests.

The library takes no square root or exponential by a solver of its own:
it builds each from a base series (the Schroeder law's root
sqrt(1 - 6w + w^2) = 1 + w - 4wS(w)) or from rising factorials.  These
references take them straight from their definitions instead, so a test
can check one route against the other.  ps_retrunc cuts a smaller box
out of a larger one, which a test compares with a build in that box.
ps_eval_y1 and ps_diff_y1 read every cell at y = 1 by its sums, not by
the library's shift y = 1 + t.  ps_inv divides by any series with an
invertible y^0 constant, through the y-series inverse yp_inv of its
constant cell; the library forms each reciprocal it needs, 1/(1 - m),
as the solution of S = 1 + S*m instead.
"""

from fractions import Fraction
from math import factorial

from combstat.exact import Quad2, exact_int, yp_add, yp_trim
from combstat.series import (
    ZERO_KEY,
    Series,
    ps_add,
    ps_bmul,
    ps_linear_solve,
    ps_mul,
    ps_mul_ypoly,
    ps_neg,
    ps_one,
    ps_scale,
)


def scalar_inv(s):
    if isinstance(s, Quad2):
        return s.inv()
    if s == 0:
        raise ZeroDivisionError("inverse of zero")
    return exact_int(Fraction(1, 1) / s)


def yp_inv(p, ny):
    """Inverse of p as a power series in y, truncated to degree ny.

    Requires an invertible constant coefficient; this is the "y as a
    truncated variable" mode used by 1/(2-y)^2 style denominators.
    """
    if not p or p[0] == 0:
        raise ZeroDivisionError("ypoly with zero constant term is not a y-unit")
    c0 = scalar_inv(p[0])
    out = [c0]
    for k in range(1, ny + 1):
        acc = 0
        for i in range(1, min(k, len(p) - 1) + 1):
            acc = acc + p[i] * out[k - i]
        out.append(-c0 * acc if acc != 0 else 0 * c0)
    return yp_trim(out)


def ps_inv(a: Series) -> Series:
    """Multiplicative inverse of a truncated series.

    y counts as one more truncated variable: the constant cell (exponent
    key all-zero) is inverted as a y-series with yp_inv, so its y^0
    coefficient must be nonzero.  Write a = c0*(1 + n), solve
    x = 1 - x*n, then multiply by c0^-1.  A y-free c0 has a one-entry
    inverse, and multiplying by it keeps integral cells int.
    """
    c0 = a.cells.get(ZERO_KEY)
    if not c0:
        raise ZeroDivisionError("inverse of a series with zero constant term")
    t = a.trunc
    c0i = yp_inv(c0, t.ny)
    n = ps_mul_ypoly(a, c0i)
    # yp_inv is the exact truncated inverse, so the constant cancels exactly
    if yp_add(n.cells.pop(ZERO_KEY), [-1]):
        raise ArithmeticError("series inverse left a constant other than 1")
    x = ps_linear_solve(ps_one(t), ps_neg(n))
    return ps_mul_ypoly(x, c0i)


def ps_retrunc(a, new_trunc):
    """Reinterpret under another truncation, clipping what falls out:
    keys outside the box and y-degrees beyond its ny."""
    out = {k: yp_trim(p[: new_trunc.ny + 1])
           for k, p in a.cells.items() if new_trunc.contains(k)}
    return Series(new_trunc, {k: p for k, p in out.items() if p})


def ps_eval_y1(a):
    """y = 1: every cell collapses to the sum of its entries."""
    return Series(a.trunc, {k: [s] for k, p in a.cells.items() if (s := sum(p))})


def ps_diff_y1(a):
    """d/dy at y = 1: every cell collapses to the sum of d times entry d."""
    return Series(a.trunc, {k: [s] for k, p in a.cells.items()
                            if (s := sum(d * c for d, c in enumerate(p) if d))})


def newton_sqrt(a):
    """The square root of a series with constant cell 1, by Newton,
    t <- (t + a/t)/2, one series inverse and one product per pass.  Each
    pass doubles the correct grade range, so ceil(log2(G+1)) + 1 passes
    cover grade bound G with margin."""
    t = a.trunc
    cur = ps_one(t)
    for _ in range(t.grade_bound.bit_length() + 1):
        cur = ps_scale(ps_add(cur, ps_mul(a, ps_inv(cur))), Fraction(1, 2))
    return cur


def power_exp(a):
    """exp(a) for an n!-scaled a with no grade-0 cell, by its power
    series: a^k/k! summed over k up to the grade bound (a^k has grade at
    least k), the powers formed by ps_bmul."""
    t = a.trunc
    total = power = ps_one(t)
    for k in range(1, t.grade_bound + 1):
        power = ps_bmul(power, a)
        total = ps_add(total, ps_scale(power, Fraction(1, factorial(k))))
    return total
