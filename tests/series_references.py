"""Reference series operations, for the tests.

The library takes no square root or exponential by a solver of its own:
it builds each from a base series (the Schroeder law's root
sqrt(1 - 6w + w^2) = 1 + w - 4wS(w)) or from rising factorials.  These
references take them straight from their definitions instead, so a test
can check one route against the other.  ps_retrunc cuts a smaller box
out of a larger one, which a test compares with a build in that box.
"""

from fractions import Fraction
from math import factorial

from combstat.exact import yp_trim
from combstat.series import Series, ps_add, ps_bmul, ps_inv, ps_mul, ps_one, ps_scale


def ps_retrunc(a, new_trunc):
    """Reinterpret under another truncation, clipping what falls out:
    keys outside the box and y-degrees beyond its ny."""
    out = {k: yp_trim(p[: new_trunc.ny + 1])
           for k, p in a.cells.items() if new_trunc.contains(k)}
    return Series(new_trunc, {k: p for k, p in out.items() if p})


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
