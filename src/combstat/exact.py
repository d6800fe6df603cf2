"""Exact scalar arithmetic.

Three layers, all exact:

* rationals -- ``fractions.Fraction``, with integral values kept as
  ``int`` where a quotient or a scaling allows (``exact_int``);
* ``Quad2`` -- the quadratic field Q(sqrt 2), stored as a pair ``a + b*rt2``;
* dense polynomials in the marker variable ``y`` over either field,
  represented as bare lists (``yp_*`` helpers).

No floating point enters this module except through ``float()`` of a
scalar and ``render_decimal``, which are for display only.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt


class Quad2:
    """An element a + b*sqrt(2) of Q(sqrt 2).

    Equality (and hashing) agree with plain rationals when b == 0, so a
    Quad2 can sit in the same container as ints/Fractions without
    surprises.  All arithmetic is closed and exact; inverses go through
    the conjugate, and a**2 - 2*b**2 = 0 never happens for nonzero
    rational pairs (sqrt 2 is irrational).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))

    def __setattr__(self, name, value):
        raise AttributeError("Quad2 is immutable")

    # -- coercion -------------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, Quad2):
            return x
        if isinstance(x, (int, Fraction)):
            return Quad2(x, 0)
        return None

    # -- ring ops -------------------------------------------------------
    def __add__(self, other):
        o = Quad2._coerce(other)
        if o is None:
            return NotImplemented
        return Quad2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = Quad2._coerce(other)
        if o is None:
            return NotImplemented
        return Quad2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = Quad2._coerce(other)
        if o is None:
            return NotImplemented
        return Quad2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = Quad2._coerce(other)
        if o is None:
            return NotImplemented
        return Quad2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self):
        return Quad2(-self.a, -self.b)

    def inv(self) -> "Quad2":
        """Multiplicative inverse via the conjugate (a - b*rt2)/(a^2 - 2 b^2)."""
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(sqrt 2)")
        nrm = self.a * self.a - 2 * self.b * self.b
        return Quad2(self.a / nrm, -self.b / nrm)

    def __truediv__(self, other):
        o = Quad2._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = Quad2._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = Quad2(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons / misc --------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Quad2):
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def __float__(self):
        b = self.b
        if not b:
            return float(self.a)
        # a and -b*sqrt(2) can agree to far more digits than a double
        # holds (components grow like (1+rt2)^d while the value shrinks
        # like (rt2-1)^d), so evaluate sqrt(2) as an exact rational with
        # enough headroom instead of summing two rounded doubles
        fa, fb = Fraction(self.a), Fraction(b)
        prec = max(fa.numerator.bit_length(), fb.numerator.bit_length(), 64) + 130
        scale = 1 << prec
        rt2 = Fraction(isqrt(2 * scale * scale), scale)
        return float(fa + fb * rt2)

    def __repr__(self):
        return "Quad2(%s, %s)" % (self.a, self.b)

    def __str__(self):
        return render_scalar(self)


# rho = 3 - 2*sqrt(2), the square of sqrt(2)-1; its inverse is the conjugate.
RHO = Quad2(3, -2)
RHO_INV = Quad2(3, 2)


# ----------------------------------------------------------------------
# scalar protocol: "scalar" below means int | Fraction | Quad2.
# ints and Fractions mix natively; Quad2 interoperates via its dunders.

def exact_int(q):
    """q as an int if it is an integral Fraction.  Scalings and quotients
    apply this rule, so an integral result stays an int."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def render_scalar(s) -> str:
    """Exact text form: "p/q" (or "p") for rationals, "a+b*rt2" for Quad2."""
    if isinstance(s, Quad2):
        if s.b == 0:
            return render_scalar(s.a)
        sign = "+" if s.b >= 0 else "-"
        return "%s%s%s*rt2" % (render_scalar(s.a), sign, render_scalar(abs(s.b)))
    if isinstance(s, Fraction):
        if s.denominator == 1:
            return str(s.numerator)
        return "%d/%d" % (s.numerator, s.denominator)
    return str(s)


def render_decimal(s, digits: int = 4) -> str:
    """Decimal rendering to `digits` significant figures (display only)."""
    v = float(s)
    if v == 0:
        return "0"
    return "%.*g" % (digits, v)


# ----------------------------------------------------------------------
# YPoly: dense polynomial in y as a bare list of scalars, index = degree.
# The zero polynomial is []; trailing zeros are always stripped.

def yp_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def yp_add(p, q):
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, v in enumerate(q):
        out[i] = out[i] + v
    return yp_trim(out)


def yp_scale(p, c):
    if c == 0:
        return []
    return yp_trim([exact_int(c * v) for v in p])


def yp_mul(p, q, ny=None):
    if not p or not q:
        return []
    top = len(p) + len(q) - 2
    if ny is not None:
        top = min(top, ny)
    if len(q) == 1:  # a scaling, which keeps integral entries int (exact_int)
        return yp_scale(p[: top + 1], q[0])
    out = [0] * (top + 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if i + j > top:
                break
            out[i + j] = out[i + j] + a * b
    return yp_trim(out)


def yp_shift1(p, k):
    """p(1 + t) to t^k: the t^i entry is sum_d C(d, i) p_d, so entry 0 is
    p(1), entry 1 is p'(1), and entry i the i-th y-derivative at 1 over i!."""
    return yp_trim([sum(comb(d, i) * v for d, v in enumerate(p[i:], i))
                    for i in range(k + 1)])
