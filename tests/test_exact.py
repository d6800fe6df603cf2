from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from combstat.exact import (
    RHO,
    RHO_INV,
    Quad2,
    render_decimal,
    render_scalar,
    yp_add,
    yp_mul,
    yp_scale,
    yp_shift1,
    yp_trim,
)
from series_references import scalar_inv, yp_inv

RT2 = Quad2(0, 1)


class TestQuad2:
    def test_mul(self):
        assert Quad2(3, -2) * Quad2(3, -2) == Quad2(17, -12)
        assert RHO * RHO_INV == 1
        assert RT2 * RT2 == 2

    def test_inv(self):
        assert RT2.inv() == Quad2(0, Fraction(1, 2))
        x = Quad2(Fraction(5, 3), Fraction(-7, 2))
        assert x * x.inv() == 1
        with pytest.raises(ZeroDivisionError):
            Quad2(0, 0).inv()

    def test_mixed_arithmetic(self):
        assert 1 + RT2 == Quad2(1, 1)
        assert RT2 - 1 == Quad2(-1, 1)
        assert 2 * RT2 == Quad2(0, 2)
        assert (1 + RT2) / RT2 == Quad2(1, Fraction(1, 2))
        assert 1 / RHO == RHO_INV
        assert Fraction(1, 2) * RT2 == Quad2(0, Fraction(1, 2))

    def test_pow(self):
        assert RHO ** 2 == Quad2(17, -12)
        assert RHO ** 0 == 1
        assert RHO ** -1 == RHO_INV
        assert (1 + RT2) ** 2 == Quad2(3, 2)

    def test_eq_hash_with_rationals(self):
        assert Quad2(5, 0) == 5
        assert hash(Quad2(5, 0)) == hash(5)
        assert Quad2(Fraction(1, 2), 0) == Fraction(1, 2)
        assert Quad2(1, 1) != 1
        assert {Quad2(2, 0), 2} == {2}

    def test_float(self):
        assert abs(float(RHO) - (3 - 2 * 2 ** 0.5)) < 1e-15
        assert abs(float(1 + RT2) - 2.414213562) < 1e-8

    def test_immutable(self):
        with pytest.raises(AttributeError):
            RT2.a = 5


def test_render_scalar():
    assert render_scalar(Fraction(-3, 2)) == "-3/2"
    assert render_scalar(Fraction(4, 2)) == "2"
    assert render_scalar(7) == "7"
    assert render_scalar(Quad2(1, 1)) == "1+1*rt2"
    assert render_scalar(Quad2(17, -12)) == "17-12*rt2"
    assert render_scalar(Quad2(3, 0)) == "3"
    assert render_scalar(Quad2(0, Fraction(1, 2))) == "0+1/2*rt2"


def test_render_decimal():
    assert render_decimal(Fraction(29, 5)) == "5.8"
    assert render_decimal(1 + RT2) == "2.414"
    assert render_decimal(Fraction(193, 63)) == "3.063"
    assert render_decimal(0) == "0"


def test_scalar_helpers():
    assert scalar_inv(Fraction(2, 3)) == Fraction(3, 2)
    assert scalar_inv(4) == Fraction(1, 4)
    assert scalar_inv(RHO) == RHO_INV
    with pytest.raises(ZeroDivisionError):
        scalar_inv(0)
    # integral inverses and scalings are int
    assert [type(scalar_inv(u)) for u in (1, -1, Fraction(-1))] == [int] * 3
    assert [type(c) for c in yp_scale([2, 4], Fraction(1, 2))] == [int, int]


quads = st.builds(
    Quad2,
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50),
)


@given(quads, quads, quads)
def test_quad2_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z
    assert x + y == y + x
    assert x - x == 0


@given(quads)
def test_quad2_field_inverse(x):
    if x:
        assert x * x.inv() == 1
        assert abs(float(x) * float(x.inv()) - 1) < 1e-6


# ---------------------------------------------------------------- ypoly

def test_yp_basic():
    assert yp_trim([1, 2, 0, 0]) == [1, 2]
    assert yp_add([1, 2], [0, -2, 3]) == [1, 0, 3]
    assert yp_scale([1, 2], 0) == []
    assert yp_mul([1, 1], [1, 1]) == [1, 2, 1]
    assert yp_mul([0, 1], [0, 1], ny=1) == []
    assert yp_mul([], [1, 2]) == []


def test_yp_inv():
    # 1/(1 - y) = 1 + y + y^2 + ...
    assert yp_inv([1, -1], 4) == [1, 1, 1, 1, 1]
    # 1/(2 - y): constant invertible but not 1
    inv = yp_inv([2, -1], 3)
    assert yp_mul([2, -1], inv, ny=3) == [1]
    with pytest.raises(ZeroDivisionError):
        yp_inv([0, 1], 3)
    with pytest.raises(ZeroDivisionError):
        yp_inv([], 3)


def test_yp_eval_deriv():
    p = [0, 2, 2, 1]  # 2y + 2y^2 + y^3 = 5 + 9t + 5t^2 + t^3 at y = 1 + t
    assert yp_shift1(p, 0) == [5]
    assert yp_shift1(p, 1) == [5, 9]
    assert yp_shift1(p, 5) == [5, 9, 5, 1]
    # 1 - y vanishes at y = 1 with slope -1; a t^k entry that cancels is trimmed
    assert yp_shift1([1, -1], 0) == []
    assert yp_shift1([1, -1], 1) == yp_shift1([1, -1, 0, 0], 2) == [0, -1]
    # entry i keeps the scalar type of the p_d with d >= i
    assert [type(c) for c in yp_shift1([Quad2(1, 1), Fraction(1, 2)], 1)] == [Quad2, Fraction]


@given(
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
    st.lists(st.integers(min_value=-9, max_value=9), max_size=6),
    st.integers(min_value=0, max_value=4),
)
def test_yp_mul_eval_commute(p, q, k):
    # the shift y = 1 + t is a ring homomorphism, also truncated at t^k
    assert yp_shift1(yp_mul(p, q), k) == yp_mul(yp_shift1(p, k), yp_shift1(q, k), k)
