import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combstat import gfcat, series
from combstat.exact import Quad2, yp_add, yp_mul
from combstat.gfcat import FAMILY_IDS, gf_closed, gf_solve
from combstat.series import (
    Series,
    Truncation,
    ps_add,
    ps_bmul,
    ps_borel,
    ps_coeff,
    ps_diff_y1,
    ps_diff_z,
    ps_eval_y1,
    ps_integrate_z,
    ps_inv,
    ps_is_zero,
    ps_laplace,
    ps_linear_solve,
    ps_monomial,
    ps_mul,
    ps_ode_solve,
    ps_one,
    ps_scale,
    ps_shift,
    ps_sub,
    ps_subst_scale,
    ps_to_json,
    solve_fixed_point,
)
from series_references import newton_sqrt, power_exp, ps_retrunc

T88 = Truncation(nz=8, nx=8, ny=8)


def zmono(t, k, p=(1,)):
    return ps_monomial(t, (k, 0, 0, 0), list(p))


def zcoeffs(s, upto):
    return [ps_coeff(s, k) for k in range(upto + 1)]


def test_truncation_contains():
    t = Truncation(3, 2, 5, nv=1, u_range=2)
    assert t.contains((3, 2, 1, -2))
    assert not t.contains((4, 0, 0, 0))
    assert not t.contains((0, 0, 2, 0))
    assert not t.contains((0, 0, 0, 3))
    assert t.grade_bound == 6
    with pytest.raises(ValueError):
        Truncation(-1, 2, 2)
    with pytest.raises(ValueError):
        Truncation(2, 2, 2, u_range=-1)
    with pytest.raises(ValueError):
        Truncation(2, 1.5, 2)


def test_mul_and_mismatch():
    t = Truncation(4, 0, 4)
    geom = Series(t, cells={(k, 0, 0, 0): [1] for k in range(5)})
    sq = ps_mul(geom, geom)
    assert zcoeffs(sq, 4) == [[1], [2], [3], [4], [5]]
    other = Series(Truncation(5, 0, 4))
    with pytest.raises(ValueError):
        ps_mul(geom, other)
    # a Quad2 series times an int one: each scalar brings its own field
    q = Series(t, {(0, 0, 0, 0): [Quad2(1, 1)], (2, 0, 0, 0): [0, Quad2(0, -3)]})
    want = {}
    for (i, _, _, _), p in q.cells.items():
        for (j, _, _, _), r in geom.cells.items():
            if i + j <= 4:
                want[(i + j, 0, 0, 0)] = yp_add(want.get((i + j, 0, 0, 0), []),
                                                yp_mul(p, r, 4))
    assert ps_mul(q, geom) == ps_mul(geom, q) == Series(t, want)
    # a product keeps exactly the keys inside the box, u on both sides
    tb = Truncation(1, 1, 0, nv=1, u_range=1)
    keys = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, -1)]
    a = Series(tb, cells={k: [1] for k in keys})
    sums = {tuple(map(sum, zip(k1, k2))) for k1 in keys for k2 in keys if k1 != k2}
    assert ps_mul(a, a) == Series(tb, cells={k: [2] for k in sums if tb.contains(k)})


def test_operator_sugar():
    t = Truncation(3, 0, 3)
    z = zmono(t, 1)
    s = 1 + z + z * z
    assert zcoeffs(s, 3) == [[1], [1], [1], []]
    assert ps_is_zero(s - s)
    assert zcoeffs(2 * z, 1) == [[], [2]]
    assert zcoeffs(1 - z, 1) == [[1], [-1]]


def test_linear_solve_geometric():
    t = Truncation(6, 0, 2)
    s = ps_linear_solve(ps_one(t), zmono(t, 1))
    assert all(ps_coeff(s, k) == [1] for k in range(7))
    with pytest.raises(ValueError):
        ps_linear_solve(ps_one(t), ps_one(t))


def test_inv_geometric_and_errors():
    t = Truncation(5, 0, 5)
    z = zmono(t, 1)
    inv = ps_inv(1 - z)
    assert all(ps_coeff(inv, k) == [1] for k in range(6))
    assert ps_is_zero(ps_sub(ps_mul(inv, 1 - z), ps_one(t)))
    with pytest.raises(ZeroDivisionError):
        ps_inv(z)
    # a constant with no y^0 term is not a y-unit
    with pytest.raises(ZeroDivisionError):
        ps_inv(ps_monomial(t, (0, 0, 0, 0), [0, 1]))
    got = ps_inv(ps_monomial(t, (0, 0, 0, 0), [2, -1]))
    # 1/(2-y) = sum y^k / 2^(k+1)
    assert ps_coeff(got, 0) == [Fraction(1, 2 ** (k + 1)) for k in range(6)][: 6]


def test_inv_y_unit_nontrivial():
    t = Truncation(3, 0, 4)
    z = zmono(t, 1)
    a = ps_add(ps_monomial(t, (0, 0, 0, 0), [1, 1]), z)  # (1+y) + z
    ainv = ps_inv(a)
    assert ps_is_zero(ps_sub(ps_mul(a, ainv), ps_one(t)))


def test_sqrt_one_minus_4z():
    # 1 - 2zC(z) turns B's printed form into B's equation: it squares
    # to 1 - 4z and is Newton's root, cell for cell and in int
    t = Truncation(12, 0, 0)
    square = 1 - zmono(t, 1, (4,))
    root = 1 - ps_shift(2 * solve_fixed_point("catalan", t), 1)
    assert zcoeffs(root, 4) == [[1], [-2], [-2], [-4], [-10]]
    assert ps_mul(root, root) == square
    assert _typed(root) == _typed(newton_sqrt(square))


def test_sqrt_one_minus_x_squared():
    # the Newton root that the printed limit laws of the tests are built
    # on has the binomial series of sqrt(1 - x^2), Fractions and all
    t = Truncation(0, 6, 0)
    x2 = ps_monomial(t, (0, 2, 0, 0), [-1])
    s = newton_sqrt(1 + x2)
    assert ps_coeff(s, 0, 0) == [1]
    assert ps_coeff(s, 0, 2) == [Fraction(-1, 2)]
    assert ps_coeff(s, 0, 4) == [Fraction(-1, 8)]
    assert ps_coeff(s, 0, 1) == []
    assert ps_mul(s, s) == 1 + x2


def test_sqrt_quad2_field():
    # the stored Schroeder law takes sqrt((1-x)(1-rho^2 x)) in w = rho x,
    # as 1 + w - 4wS(w) = sqrt(1 - 6w + w^2) over int; back in x it is
    # the root over Q(sqrt 2)
    t = Truncation(12, 0, 0)
    w = zmono(t, 1)
    square = 1 - 6 * w + ps_mul(w, w)
    root = 1 + w - ps_shift(4 * solve_fixed_point("schroeder", t), 1)
    assert ps_mul(root, root) == square
    assert _typed(root) == _typed(newton_sqrt(square))
    rho = Quad2(3, -2)
    in_x = ps_subst_scale(root, t, {"z": (rho, (1, 0, 0, 0))})
    x = zmono(t, 1)
    assert ps_mul(in_x, in_x) == ps_mul(1 - x, 1 - rho * rho * x)
    assert ps_coeff(in_x, 1) == [Quad2(-9, 6)]  # -(1+rho^2)/2


def test_grade_zero_cells_are_refused():
    # a u-cell of grade 0 (dz + dx + dv = 0) is not a constant either
    t = Truncation(3, 0, 0, u_range=3)
    a = Series(t, cells={(0, 0, 0, 1): [1], (1, 0, 0, 0): [1]})
    with pytest.raises(ValueError, match="linear solve needs m with no grade-0 part"):
        ps_linear_solve(ps_one(t), a)
    with pytest.raises(ValueError, match="linear solve needs m with no grade-0 part"):
        ps_inv(ps_add(ps_one(t), a))
    # only the first factor of a chain is bound: m*a has no grade-0 cell
    # when m has none, so a later factor may hold them
    z = zmono(t, 1)
    with pytest.raises(ValueError, match="linear solve needs m with no grade-0 part"):
        ps_linear_solve(ps_one(t), a, z)
    assert ps_linear_solve(ps_one(t), z, a) == ps_linear_solve(ps_one(t), ps_mul(z, a))


def test_exp_log_roundtrip():
    # L = -log(1-z) termwise, exp(L) must be 1/(1-z): n!-scaled, (k-1)!
    # in and k! out, which gfcat's rising factorials at p = 1 give in int
    t = Truncation(7, 0, 0)
    log = ps_borel(Series(t, cells={(k, 0, 0, 0): [Fraction(1, k)] for k in range(1, 8)}))
    assert all(ps_coeff(log, k) == [math.factorial(k - 1)] for k in range(1, 8))
    assert all(ps_coeff(ps_laplace(power_exp(log)), k) == [1] for k in range(8))
    rising = gfcat._rising(t, 0, [1])
    assert rising == power_exp(log)
    assert all(ps_coeff(rising, k) == [math.factorial(k)] for k in range(8))
    assert all(type(c) is int for p in rising.cells.values() for c in p)


T_ODE = Truncation(6, 3, 4, nv=1, u_range=6)  # |du| <= dz: nothing clipped in u
A_ODE = Series(T_ODE, cells={
    (1, 0, 0, 0): [0, 1],
    (1, 1, 0, -1): [2],
    (2, 1, 1, 0): [Fraction(1, 3), 0, 1],
    (3, 0, 0, 1): [-1],
})


def test_ode_solve_is_exp():
    # E = exp(a) solves E' = E a' with E = 1 at z = 0 (all n!-scaled).
    # For a = c y^j m, m a monomial of z-degree 1, the n!-scaled cell of
    # exp(a) at m^k is c^k y^(jk); the box clips v past v^1 and y past y^4
    for key, c, j in (((1, 0, 0, 0), 1, 0), ((1, 1, 0, -1), 2, 1),
                      ((1, 0, 1, 1), Fraction(1, 3), 0), ((1, 2, 0, 1), -1, 2),
                      ((1, 0, 0, -1), Fraction(-1, 2), 1)):
        a = ps_monomial(T_ODE, key, [0] * j + [c])
        want = {}
        for k in range(T_ODE.nz + 1):
            mk = tuple(k * e for e in key)
            if T_ODE.contains(mk) and j * k <= T_ODE.ny:
                want[mk] = [0] * (j * k) + [c ** k]
        got = ps_ode_solve(ps_one(T_ODE), Series(T_ODE), ps_diff_z(a))
        assert got == Series(T_ODE, want), key
    # a sum of cells, u and v among them: exp by its power series
    a = ps_borel(A_ODE)
    assert ps_ode_solve(ps_one(T_ODE), Series(T_ODE), ps_diff_z(a)) == power_exp(a)


def test_borel_laplace_and_binomial_product():
    b = Series(T_ODE, cells={(0, 1, 0, 0): [3], (2, 0, 1, 1): [1, Fraction(-1, 2)],
                             (5, 1, 0, 0): [4]})
    for s in (A_ODE, b):
        assert ps_laplace(ps_borel(s)) == s
        assert ps_borel(ps_laplace(s)) == s
    assert ps_laplace(ps_bmul(ps_borel(A_ODE), ps_borel(b))) == ps_mul(A_ODE, b)


def test_ode_solve_without_m_integrates():
    init = Series(T_ODE, cells={(0, 0, 0, 0): [1, 2], (0, 2, 1, -1): [3]})
    drive = ps_add(A_ODE, Series(T_ODE, cells={(0, 1, 0, 0): [5], (6, 0, 0, 0): [7]}))
    got = ps_ode_solve(init, drive, Series(T_ODE))
    assert got == ps_add(init, ps_integrate_z(drive))


def test_ode_solve_rejects_z_in_init():
    with pytest.raises(ValueError):
        ps_ode_solve(A_ODE, Series(T_ODE), Series(T_ODE))


def test_diff_integrate_z():
    t = Truncation(4, 0, 2)
    s = Series(t, cells={(k, 0, 0, 0): [k + 1] for k in range(5)})
    d = ps_laplace(ps_diff_z(ps_borel(s)))
    assert zcoeffs(d, 3) == [[2], [6], [12], [20]]
    back = ps_laplace(ps_integrate_z(ps_borel(d)))
    # constant lost, top slice dropped on reintegration stays intact here
    assert zcoeffs(back, 4) == [[], [2], [3], [4], [5]]
    top = ps_laplace(ps_integrate_z(ps_borel(s)))
    assert ps_coeff(top, 4) == [1]  # (dz=3 cell)/4 -> 4/4
    assert (5, 0, 0, 0) not in top.cells
    # n!-scaled, both are index shifts
    assert zcoeffs(ps_diff_z(s), 4) == [[2], [3], [4], [5], []]
    assert zcoeffs(ps_integrate_z(s), 4) == [[], [1], [2], [3], [4]]


def test_shift():
    t = Truncation(3, 0, 0)
    s = Series(t, cells={(1, 0, 0, 0): [5], (3, 0, 0, 0): [7]})
    up = ps_shift(s, 1)
    assert zcoeffs(up, 3) == [[], [], [5], []]  # z^4 cell clipped
    down = ps_shift(s, -1)
    assert zcoeffs(down, 3) == [[5], [], [7], []]
    with pytest.raises(ValueError):
        ps_shift(s, -2)


def test_subst_scale_xz():
    tz = Truncation(4, 0, 0)
    c = solve_fixed_point("catalan", tz)
    txz = Truncation(4, 4, 0)
    cxz = ps_subst_scale(c, txz, {"z": (1, (1, 1, 0, 0))})
    assert ps_coeff(cxz, 3, 3) == [5]
    assert ps_coeff(cxz, 3, 2) == []
    scaled = ps_subst_scale(c, tz, {"z": (Fraction(4, 27), (1, 0, 0, 0))})
    assert ps_coeff(scaled, 2) == [Fraction(32, 729)]


def test_subst_scale_collision_accumulates():
    t = Truncation(2, 2, 0)
    s = Series(t, cells={(1, 0, 0, 0): [1], (0, 1, 0, 0): [1]})
    # send both z and x to the same monomial zx
    out = ps_subst_scale(s, t, {"z": (1, (1, 1, 0, 0)), "x": (1, (1, 1, 0, 0))})
    assert ps_coeff(out, 1, 1) == [2]


def test_y_views():
    t = Truncation(2, 0, 5)
    s = Series(t, cells={(1, 0, 0, 0): [0, 2, 2, 1], (2, 0, 0, 0): [3]})
    assert ps_coeff(ps_eval_y1(s), 1) == [5]
    assert ps_coeff(ps_diff_y1(s), 1) == [9]
    assert ps_coeff(ps_diff_y1(s), 2) == []


def test_fixed_point_catalan():
    t = Truncation(5, 0, 0)
    c = solve_fixed_point("catalan", t)
    assert zcoeffs(c, 5) == [[1], [1], [2], [5], [14], [42]]
    assert ps_coeff(ps_mul(c, c), 3) == [14]


def test_fixed_point_ternary():
    t = Truncation(4, 0, 0)
    s = solve_fixed_point("ternary", t)
    assert zcoeffs(s, 4) == [[1], [1], [3], [12], [55]]


def test_fixed_point_schroeder():
    t = Truncation(4, 0, 0)
    s = solve_fixed_point("schroeder", t)
    assert zcoeffs(s, 4) == [[1], [1], [3], [11], [45]]


def test_fixed_point_narayana():
    t = Truncation(4, 0, 0, nv=5)
    n = solve_fixed_point("narayana", t)
    assert ps_coeff(n, 0, 0, 1) == [1]  # constant in z is v itself
    assert ps_coeff(n, 0, 0, 2) == []
    assert [ps_coeff(n, 3, 0, k) for k in (1, 2, 3)] == [[1], [3], [1]]
    with pytest.raises(ValueError):
        solve_fixed_point("narayana", Truncation(3, 0, 0))


def _iterate(step, start):
    """The reference solver: apply step nz+1 times from start (each pass
    fixes at least one more order in z), then check that the result is a
    fixed point."""
    s = start
    for _ in range(start.trunc.nz + 1):
        s = step(s)
    if not ps_is_zero(ps_sub(s, step(s))):
        raise ArithmeticError("fixed-point iteration did not converge")
    return s


def _reference_fixed_point(eq_id, t):
    """solve_fixed_point by plain iteration of the cleared equations, one
    to three full products per pass."""
    one = ps_one(t)
    if eq_id == "schroeder":
        # St = z - z St + 2 St^2 one order higher, then divided by z
        t1 = Truncation(t.nz + 1, t.nx, t.ny, t.nv, t.u_range)
        z = zmono(t1, 1)
        st = _iterate(lambda s: ps_add(z, ps_mul(s, ps_sub(ps_scale(s, 2), z))),
                      Series(t1))
        return ps_retrunc(ps_shift(st, -1), t)
    z = zmono(t, 1)
    if eq_id == "catalan":
        return _iterate(lambda s: ps_add(one, ps_mul(z, ps_mul(s, s))), one)
    if eq_id == "ternary":
        return _iterate(lambda s: ps_add(one, ps_mul(z, ps_mul(s, ps_mul(s, s)))), one)
    v = ps_monomial(t, (0, 0, 1, 0), [1])
    one_v = ps_sub(one, v)
    return _iterate(lambda s: ps_add(v, ps_mul(z, ps_mul(s, ps_add(s, one_v)))), v)


@pytest.mark.parametrize("eq_id", ["catalan", "ternary", "schroeder", "narayana"])
def test_fixed_point_matches_reference_iteration(eq_id):
    # the slice-by-slice solve gives the same cells, of the same types
    for nz in range(13):
        for nx in (0, 1, 3):
            for ny in (0, 2):
                for nv in (1, nz + 1) if eq_id == "narayana" else (0,):
                    t = Truncation(nz, nx, ny, nv=nv)
                    got = solve_fixed_point(eq_id, t)
                    want = _reference_fixed_point(eq_id, t)
                    assert got == want
                    assert ({k: [type(c) for c in p] for k, p in got.cells.items()}
                            == {k: [type(c) for c in p] for k, p in want.cells.items()})


@pytest.mark.parametrize("eq_id", ["schroeder", "narayana"])
def test_fixed_point_matches_inverse_form(eq_id):
    # the equations are solved with their denominators cleared; iterating
    # the printed forms, one series inverse per pass, gives the same series
    for nz in range(1, 10):
        t = Truncation(nz, 0, 0, nv=nz + 1)
        if eq_id == "schroeder":
            t1 = Truncation(nz + 1, 0, 0, nv=nz + 1)
            z, one = zmono(t1, 1), ps_one(t1)
            st = _iterate(
                lambda s: ps_add(z, ps_mul(ps_mul(s, s), ps_inv(ps_sub(one, s)))),
                Series(t1),
            )
            want = ps_retrunc(ps_shift(st, -1), t)
        else:
            z, one = zmono(t, 1), ps_one(t)
            v = ps_monomial(t, (0, 0, 1, 0), [1])
            want = _iterate(
                lambda s: ps_add(ps_sub(ps_inv(ps_sub(one, ps_mul(z, s))), one), v), v
            )
        assert solve_fixed_point(eq_id, t) == want


def test_fixed_point_unknown():
    with pytest.raises(ValueError):
        solve_fixed_point("motzkin", T88)


def test_retrunc():
    t = Truncation(5, 0, 0)
    c = solve_fixed_point("catalan", t)
    small = ps_retrunc(c, Truncation(2, 0, 0))
    assert zcoeffs(small, 2) == [[1], [1], [2]]
    assert len(small.cells) == 3


def test_out_of_box_cells_are_dropped():
    t = Truncation(2, 0, 1)
    assert ps_monomial(t, (0, 1, 0, 0), [1]).cells == {}
    assert ps_monomial(t, (3, 0, 0, 0), [1]).cells == {}
    # y-degrees past the new ny go too, and a cell left empty with them
    s = Series(Truncation(3, 0, 3), cells={(2, 0, 0, 0): [0, 1, 2, 3],
                                           (1, 0, 0, 0): [0, 0, 5]})
    assert ps_retrunc(s, t).cells == {(2, 0, 0, 0): [0, 1]}


def test_json_dump():
    t = Truncation(2, 1, 3)
    s = Series(t, cells={(1, 0, 0, 0): [0, Fraction(1, 2)], (0, 1, 0, 0): [3]})
    d = ps_to_json(s)
    assert d["vars"] == ["z", "x", "y"]
    assert d["field"] == "rational"
    assert d["truncation"]["nz"] == 2
    assert d["entries"] == [
        {"z": 0, "x": 1, "ypoly": ["3"]},
        {"z": 1, "x": 0, "ypoly": ["0", "1/2"]},
    ]
    tu = Truncation(1, 0, 0, nv=1, u_range=1)
    su = Series(tu, cells={(1, 0, 1, -1): [1]})
    assert ps_to_json(su)["entries"] == [{"z": 1, "x": 0, "v": 1, "u": -1, "ypoly": ["1"]}]
    # the field is read off the scalars: one Quad2 cell puts the series in Q(sqrt 2)
    sq = ps_add(s, Series(t, {(2, 0, 0, 0): [Quad2(1, -2)]}))
    assert ps_to_json(sq)["field"] == "quad2"
    assert ps_to_json(sq)["entries"][-1] == {"z": 2, "x": 0, "ypoly": ["1-2*rt2"]}


# ------------------------------------------------- the product kernel

def _per_pair_acc(out, acells, bcells, t, pascal=None):
    """series._acc spelled out: each pair's product built by yp_mul, then
    added into out by yp_add, a cancelled cell dropped."""
    for ka, pa in acells:
        for kb, pb in bcells:
            nk = tuple(i + j for i, j in zip(ka, kb))
            if not t.contains(nk):
                continue
            prod = yp_mul(pa, pb, t.ny)
            if pascal:
                prod = [pascal[nk[0]][ka[0]] * v for v in prod]
            s = yp_add(out.get(nk, []), prod)
            if s:
                out[nk] = s
            else:
                out.pop(nk, None)


def _typed(s):
    return s.trunc, {k: [(type(c), c) for c in p] for k, p in s.cells.items()}


def _with_per_pair_kernel(fn, *args):
    kernel = series._acc
    series._acc = _per_pair_acc
    try:
        return fn(*args)
    finally:
        series._acc = kernel


def _assert_canonical(s):
    # every cell in the box, non-empty, no trailing zero, y-degree <= ny
    for k, p in s.cells.items():
        assert s.trunc.contains(k), k
        assert p and p[-1] != 0 and len(p) <= s.trunc.ny + 1, (k, p)


_small = st.integers(-2, 2)
_scalars = {
    "int": _small,
    # integral Fractions too: a sum of them stays a Fraction
    "frac": st.one_of(_small, st.fractions(-2, 2, max_denominator=3)),
    "quad2": st.one_of(_small, st.fractions(-2, 2, max_denominator=2),
                       st.builds(Quad2, _small, st.sampled_from([0, 1, -1]))),
}


@st.composite
def _series_tuple(draw, count=2, exact_u=False):
    """count series in one small box, over int, Fraction or Q(sqrt 2) cells
    with few distinct values (so sums cancel), y-degrees up to ny (so
    products clip) and u at the Laurent edges; or, with exact_u, with
    |du| <= dz <= u_range, so that the box is exact in u."""
    nz = draw(st.integers(0, 3))
    t = Truncation(nz, draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                   draw(st.integers(0, 1)), nz if exact_u else draw(st.integers(0, 2)))
    kind = draw(st.sampled_from(sorted(_scalars)))
    keys = st.integers(0, t.nz).flatmap(lambda dz: st.tuples(
        st.just(dz), st.integers(0, t.nx), st.integers(0, t.nv),
        st.integers(-dz, dz) if exact_u else st.integers(-t.u_range, t.u_range)))
    ypolys = st.lists(_scalars[kind], min_size=1, max_size=t.ny + 1)

    def one():
        cells = draw(st.dictionaries(keys, ypolys, max_size=6))
        cells = {k: p for k, p in ((k, yp_add(p, [])) for k, p in cells.items()) if p}
        return Series(t, cells)

    return tuple(one() for _ in range(count))


def _graded(s):
    """s without its grade-0 cells: a multiplier a linear solve takes first."""
    return Series(s.trunc, {k: p for k, p in s.cells.items() if series._grade(k)})


@settings(max_examples=300, deadline=None)
@given(_series_tuple())
def test_kernel_matches_per_pair_products(pair):
    # the in-place kernel gives the per-pair yp_mul + yp_add sums, scalar
    # types included, in every product and solver built on it
    a, b = pair
    t = a.trunc
    m = _graded(b)
    init = Series(t, {k: p for k, p in a.cells.items() if not k[0]})
    for fn, args in ((ps_mul, (a, b)), (ps_bmul, (a, b)), (ps_linear_solve, (a, m)),
                     (ps_linear_solve, (a, m, b, a)), (ps_ode_solve, (init, b, m))):
        got = fn(*args)
        _assert_canonical(got)
        assert _typed(got) == _typed(_with_per_pair_kernel(fn, *args))


@settings(max_examples=300, deadline=None)
@given(_series_tuple(3, exact_u=True))
def test_factor_chain_solves_as_its_product(triple):
    # in a box exact in u, solving against m and f one at a time is
    # solving against their product, which the chain never forms;
    # on int draws the scalar types agree too
    a, m, f = triple
    m = _graded(m)
    got, want = ps_linear_solve(a, m, f), ps_linear_solve(a, ps_mul(m, f))
    _assert_canonical(got)
    assert got == want
    if all(type(c) is int for s in triple for p in s.cells.values() for c in p):
        assert _typed(got) == _typed(want)


@pytest.mark.parametrize("eq_id", ["catalan", "ternary", "schroeder", "narayana"])
def test_fixed_point_matches_per_pair_products(eq_id):
    for t in (Truncation(6, 2, 1, nv=1), Truncation(8, 3, 3, nv=9), Truncation(5, 5, 0, nv=6)):
        got = solve_fixed_point(eq_id, t)
        _assert_canonical(got)
        assert _typed(got) == _typed(_with_per_pair_kernel(solve_fixed_point, eq_id, t))


def test_kernel_cancels_and_clips():
    # (1 - zy)(1 + zy) = 1 - z^2 y^2, and y^2 is past ny = 1
    t = Truncation(2, 0, 1)
    for c in (1, Fraction(1, 2), Quad2(0, 1)):
        a = ps_add(ps_one(t), ps_monomial(t, (1, 0, 0, 0), [0, -c]))
        b = ps_add(ps_one(t), ps_monomial(t, (1, 0, 0, 0), [0, c]))
        assert _typed(ps_mul(a, b)) == _typed(ps_one(t))
    # a Fraction sum that cancels, then an int one into the same cell:
    # the cell starts over from the int, as yp_add's trim leaves it
    t = Truncation(2, 0, 1)
    a = Series(t, cells={(0, 0, 0, 0): [1], (1, 0, 0, 0): [1], (2, 0, 0, 0): [1]})
    b = Series(t, cells={(0, 0, 0, 0): [0, 3], (1, 0, 0, 0): [0, Fraction(-1, 2)],
                         (2, 0, 0, 0): [0, Fraction(1, 2)]})
    cell = ps_mul(a, b).cells[(2, 0, 0, 0)]
    assert cell == [0, 3]
    assert cell == _with_per_pair_kernel(ps_mul, a, b).cells[(2, 0, 0, 0)]
    assert [type(c) for c in cell] == [int, int]


def test_kernel_refuses_non_canonical_cells():
    # the kernel reads a cell's length as its y-degree plus one, so a
    # hand-built empty cell or trailing zero is refused where it enters
    t = Truncation(2, 0, 3)
    one, z = ps_one(t), ps_monomial(t, (1, 0, 0, 0), [1])
    for bad in ([], [1, 0]):
        s = Series(t, cells={(1, 0, 0, 0): bad})
        for build in (lambda: ps_mul(s, one), lambda: ps_mul(one, s),
                      lambda: ps_bmul(s, one),
                      lambda: ps_linear_solve(s, z), lambda: ps_linear_solve(one, s)):
            with pytest.raises(ValueError, match="not canonical"):
                build()
    # [1, 0] times [2] would otherwise keep the trailing zero of [2, 0]
    with pytest.raises(ValueError, match="not canonical"):
        ps_mul(Series(t, cells={(0, 0, 0, 0): [1, 0]}), Series(t, cells={(0, 0, 0, 0): [2]}))


def test_solvers_keep_m_as_the_outer_factor():
    # only a one-entry inner cell scales through exact_int, so the operand
    # order shows in the types: m is the outer factor of each product and
    # S the inner one, and 1/2 times [2, 4] is [Fraction(1), Fraction(2)]
    t = Truncation(1, 0, 1)
    a = Series(t, cells={(0, 0, 0, 0): [2, 4]})
    half = Fraction(1, 2)
    got = [ps_linear_solve(a, Series(t, cells={(1, 0, 0, 0): [half]})),
           ps_ode_solve(a, Series(t), Series(t, cells={(0, 0, 0, 0): [half]}))]
    for s in got:
        assert [(type(c), c) for c in s.cells[(1, 0, 0, 0)]] == [(Fraction, 1), (Fraction, 2)]


def test_monomial_clips_y():
    t = Truncation(2, 0, 0)
    assert ps_monomial(t, (1, 0, 0, 0), [0, 1]).cells == {}
    assert ps_add(ps_one(t), ps_monomial(t, (1, 0, 0, 0), [0, 1])) == ps_one(t)
    assert ps_monomial(Truncation(2, 0, 1), (1, 0, 0, 0), [2, 1, 3]).cells == {
        (1, 0, 0, 0): [2, 1]}


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_gf_outputs_are_canonical(family):
    for nz in range(4):
        for nx in range(4):
            for ny in range(3):
                t = Truncation(nz, nx, ny, nv=nz + 1 if family == "P" else 0,
                               u_range=nz if family == "Babs" else 0)
                _assert_canonical(gf_closed(family, t))
                _assert_canonical(gf_solve(family, t))
