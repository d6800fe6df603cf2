import math
from fractions import Fraction

import pytest

from combstat import closed, objects
from combstat.closed import (
    asymptotic_average,
    catalan_number,
    exact_average,
    exact_total,
    fixed_r_limit_average,
    harmonic,
    limit_distribution,
    limit_mean_series,
    little_schroeder,
    narayana_number,
    plane_leaf_average,
    plane_leaf_total,
    ternary_count,
    ternary_edge,
    uniform_average,
)
from combstat.exact import (
    Quad2,
    RHO,
    RHO_INV,
    exact_int,
    yp_add,
    yp_inv,
    yp_mul,
    yp_scale,
)
from combstat.series import (
    Series,
    Truncation,
    ps_add,
    ps_coeff,
    ps_diff_y1,
    ps_eval_y1,
    ps_inv,
    ps_mul,
    ps_mul_ypoly,
    ps_one,
    ps_scale,
    ps_shift,
    ps_sub,
)
from series_references import newton_sqrt, ps_retrunc


def test_sequences():
    assert [catalan_number(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert [little_schroeder(n) for n in range(10)] == [
        1, 1, 3, 11, 45, 197, 903, 4279, 20793, 103049]
    with pytest.raises(ValueError):
        little_schroeder(-1)
    assert [ternary_count(n) for n in range(6)] == [1, 1, 3, 12, 55, 273]
    assert [ternary_edge(n) for n in range(5)] == [1, 2, 7, 30, 143]
    # the ratio recurrence against the binomial form it replaces
    assert all(ternary_edge(n) == math.comb(3 * n + 1, n) // (n + 1) for n in range(300))
    with pytest.raises(ValueError):
        ternary_edge(-1)
    assert [narayana_number(4, k) for k in range(1, 5)] == [1, 6, 6, 1]
    assert narayana_number(0, 1) == 1 and narayana_number(0, 2) == 0
    assert harmonic(4) == Fraction(25, 12)


def test_convolution_identities():
    for n in range(30):
        assert catalan_number(n + 1) == sum(
            catalan_number(i) * catalan_number(n - i) for i in range(n + 1)
        )
    for n in range(25):
        assert 2 * sum(
            little_schroeder(i) * little_schroeder(n - i) for i in range(n + 1)
        ) == little_schroeder(n + 1) + little_schroeder(n)
        assert sum(
            ternary_edge(i - 1) * ternary_edge(n - i) for i in range(1, n + 1)
        ) == ternary_edge(n) - ternary_count(n)


# ------------------------------------------------- totals and averages

def test_small_averages_match_enumeration():
    assert exact_average("binary-leaf", 3, 0) == Fraction(9, 5)
    assert exact_average("binary-abscissa", 3, 0) == Fraction(-9, 5)
    assert exact_average("dyck-vertex", 3, 3) == Fraction(7, 5)
    assert exact_average("dyck-upstep", 3, 2) == Fraction(8, 5)
    assert exact_average("dyck-downstep", 3, 1) == Fraction(9, 5)
    assert exact_average("schroeder-leaf", 3, 0) == Fraction(4, 3)
    assert exact_average("noncrossing-node", 2, 1) == Fraction(4, 3)
    assert exact_average("increasing-leaf", 3, 2) == Fraction(5, 2)
    assert exact_average("increasing-internal", 1, 0) == 0
    assert plane_leaf_total(3, 2, 1) == 5
    assert plane_leaf_average(3, 2, 1) == Fraction(5, 3)


@pytest.mark.parametrize("formula_id", sorted(closed.AVG_IDS))
def test_formulas_against_oracle(formula_id):
    family, statistic = closed.AVG_IDS[formula_id]
    n = 5
    if formula_id == "dyck-vertex":
        positions = range(2 * n + 1)
    elif formula_id in ("dyck-upstep", "dyck-downstep"):
        positions = range(1, n + 1)
    elif formula_id in ("schroeder-leaf", "increasing-internal"):
        positions = range(n)
    else:
        positions = range(n + 1)
    for r in positions:
        assert exact_average(formula_id, n, r) == objects.average(
            family, statistic, n, r
        ), (formula_id, r)


def _sizes_and_positions(formula_id, nmax):
    family, statistic = closed.AVG_IDS[formula_id]
    for n in range(1 if family == "schroeder" else 0, nmax + 1):
        for r in objects.positions(family, statistic, n):
            yield n, r


@pytest.mark.parametrize("formula_id", sorted(closed.AVG_IDS))
def test_cross_check_passes(formula_id):
    for n, r in _sizes_and_positions(formula_id, 60):
        closed.cross_check(formula_id, n, r)


def _off_by_one(fn):
    return lambda *args: fn(*args) + 1


# the abscissa and increasing-tree averages have one printed form each
@pytest.mark.parametrize("formula_id", sorted(
    set(closed.AVG_IDS) - {"binary-abscissa", "increasing-leaf", "increasing-internal"}))
def test_cross_check_catches_any_form_off_by_one(formula_id, monkeypatch):
    positions = list(_sizes_and_positions(formula_id, 6))
    # the served total and the served average
    for name in ("exact_total", "exact_average"):
        with monkeypatch.context() as m:
            m.setattr(closed, name, _off_by_one(getattr(closed, name)))
            with pytest.raises(closed.ClosedFormMismatch):
                for n, r in positions:
                    closed.cross_check(formula_id, n, r)
    # every other printed form, special values included
    printed = closed._printed_forms
    names = {key for n, r in positions for key in printed(formula_id, n, r)}
    assert names
    for key in names:
        def bumped(fid, n, r, key=key):
            forms = printed(fid, n, r)
            if key in forms:
                forms[key] += 1
            return forms

        with monkeypatch.context() as m:
            m.setattr(closed, "_printed_forms", bumped)
            with pytest.raises(closed.ClosedFormMismatch):
                for n, r in positions:
                    closed.cross_check(formula_id, n, r)


def test_cross_check_catches_a_schroeder_limit_off_by_one(monkeypatch):
    for name in ("fixed_r_limit_average", "_schroeder_limit_alt"):
        with monkeypatch.context() as m:
            m.setattr(closed, name, _off_by_one(getattr(closed, name)))
            with pytest.raises(closed.ClosedFormMismatch):
                closed.cross_check("schroeder-leaf", 5, 2)


def test_plane_formula_against_oracle():
    # size 0 is the one-node tree: its leaf sits at depth 0
    for n in range(7):
        for k in range(1, max(n, 1) + 1):
            for r in range(k):
                assert plane_leaf_average(n, k, r) == objects.average(
                    "plane", "leaf-depth", n, r, k=k
                ), (n, k, r)


def test_range_errors():
    with pytest.raises(ValueError):
        exact_total("binary-leaf", 3, 4)
    with pytest.raises(ValueError):
        exact_total("dyck-upstep", 3, 0)
    with pytest.raises(ValueError):
        exact_average("nonsense", 3, 0)
    with pytest.raises(ValueError):
        plane_leaf_total(3, 4, 0)


# ------------------------------------------------------ size-20 values

def test_binary_leaf_n20():
    want = [
        Fraction(30, 11), Fraction(49, 11), Fraction(807, 143),
        Fraction(34609, 5291), Fraction(38314, 5291), Fraction(41221, 5291),
        Fraction(103663, 12617), Fraction(3122507, 365893),
        Fraction(3203257, 365893), Fraction(9752537, 1097679),
        Fraction(34150511, 3825245),
    ]
    for r, value in enumerate(want):
        assert exact_average("binary-leaf", 20, r) == value
        assert exact_average("binary-leaf", 20, 20 - r) == value


def test_dyck_n20():
    assert exact_average("dyck-vertex", 20, 2) == Fraction(19, 13)
    assert exact_average("dyck-vertex", 20, 10) == Fraction(580171, 164021)
    assert exact_average("dyck-vertex", 20, 20) == Fraction(48200453, 11475735)
    for r in (2, 10, 20):
        assert exact_average("dyck-vertex", 20, r) == exact_average(
            "dyck-vertex", 20, 40 - r
        )
    assert exact_average("dyck-upstep", 20, 1) == 1
    assert exact_average("dyck-upstep", 20, 2) == Fraction(45, 26)
    assert exact_average("dyck-upstep", 20, 3) == Fraction(1114, 481)
    assert exact_average("dyck-upstep", 20, 20) == Fraction(30, 11)


def test_increasing_n20():
    want = {
        0: Fraction(55835135, 15519504),
        1: Fraction(352893319, 77597520),
        2: Fraction(20400421, 4084080),
        3: Fraction(64604663, 12252240),
        4: Fraction(3938059, 720720),
        5: Fraction(2018579, 360360),
        10: Fraction(7381, 1260),
    }
    for r, value in want.items():
        assert exact_average("increasing-leaf", 20, r) == value
        assert exact_average("increasing-leaf", 20, 20 - r) == value


def test_uniform_averages():
    assert uniform_average("binary-leaf", 5) == Fraction(193, 63)
    assert uniform_average("dyck-area", 3) == Fraction(29, 5)
    assert uniform_average("dyck-upstep", 3) == Fraction(22, 15)
    assert uniform_average("noncrossing-node", 1) == 1
    assert uniform_average("noncrossing-node", 2) == Fraction(4, 3)
    assert uniform_average("increasing-leaf", 1) == 1
    # random-leaf average is the position-average of the r-wise ones
    n = 6
    assert uniform_average("binary-leaf", n) == sum(
        exact_average("binary-leaf", n, r) for r in range(n + 1)
    ) / (n + 1)
    assert uniform_average("increasing-leaf", n) == sum(
        exact_average("increasing-leaf", n, r) for r in range(n + 1)
    ) / (n + 1)
    assert uniform_average("dyck-area", n) == sum(
        exact_average("dyck-vertex", n, r) for r in range(2 * n + 1)
    )
    assert uniform_average("dyck-upstep", n) == sum(
        exact_average("dyck-upstep", n, r) for r in range(1, n + 1)
    ) / n
    assert uniform_average("noncrossing-node", n) == sum(
        exact_average("noncrossing-node", n, r) for r in range(n + 1)
    ) / n


# -------------------------------------------------------- fixed-r limits

BINARY_ROW = [Fraction(3), Fraction(5), Fraction(13, 2), Fraction(31, 4),
              Fraction(283, 32), Fraction(629, 64), Fraction(2747, 256),
              Fraction(5923, 512)]
VERTEX_ROW = [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2),
              Fraction(19, 8), Fraction(11, 4), Fraction(49, 16),
              Fraction(27, 8)]
UPSTEP_ROW = [None, Fraction(1), Fraction(7, 4), Fraction(19, 8),
              Fraction(187, 64), Fraction(437, 128), Fraction(1979, 512),
              Fraction(4387, 1024)]
DOWNSTEP_ROW = [None, Fraction(3), Fraction(4), Fraction(19, 4),
                Fraction(43, 8), Fraction(379, 64), Fraction(821, 128),
                Fraction(3515, 512)]
SCHROEDER_ROW = [Quad2(1, 1), Quad2(1, 2), Quad2(-5, 7), Quad2(-113, 84),
                 Quad2(-2399, 1701), Quad2(-56615, 40038),
                 Quad2(-1435853, 1015307), Quad2(-38214497, 27021736)]
NONCROSSING_ROW = [Fraction(0), Fraction(2), Fraction(28, 9),
                   Fraction(962, 243), Fraction(30640, 6561),
                   Fraction(312634, 59049), Fraction(28017284, 4782969),
                   Fraction(823239002, 129140163)]


def test_fixed_r_limit_rows():
    for r in range(8):
        assert fixed_r_limit_average("binary-leaf", r) == BINARY_ROW[r]
        assert fixed_r_limit_average("dyck-vertex", r) == VERTEX_ROW[r]
        assert fixed_r_limit_average("noncrossing-node", r) == NONCROSSING_ROW[r]
        assert fixed_r_limit_average("schroeder-leaf", r) == SCHROEDER_ROW[r]
        if r >= 1:
            assert fixed_r_limit_average("dyck-upstep", r) == UPSTEP_ROW[r]
            assert fixed_r_limit_average("dyck-downstep", r) == DOWNSTEP_ROW[r]


def test_fixed_r_limit_edges():
    with pytest.raises(ValueError):
        fixed_r_limit_average("dyck-upstep", 0)
    with pytest.raises(ValueError):
        fixed_r_limit_average("increasing-leaf", 0)
    assert fixed_r_limit_average("binary-abscissa", 5) == -3
    # crossing a peak: the step after up-step r starts one higher
    for r in range(1, 13):
        assert fixed_r_limit_average("dyck-downstep", r + 1) - fixed_r_limit_average(
            "dyck-upstep", r
        ) == 3


def test_schroeder_r5_decimal_watch():
    # the exact r=5 entry, cross-checked in two algebraic shapes and by
    # Richardson-extrapolating the finite-n averages (which pins it to
    # twelve digits); the independently tabulated decimals only carry
    # seven accurate digits at r=5 and r=7
    val = fixed_r_limit_average("schroeder-leaf", 5)
    assert val == Quad2(-56615, 40038)
    assert abs(float(val) - 7.282610240) < 2e-7
    assert abs(float(fixed_r_limit_average("schroeder-leaf", 0)) - 2.414213562) < 5e-10
    assert abs(float(fixed_r_limit_average("schroeder-leaf", 7)) - 8.530065214) < 2e-7


def test_fixed_r_limits_are_limits():
    # the n=2000 exact averages are already within 1% of the limits
    for r in (0, 1, 2):
        lim = fixed_r_limit_average("binary-leaf", r)
        assert abs(float(exact_average("binary-leaf", 2000, r)) / float(lim) - 1) < 0.01


# ----------------------------------------------------- limit distributions

def test_binary_limit_column():
    col = dict(limit_distribution("binary-leaf", 0, 20))
    for d in range(1, 21):
        assert col[d] == Fraction(d, 2 ** (d + 1))


def test_step_limit_columns():
    assert limit_distribution("dyck-upstep", 2, 6) == [
        (1, Fraction(1, 4)), (2, Fraction(3, 4))]
    col = dict(limit_distribution("dyck-downstep", 1, 20))
    for d in range(1, 21):
        assert col[d] == Fraction(d, 2 ** (d + 1))
    with pytest.raises(ValueError):
        limit_distribution("dyck-upstep", 0, 5)


def test_vertex_limit_parity():
    for r in (0, 1, 2, 3):
        col = dict(limit_distribution("dyck-vertex", r, 15))
        assert all(d % 2 == r % 2 for d in col)
        assert abs(sum(float(p) for p in col.values()) - 1) < 1e-3


def test_noncrossing_limit_columns():
    # the root is at depth 0 for sure: the derived x^0 column is int 1
    assert limit_distribution("noncrossing-node", 0, 5) == [(0, 1)]
    assert type(limit_distribution("noncrossing-node", 0, 5)[0][1]) is int
    col1 = dict(limit_distribution("noncrossing-node", 1, 12))
    for d in range(1, 13):
        assert col1[d] == Fraction(4 * d, 3 ** (d + 1))
    # r=2 column: 4y(8+9y+y^2)/(9(3-y)^3)
    want = yp_mul([0, 32, 36, 4], yp_inv([243, -243, 81, -9], 12), 12)
    col2 = limit_distribution("noncrossing-node", 2, 12)
    assert col2 == [(d, p) for d, p in enumerate(want) if p]
    for r in (1, 2, 3):
        total = sum(float(p) for _, p in limit_distribution("noncrossing-node", r, 80))
        assert abs(total - 1) < 1e-6


def test_schroeder_limit_variants():
    r0 = limit_distribution("schroeder-leaf", 0, 1)
    assert r0 == [(1, Quad2(6, -4))]
    law = dict(limit_distribution("schroeder-leaf", 0, 50))
    mean = sum(d * float(p) for d, p in law.items())
    assert abs(mean - float(Quad2(1, 1))) < 1e-9
    # the bivariate form's r=0 column starts at the same d=1 value but
    # deviates from d=2 on, and its mass falls short of 1: the recorded
    # discrepancy between the two printed laws
    verb = dict(limit_distribution("schroeder-leaf", 0, 30, variant="verbatim"))
    assert verb[1] == Quad2(6, -4)
    assert verb[2] != law[2]
    assert sum(float(p) for p in verb.values()) < 0.5
    # the printed law, served by a running power of tau = sqrt(2) - 1
    assert all(p == RHO * (2 * d) * Quad2(-1, 1) ** (d - 1) for d, p in law.items())
    with pytest.raises(ValueError):
        limit_distribution("binary-leaf", 0, 5, variant="verbatim")
    with pytest.raises(ValueError):
        limit_distribution("increasing-leaf", 0, 5)


def test_limit_variants_are_auto_or_verbatim():
    # any other string is refused, "r0-law" too: at r = 0 that law is
    # what "auto" serves
    assert closed.LIMIT_VARIANTS == ("auto", "verbatim")
    for variant in ("bogus", "r0-law", "AUTO", ""):
        for r in (0, 1):
            with pytest.raises(ValueError, match="unknown variant"):
                limit_distribution("schroeder-leaf", r, 3, variant=variant)
        with pytest.raises(ValueError, match="unknown variant"):
            limit_distribution("binary-leaf", 0, 3, variant=variant)


# The printed N/D^power of the five laws that closed now derives from
# gfcat.EQUATIONS, kept as their reference: series in x (on the z axis),
# polynomial cells in y.

def _noncrossing_printed_pieces(nx):
    """x-coefficient lists (ypolys) of N and D for the noncrossing law
    N/D^2, with T always evaluated at (4/27)x."""

    def tp(i):
        return ternary_edge(i) * Fraction(4, 27) ** i

    def tc(i):
        return ternary_count(i) * Fraction(4, 27) ** i

    third = Fraction(1, 9)
    # numerator pieces: quadratic in T((4/27)x), coefficients polynomial
    # in x and y; each p2 entry still carries a y(1-y) factor
    p2 = {
        2: yp_scale([0, 0, 12, -5, 1], third),
        3: yp_scale([16, -44, 36, -27, 3], third),
        4: yp_scale([0, 0, 0, 4, 4], third),
    }
    p2 = {a: yp_mul(p, [0, 1, -1]) for a, p in p2.items()}
    p1_core = yp_mul(yp_mul([0, 0, 1], yp_mul([1, -1], [1, -1])), [2, -1])
    p1 = {2: yp_mul(p1_core, [4, -1]), 3: yp_mul(p1_core, [-2, -1])}
    p0 = {
        1: [0, 0, 0, 0, 0, 1],
        2: yp_mul([0, 0, 1], [-8, 18, -12, 0, -1]),
        3: yp_mul([0, 0, 1], [0, 8, -18, 13]),
        4: [0, 0, 0, 0, 0, 0, -1],
    }
    n_coeffs = []
    for m in range(nx + 1):
        acc = []
        for a, p in p2.items():
            if 0 <= m - a:
                acc = yp_add(acc, yp_scale(p, tp(m - a)))
        for a, p in p1.items():
            if 0 <= m - a:
                acc = yp_add(acc, yp_scale(p, tc(m - a)))
        if m in p0:
            acc = yp_add(acc, list(p0[m]))
        n_coeffs.append(acc)

    d_coeffs = [
        [0, 0, Fraction(3, 2), Fraction(-1, 2)],
        [-2, 6, Fraction(-15, 2), Fraction(3, 2)],
        [0, 0, 0, 1],
    ]
    return n_coeffs, d_coeffs


def _printed_law(formula_id, nx):
    """(N, D, power) of the printed law; y-degree at most 6."""
    t = Truncation(nx, 0, 6)
    one = ps_one(t)
    x = Series(t, cells={(1, 0, 0, 0): [1]})
    if formula_id == "binary-leaf":
        root = newton_sqrt(ps_sub(one, x))
        n = Series(t, cells={(0, 0, 0, 0): [0, 1]})
        d = ps_add(ps_mul_ypoly(one, [2, -2]), ps_mul_ypoly(root, [0, 1]))
        return n, d, 2
    if formula_id == "dyck-vertex":
        root = newton_sqrt(ps_sub(one, ps_mul(x, x)))
        n = Series(t, cells={(0, 0, 0, 0): [2]})
        d = ps_add(
            ps_sub(ps_mul_ypoly(one, [1, 0, 1]), ps_mul_ypoly(x, [0, 2])),
            ps_mul_ypoly(root, [1, 0, -1]),
        )
        return n, d, 1
    if formula_id == "dyck-upstep":
        root = newton_sqrt(ps_sub(one, x))
        n = Series(t, cells={(1, 0, 0, 0): [0, 4, -4], (2, 0, 0, 0): [0, 0, 0, 1]})
        d = ps_add(
            ps_mul_ypoly(ps_add(one, root), [2, -2]),
            Series(t, cells={(1, 0, 0, 0): [0, -3, 4], (2, 0, 0, 0): [0, 0, 0, -1]}),
        )
        return n, d, 1
    if formula_id == "dyck-downstep":
        root = newton_sqrt(ps_sub(one, x))
        n = Series(t, cells={(1, 0, 0, 0): [0, 1]})
        d = ps_add(
            ps_mul_ypoly(ps_add(one, root), [2, -2]),
            Series(t, cells={(0, 0, 0, 0): [0, 0, 1], (1, 0, 0, 0): [-1]}),
        )
        return n, d, 1
    n_coeffs, d_coeffs = _noncrossing_printed_pieces(nx)
    n = Series(t, cells={(m, 0, 0, 0): p for m, p in enumerate(n_coeffs) if p})
    d = Series(t, cells={(m, 0, 0, 0): p for m, p in enumerate(d_coeffs) if m <= nx})
    return n, d, 2


PRINTED_LAWS = ("binary-leaf", "dyck-vertex", "dyck-upstep", "dyck-downstep",
                "noncrossing-node")


def _dense_columns(n, d, power, r, ny):
    """Columns x^0..x^r of N/D^power to y^ny, multiplying by the dense
    yp_inv series of the x^0 unit of D^power: the division _column
    replaces, kept here as its reference.  The x^0 cell of D^power may
    be y^k times a unit (k = 4 for the printed noncrossing law)."""
    e = ps_mul(d, d) if power == 2 else d
    e0 = ps_coeff(e, 0)
    k = next(i for i, c in enumerate(e0) if c)
    ny += k * (r + 1)
    unit = yp_inv(e0[k:], ny)
    cols = []
    for m in range(r + 1):
        acc = ps_coeff(n, m)
        for j in range(1, m + 1):
            acc = yp_add(acc, yp_scale(yp_mul(ps_coeff(e, j), cols[m - j], ny), -1))
        assert not any(acc[:k])
        cols.append(yp_mul(acc[k:], unit, ny))
    return cols


def test_column_matches_dense_reference():
    # one reference run at r = 12 holds every lower column: N and D are
    # exact series, so their x-truncation does not move a column
    for formula_id, first in closed.LIMIT_LAWS.items():
        n12, d12, power, _ = closed._limit_law_data(formula_id, 12)
        dense = _dense_columns(n12, d12, power, 12, 30)
        rs = [*range(first, 8), 12]
        for dmax in (0, 1, 3, 12, 30):
            cols = []
            for r in rs:
                n, d, power, rho = closed._limit_law_data(formula_id, r)
                got = closed._column(n, d, power, 1, [r], dmax)[0]
                want = [(deg, p) for deg, p in enumerate(dense[r][: dmax + 1]) if p]
                assert got == want, (formula_id, r, dmax)
                # rho^r goes into the one division of each entry
                assert closed._column(n, d, power, rho, [r], dmax)[0] == \
                    [(deg, rho**r * p) for deg, p in want], (formula_id, r, dmax)
                # one type rule: Quad2 over Q(sqrt 2), else int where integral
                for (_, g), (_, w) in zip(got, want):
                    assert type(g) is (Quad2 if formula_id == "schroeder-leaf"
                                       else type(exact_int(w))), (formula_id, r, dmax, g)
                cols.append(got)
            # one call returns every column asked for, in the order asked
            assert closed._column(n12, d12, power, 1, rs[::-1], dmax) == cols[::-1], \
                (formula_id, dmax)
    # the first step's height is 1 for sure: the one integral entry
    assert closed.limit_distribution("dyck-upstep", 1, 3) == [(1, 1)]
    assert type(closed.limit_distribution("dyck-upstep", 1, 3)[0][1]) is int


def test_derived_laws_match_the_printed_laws():
    # every column at r <= 12, values and scalar types; the printed
    # noncrossing N has no x^0 term, and its root column is 1 for sure
    for formula_id in PRINTED_LAWS:
        first = closed.LIMIT_LAWS[formula_id]
        dense = _dense_columns(*_printed_law(formula_id, 12), 12, 30)
        for r in range(first, 13):
            for dmax in (0, 1, 3, 12, 30):
                got = limit_distribution(formula_id, r, dmax)
                want = [(deg, exact_int(p)) for deg, p in enumerate(dense[r][: dmax + 1])
                        if p]
                if formula_id == "noncrossing-node" and r == 0:
                    want = [(0, 1)]
                assert got == want, (formula_id, r, dmax)
                assert [type(p) for _, p in got] == [type(p) for _, p in want], \
                    (formula_id, r, dmax)


def _printed_mean_series(formula_id, rmax):
    """The mean series of the printed law: (N'D - power N D')/D^(power+1)
    at y = 1.  The printed up-step D vanishes at x = 0 once y = 1, so
    that quotient is worked two orders deep and cancels the common x^2."""
    pad = 2 if formula_id == "dyck-upstep" else 0
    n, d, power = _printed_law(formula_id, rmax + pad)
    n1, dn1 = ps_eval_y1(n), ps_diff_y1(n)
    d1, dd1 = ps_eval_y1(d), ps_diff_y1(d)
    numer = ps_sub(ps_mul(dn1, d1), ps_scale(ps_mul(n1, dd1), power))
    denom = ps_mul(d1, d1) if power == 1 else ps_mul(d1, ps_mul(d1, d1))
    mean = ps_mul(ps_shift(numer, -pad), ps_inv(ps_shift(denom, -pad)))
    return ps_retrunc(mean, Truncation(rmax, 0, 0))


def test_derived_mean_series_match_the_printed_laws():
    for formula_id in PRINTED_LAWS:
        for rmax in range(12):
            assert limit_mean_series(formula_id, rmax) == _coeffs(
                _printed_mean_series(formula_id, rmax), rmax), (formula_id, rmax)


def test_column_refuses_a_denominator_that_is_no_unit_in_y():
    # times y, D's x^0 cell has no y^0 entry left to divide by
    n, d, power, _ = closed._limit_law_data("binary-leaf", 2)
    with pytest.raises(ArithmeticError, match="not a unit in y"):
        closed._column(n, ps_mul_ypoly(d, [0, 1]), power, 1, [2], 5)


def test_harmonic_matches_the_plain_sum():
    plain = Fraction(0)
    for n in range(401):
        plain += Fraction(1, n) if n else 0
        got = harmonic(n)
        assert got == plain and type(got) is Fraction, n
    got = harmonic(2000)
    assert got == sum(Fraction(1, i) for i in range(1, 2001)) and type(got) is Fraction



def test_harmonic_pairs_match_fraction_sums():
    # every a, b <= 150 spans 0, each edge of a leaf run (31, 32, 33, 64,
    # 65, ...) and splits several levels deep; the increasing ids have one
    # form each, so cross_check cannot catch a fault in the shared split
    assert 150 > 4 * closed._RUN
    h = [Fraction(0)]
    for i in range(1, 151):
        h.append(h[-1] + Fraction(1, i))
    for a in range(151):
        for b in range(151):
            got = harmonic(a, b)
            assert got == h[a] + h[b] and type(got) is Fraction, (a, b)
            assert exact_average("increasing-leaf", a + b, a) == got, (a, b)
            if a and b:  # the internal-node form H(r+1) + H(n-r) - 2
                assert exact_average("increasing-internal", a + b - 1, a - 1) \
                    == got - 2, (a, b)


def _central_binomials(monkeypatch, call):
    """How many times call() forms comb(2n, n), n = 41, and its value."""
    calls = []
    comb = math.comb

    def counting(*args):
        calls.append(args)
        return comb(*args)

    monkeypatch.setattr(math, "comb", counting)
    value = call(41)
    return calls.count((82, 41)), value


@pytest.mark.parametrize("formula_id", ["binary-leaf", "binary-abscissa", "dyck-vertex",
                                        "dyck-upstep", "dyck-downstep"])
def test_catalan_averages_form_one_central_binomial(formula_id, monkeypatch):
    want = exact_average(formula_id, 41, 17)  # no position comb is comb(82, 41)
    got = _central_binomials(monkeypatch, lambda n: exact_average(formula_id, n, 17))
    assert got == (1, want)


@pytest.mark.parametrize("uniform_id", ["binary-leaf", "dyck-area", "dyck-upstep"])
def test_catalan_uniform_averages_form_one_central_binomial(uniform_id, monkeypatch):
    want = uniform_average(uniform_id, 41)
    got = _central_binomials(monkeypatch, lambda n: uniform_average(uniform_id, n))
    assert got == (1, want)


def test_schroeder_leaf_totals_are_mirror_symmetric():
    for n in range(1, 61):
        for r in range(n):
            assert exact_total("schroeder-leaf", n, r) \
                == exact_total("schroeder-leaf", n, n - 1 - r), (n, r)


# ------------------------------------------------------- limit mean series

def _xseries(nx):
    t = Truncation(nx, 0, 0)
    return t, ps_one(t), Series(t, {(1, 0, 0, 0): [1]})


def _coeffs(series, rmax):
    """The x^0..x^rmax coefficients of a series in x, 0 where it has no cell."""
    return [(ps_coeff(series, r) or [0])[0] for r in range(rmax + 1)]


def test_mean_series_binary():
    t, one, x = _xseries(9)
    inv_root3 = ps_mul(ps_inv(newton_sqrt(ps_sub(one, x))), ps_inv(ps_sub(one, x)))
    want = ps_sub(ps_scale(inv_root3, 4), ps_inv(ps_sub(one, x)))
    assert limit_mean_series("binary-leaf", 9) == _coeffs(want, 9)


def test_mean_series_vertex():
    t, one, x = _xseries(9)
    inv1 = ps_inv(ps_sub(one, x))
    root = newton_sqrt(ps_sub(one, ps_mul(x, x)))
    want = ps_sub(ps_mul(root, ps_mul(inv1, inv1)), inv1)
    assert limit_mean_series("dyck-vertex", 9) == _coeffs(want, 9)


def test_mean_series_steps():
    t, one, x = _xseries(9)
    inv1 = ps_inv(ps_sub(one, x))
    inv_root3 = ps_mul(ps_inv(newton_sqrt(ps_sub(one, x))), inv1)
    assert limit_mean_series("dyck-upstep", 9) == _coeffs(ps_scale(
        ps_sub(inv_root3, inv1), 2
    ), 9)
    assert limit_mean_series("dyck-downstep", 9) == _coeffs(ps_add(
        ps_mul(x, inv1), ps_scale(ps_mul(x, inv_root3), 2)
    ), 9)


def test_mean_series_noncrossing():
    nx = 9
    t, one, x = _xseries(nx)
    tsq = Series(
        t,
        cells={
            (k, 0, 0, 0): [ternary_edge(k) * Fraction(4, 27) ** k]
            for k in range(nx + 1)
        },
    )
    inv2 = ps_inv(ps_mul(ps_sub(one, x), ps_sub(one, x)))
    numer = ps_sub(ps_scale(x, 18), ps_scale(ps_mul(ps_mul(x, x), tsq), 8))
    want = ps_mul(ps_scale(numer, Fraction(1, 9)), inv2)
    assert limit_mean_series("noncrossing-node", nx) == _coeffs(want, nx)


def test_mean_series_schroeder_verbatim():
    nx = 8
    t, one, x = _xseries(nx)
    kernel = Series(t, {
        (0, 0, 0, 0): [1],
        (1, 0, 0, 0): [Quad2(-18, 12)],
        (2, 0, 0, 0): [Quad2(17, -12)],
    })
    den = ps_sub(ps_scale(one, 9), ps_scale(x, 4))
    inv2 = ps_inv(ps_mul(den, den))
    numer = ps_sub(ps_scale(newton_sqrt(kernel), RHO_INV), ps_sub(one, x))
    want = ps_mul(ps_scale(numer, 8), inv2)
    assert limit_mean_series("schroeder-leaf", nx) == _coeffs(want, nx)


def test_stored_schroeder_law_is_the_printed_law_in_w():
    # the printed law in x, with Newton's root of (1-x)(1-rho^2 x), has
    # rho^r times the columns of the stored law in w = rho x, whose D has
    # only integral cells
    n, d, power, rho = closed._limit_law_data("schroeder-leaf", 12)
    assert rho == RHO and power == 1
    assert all(isinstance(c, int) or (isinstance(c, Quad2) and c.a.denominator == 1
                                      and c.b.denominator == 1)
               for p in d.cells.values() for c in p)
    t, one = n.trunc, ps_one(n.trunc)
    x = Series(t, {(1, 0, 0, 0): [1]})
    kernel = ps_mul(ps_sub(one, x), ps_sub(one, ps_scale(x, RHO * RHO)))
    d_x = ps_add(
        ps_add(ps_mul_ypoly(one, [Quad2(9, 6), Quad2(-4, -12), Quad2(13, 6)]),
               ps_mul_ypoly(x, [-1, -2, -5])),
        ps_mul_ypoly(newton_sqrt(kernel), [RHO_INV, RHO_INV * 2, RHO_INV * (-3)]))
    in_w, in_x = _dense_columns(n, d, 1, 12, 20), _dense_columns(n, d_x, 1, 12, 20)
    for r in range(13):
        assert in_x[r] == yp_scale(in_w[r], RHO ** r), r


def test_mean_series_matches_fixed_r():
    for formula_id, start in (
        ("binary-leaf", 0), ("dyck-vertex", 0), ("dyck-upstep", 1),
        ("dyck-downstep", 1), ("noncrossing-node", 0),
    ):
        mean = limit_mean_series(formula_id, 7)
        assert len(mean) == 8 and mean[:start] == [0] * start, formula_id
        for r in range(start, 8):
            want = fixed_r_limit_average(formula_id, r)
            # one type rule: an int where integral, else a Fraction
            assert mean[r] == want and type(mean[r]) is type(exact_int(want)), \
                (formula_id, r)


# ------------------------------------------------------------- asymptotics

def test_asymptotic_regime():
    for formula_id, r in (
        ("binary-leaf", 250), ("dyck-vertex", 500), ("noncrossing-node", 250),
    ):
        exact = float(exact_average(formula_id, 500, r))
        approx = asymptotic_average(formula_id, 500, r)
        assert abs(exact / approx - 1) < 0.05, formula_id


def test_asymptotic_increasing():
    val = asymptotic_average("increasing-leaf", 1000, 300)
    want = 2 * math.log(1000) + math.log(0.3) + math.log(0.7)
    assert abs(val - want) < 1e-12
    exact = float(exact_average("increasing-leaf", 1000, 300))
    assert abs(exact - val) < 0.1 * exact
