import functools
import hashlib
import json
import math

import pytest

from combstat import gfcat, objects, series
from combstat.gfcat import (
    FAMILY_IDS,
    egf_cell_counts,
    gf_closed,
    gf_residual,
    gf_solve,
)
from combstat.series import (
    Series,
    Truncation,
    ps_add,
    ps_bmul,
    ps_coeff,
    ps_is_zero,
    ps_linear_solve,
    ps_monomial,
    ps_mul,
    ps_mul_ypoly,
    ps_one,
    ps_scale,
    ps_sub,
    ps_subst_scale,
    ps_to_json,
    solve_fixed_point,
)
from series_references import newton_sqrt, power_exp, ps_inv, ps_retrunc


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


# ----------------------------------------------------- frozen z^3 rows

def test_z3_row_binary():
    b = gf_closed("B", Truncation(3, 3, 3))
    assert ps_coeff(b, 3, 0) == [0, 2, 2, 1]
    assert ps_coeff(b, 3, 1) == [0, 0, 2, 3]
    assert ps_coeff(b, 3, 2) == [0, 0, 2, 3]
    assert ps_coeff(b, 3, 3) == [0, 2, 2, 1]


def test_z3_row_walk_heights():
    d = gf_closed("D", Truncation(3, 6, 3))
    row = [ps_coeff(d, 3, r) for r in range(7)]
    assert row == [[5], [0, 5], [2, 0, 3], [0, 4, 0, 1], [2, 0, 3], [0, 5], [5]]


def test_z3_row_plane():
    p = gf_closed("P", Truncation(3, 2, 3, nv=4))
    assert ps_coeff(p, 3, 0, 1) == [0, 0, 0, 1]
    assert ps_coeff(p, 3, 0, 2) == [0, 1, 2]
    assert ps_coeff(p, 3, 1, 2) == [0, 1, 2]
    for r in range(3):
        assert ps_coeff(p, 3, r, 3) == [0, 1]


def test_z3_row_increasing():
    i = gf_closed("I", Truncation(3, 3, 3))
    assert egf_cell_counts(i, 3, 0) == [0, 2, 3, 1]
    assert egf_cell_counts(i, 3, 1) == [0, 0, 3, 3]
    assert egf_cell_counts(i, 3, 2) == [0, 0, 3, 3]
    assert egf_cell_counts(i, 3, 3) == [0, 2, 3, 1]


# --------------------------------- closed form vs equation, residuals

TRUNCS = {
    "B": Truncation(6, 6, 6),
    "Babs": Truncation(5, 5, 5, u_range=5),
    "D": Truncation(6, 6, 6),
    "U": Truncation(6, 6, 6),
    "W": Truncation(6, 6, 6),
    "P": Truncation(5, 5, 5, nv=6),
    "A": Truncation(6, 6, 6),
    "G": Truncation(6, 6, 6),
    "I": Truncation(6, 6, 6),
    "J": Truncation(6, 6, 6),
}


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_closed_equals_equation_solution(family):
    t = TRUNCS[family]
    closed = gf_closed(family, t)
    solved = gf_solve(family, t)
    assert closed == solved


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_functional_equation_residual_vanishes(family):
    t = TRUNCS[family]
    assert ps_is_zero(gf_residual(family, gf_closed(family, t)))


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_functional_equation_residual_sees_a_bump(family):
    t = TRUNCS[family]
    bumped = ps_add(gf_closed(family, t), ps_monomial(t, (1, 0, 0, 0), [1]))
    assert not ps_is_zero(gf_residual(family, bumped))


@pytest.mark.parametrize("family", ["I", "J"])
def test_ode_residual_sees_the_initial_value(family):
    # the integral equation S = init + int(a0 + S*m) pins S at z = 0: for
    # I, whose ODE S' = S*m is homogeneous, 2I solves the ODE alone
    doubled = ps_scale(gf_closed(family, TRUNCS[family]), 2)
    assert not ps_is_zero(gf_residual(family, doubled))


ORDINARY = ["B", "Babs", "D", "U", "W", "P", "A", "G"]


@pytest.mark.parametrize("family", ORDINARY)
def test_ordinary_gf_cells_are_int(family):
    # every cell of an ordinary GF counts objects, so it is kept in int
    t = Truncation(8, 8, 8, nv=9 if family == "P" else 0,
                   u_range=8 if family == "Babs" else 0)
    for build in (gf_closed, gf_solve):
        cells = build(family, t).cells.values()
        assert all(type(c) is int for p in cells for c in p)


@pytest.mark.parametrize("family", ORDINARY)
def test_ordinary_equations_form_no_series_inverse(family, monkeypatch):
    # each ordinary equation is polynomial in its base series, so checking
    # a series against it solves nothing and solving it is one linear
    # solve.  The only reciprocal is a linear solve too, 1/(1 - m) being
    # the S of S = 1 + S*m: a closed form a0/(1 - m) takes one, and A's
    # printed form two, q = 1/(1 - zS) and 1/(1 + y(1 - R))
    s = gf_closed(family, TRUNCS[family])
    calls, solve = [], gfcat.ps_linear_solve
    monkeypatch.setattr(gfcat, "ps_linear_solve",
                        lambda *args: calls.append(args[0]) or solve(*args))
    gf_residual(family, s)
    assert calls == []
    gf_solve(family, s.trunc)
    assert len(calls) == 1
    calls.clear()
    assert gf_closed(family, s.trunc) == s
    assert calls == [ps_one(s.trunc)] * (2 if family == "A" else 1)


def test_factors_are_solved_one_at_a_time(monkeypatch):
    # P's m = zy r1 r2 has 443 cells at T(13), against 92 for each of r1
    # and r2: solving against the factors in turn visits fewer than half
    # the cell pairs of solving against m multiplied out
    t = Truncation(13, 13, 13, nv=14)
    a0, ms, _ = gfcat._system("P", t)
    m = functools.reduce(ps_mul, ms)
    kernel, visits = series._acc, []

    def counting(out, acells, bcells, box, pascal=None):
        acells = list(acells)
        visits.append(len(acells) * len(bcells))
        return kernel(out, acells, bcells, box, pascal)

    monkeypatch.setattr(series, "_acc", counting)
    chained = gf_solve("P", t)
    chain_visits = sum(visits)
    visits.clear()
    assert ps_linear_solve(a0, m) == chained
    assert len(m.cells) == 443 and chain_visits < sum(visits) / 2


@pytest.mark.parametrize("family", ["I", "J"])
def test_scaled_egf_cells_are_int(family, monkeypatch):
    # inside the I and J routes every series is n!-scaled, so its cells
    # count objects and are kept in int; only the boundary divides by n!
    seen = []
    for name in ("ps_bmul", "ps_shift", "ps_ode_solve", "ps_laplace"):
        op = getattr(gfcat, name)
        monkeypatch.setattr(gfcat, name, lambda *args, op=op: seen.extend(args) or op(*args))
    made, rising = [], gfcat._rising
    monkeypatch.setattr(gfcat, "_rising", lambda *args: made.append(rising(*args)) or made[-1])
    t = Truncation(8, 8, 8)
    for build in (gf_closed, gf_solve):
        build(family, t)
    scaled = [s for s in seen if isinstance(s, Series)] + made
    assert made and len(scaled) >= 3
    assert all(type(c) is int for s in scaled for p in s.cells.values() for c in p)


def _log(t, powx):
    """L(x^powx z) = -log(1 - x^powx z), n!-scaled: the z^k cell is (k-1)!."""
    return Series(t, {(k, powx * k, 0, 0): [math.factorial(k - 1)] for k in range(1, t.nz + 1)
                      if t.contains((k, powx * k, 0, 0))})


@pytest.mark.parametrize("p", [[0, 1], [1, -1]], ids=["y", "1-y"])
def test_rising_factorials_are_exp_of_p_log(p):
    # (1 - x^a z)^(-p) = exp(p L(x^a z)): n!-scaled, its z^k cell is the
    # rising factorial p(p+1)...(p+k-1), in int; I and J take the
    # product at a = 0 and a = 1
    for t in (Truncation(8, 8, 8), Truncation(9, 3, 4), Truncation(6, 6, 0)):
        factors = []
        for powx in (0, 1):
            got = gfcat._rising(t, powx, p)
            assert got == power_exp(ps_mul_ypoly(_log(t, powx), p)), (t, powx)
            assert all(type(c) is int for q in got.cells.values() for c in q)
            factors.append(got)
        both = ps_mul_ypoly(ps_add(_log(t, 0), _log(t, 1)), p)
        assert ps_bmul(*factors) == power_exp(both) == gfcat._exp_logs(t, p), t


def _walk_heights_printed(t):
    """D's printed form C(z)C(x^2 z)/(1 - xyzC(z)C(x^2 z)).  gf_closed
    solves D's equation instead, which is 2-3 times faster."""
    c = solve_fixed_point("catalan", t)
    cc = ps_mul(c, ps_subst_scale(c, t, {"z": (1, (1, 2, 0, 0))}))
    xyz = ps_monomial(t, (1, 1, 0, 0), [0, 1])
    return ps_mul(cc, ps_inv(ps_sub(ps_one(t), ps_mul(xyz, cc))))


def _plane_leaves_printed(t):
    """P's printed form, S = v + S*yz/((1 - zN(z, xv))(1 - zN)) solved.
    P's equation writes 1/(1 - zN) as N + 1 - v and its x-marked copy as
    N(z, xv) + 1 - xv; this keeps both identities checked."""
    nar = solve_fixed_point("narayana", t)
    narx = ps_subst_scale(nar, t, {"v": (1, (0, 1, 1, 0))})
    z, one = ps_monomial(t, (1, 0, 0, 0), [1]), ps_one(t)
    r = ps_mul(ps_inv(ps_sub(one, ps_mul(z, narx))), ps_inv(ps_sub(one, ps_mul(z, nar))))
    yz = ps_monomial(t, (1, 0, 0, 0), [0, 1])
    return ps_mul(ps_monomial(t, (0, 0, 1, 0), [1]), ps_inv(ps_sub(one, ps_mul(yz, r))))


def _binary_leaves_printed(t):
    """B's printed form 2/(2 - 2y + y sqrt(1 - 4z) + y sqrt(1 - 4xz)),
    with Newton's square root; gf_closed solves B's equation, which is
    the same form with sqrt(1 - 4z) = 1 - 2zC(z)."""
    one = ps_one(t)
    root = newton_sqrt(ps_sub(one, ps_monomial(t, (1, 0, 0, 0), [4])))
    roots = ps_add(root, ps_subst_scale(root, t, {"z": (1, (1, 1, 0, 0))}))
    den = ps_add(ps_mul_ypoly(one, [2, -2]), ps_mul_ypoly(roots, [0, 1]))
    return ps_mul_ypoly(ps_inv(den), [2])


def _noncrossing_depths_cubic(t):
    """G's equation with a0 = T - yzT^3 T(xz), solved: gf_closed takes the
    printed numerator T + y(1 - T)T(xz), which T = 1 + zT^3 makes equal."""
    tt = solve_fixed_point("ternary", t)
    ttx = ps_subst_scale(tt, t, {"z": (1, (1, 1, 0, 0))})
    yz, one = ps_monomial(t, (1, 0, 0, 0), [0, 1]), ps_one(t)
    a0 = ps_sub(tt, ps_mul(yz, ps_mul(ps_mul(tt, ps_mul(tt, tt)), ttx)))
    wings = ps_add(tt, ps_mul(ps_monomial(t, (0, 1, 0, 0), [1]), ttx))
    m = ps_mul(yz, ps_mul(ps_mul(tt, ttx), wings))
    return ps_mul(a0, ps_inv(ps_sub(one, m)))


def _upstep_heights_printed(t):
    """U's printed form xyzC^2 C(xz)/(1 - xyzC C(xz)).  gf_closed solves
    U's equation instead, which is at least twice as fast."""
    c = solve_fixed_point("catalan", t)
    ccx = ps_mul(c, ps_subst_scale(c, t, {"z": (1, (1, 1, 0, 0))}))
    xyz = ps_monomial(t, (1, 1, 0, 0), [0, 1])
    return ps_mul(ps_mul(xyz, ps_mul(c, ccx)), ps_inv(ps_sub(ps_one(t), ps_mul(xyz, ccx))))


# second closed forms, kept as references for gf_closed
PRINTED = {"B": _binary_leaves_printed, "D": _walk_heights_printed,
           "U": _upstep_heights_printed, "P": _plane_leaves_printed,
           "G": _noncrossing_depths_cubic}


@pytest.mark.parametrize("family", sorted(PRINTED))
def test_alternate_closed_forms_agree(family):
    thin = Truncation(4, 9, 3, nv=3 if family == "P" else 0)
    for t in (TRUNCS[family], thin):
        assert gf_closed(family, t) == PRINTED[family](t)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        gf_closed("Q", Truncation(3, 3, 3))
    with pytest.raises(ValueError):
        gf_closed("P", Truncation(3, 3, 3))  # nv missing
    with pytest.raises(ValueError):
        gf_closed("Babs", Truncation(3, 3, 3))  # u_range missing
    for build in (gf_closed, gf_solve):
        with pytest.raises(ValueError):
            build("Babs", Truncation(5, 5, 5, u_range=1))  # u_range < nz


def box(family, nz, nx, ny):
    """The (nz, nx, ny) box, with nv = nz + 1 for P and u_range = nz for Babs."""
    return Truncation(nz, nx, ny, nv=nz + 1 if family == "P" else 0,
                      u_range=nz if family == "Babs" else 0)


@pytest.mark.parametrize("family", FAMILY_IDS)
def test_small_boxes_clip(family):
    # a box too small for a monomial of the equation drops it, so the
    # build is the cut-down of a larger one
    for build in (gf_closed, gf_solve):
        big = build(family, box(family, 5, 5, 5))
        for nx in (0, 1):
            small = box(family, 3, nx, 2)
            assert build(family, small) == ps_retrunc(big, small)


# sha256 of json.dumps(ps_to_json(s), sort_keys=True) at box(family, ...);
# "small" hashes the builds at nz 0-5, nx {0, 1, 3}, ny {0, 2, 5} in that
# order.  I and J were recorded at commit 38690cb while they were still
# built in Fraction cells, the seven ordinary systems at commit 7192411
# while their algebraic bases were still solved by plain iteration, and W
# at commit 691e354, while _system still returned a tuple of factors.  The
# test keeps its first name, under which the I and J cases were recorded.
EGF_DIGESTS = {
    ("B", (13, 13, 12)): "9480d3da09d101143c5b7e9906a9637a5b7ec9251706f6cba78cdb71892cecc7",
    ("B", (20, 20, 19)): "91b4c449f85fd7fad577a26db4cf7ad17cf5c68ba14b27193a86a80397f22aa8",
    ("B", "small"): "a5a37808c526c92251e430fd80aca6a86695d72a96bdc761aba625e6a8b9829b",
    ("Babs", (13, 13, 12)): "081ec2575092410313d11e7c9fedecc8451250b2197fee22e957cf422379ed7e",
    ("Babs", (20, 20, 19)): "36179ef45b7093da5dc5f2e9f331a51deaafbd837202f053dbf756be823c3fc0",
    ("Babs", "small"): "bdc79fea715d0398c77ccfdc8e1765d64cb4d7abe1a78f65bb71824f2ea211b4",
    ("D", (13, 13, 12)): "31619bbc33c662eb4c711d6910bacc79ac78371b2a7f837fa1948a78a2f283c9",
    ("D", (20, 20, 19)): "206942bbdd413f8b8add59efa17533daf8a2552f5b1a080c49def3d43cbd7e27",
    ("D", "small"): "b25c9ccfd6bc9adec78b73bdbb64977e1498e5a21079082318fae3a2e481f139",
    ("U", (13, 13, 12)): "a0aab587326561d869c831fa08a7f044f2321ab75886f6d1d4eaa2f7b36477ce",
    ("U", (20, 20, 19)): "f86e29e099b44a81acc7f546547eb2afee9bc6935ead9fdf84270431d05a3e6d",
    ("U", "small"): "0e574c94ef733fe01fb36749fd3ded45c1c595ab1a78e8665e35a34926647bda",
    ("W", (13, 13, 12)): "578fbb73accd23897ec8fa47074c602f0a056208243b214555293f35a8de9ae3",
    ("W", (20, 20, 19)): "f5211a657cd72314a13539223d7c50c43d65fdd32284152fac350ac77ed9775e",
    ("W", "small"): "c9eddce182a92e08874e63167997a110ab75b18b7485c29b96edaf08bacd7b43",
    ("P", (13, 13, 12)): "d669d66388706273bb49473904c6be0e09e10868828cf87f78241bde07620d0b",
    ("P", (20, 20, 19)): "df562c94eccd8dabf4b3d0cbdfe95b26a79d98f5df7b01040f11cf3fedade2e8",
    ("P", "small"): "92030aa835aae6fa6655a1eb11dfa5db6996a5c08a095e046f6fb21a7da80398",
    ("A", (13, 13, 12)): "eb732d0c820548040769420028432c6f7a2f289996a52f45ea657726d96a7ec9",
    ("A", (20, 20, 19)): "64d438be3d1c191c1904fb1a3d77e47f2284bc06198c8d1aa4bd04ead946b33f",
    ("A", "small"): "bf69b8b6e3c2789d5b35090800e2f06c2c84302be097d774c42d13b5bae445e6",
    ("G", (13, 13, 12)): "b1c33f3250cd4f57169fa4c5825422a85932b4d2fb01744105c9387f77150d3f",
    ("G", (20, 20, 19)): "0ea011b35925eaa66e143c92248818d14177961e55fc322bbb4adc01b954c673",
    ("G", "small"): "e6b997d59e943f008e6531d10552da7223b6bdb8eab931fa28252b17b447bde1",
    ("I", (13, 13, 12)): "bda3518b1cf5b04990abea8cd9f73f832415c9ca96697aa96b1e51d4b4da7968",
    ("I", (20, 20, 19)): "4c3b6c284c77da276862b252b5e9f88b92192db3fc9716b0fdf3b0db167cffee",
    ("I", "small"): "fa0b113b8ea73048ecc1a9aa3270e2e39ab06d0e4c16527622ae9e2ec26a80f1",
    ("J", (13, 13, 12)): "478d31f3ba056b501bdd13d1e6b7123c4513bd84d0a2348cfcf9c2b3e7bdcab6",
    ("J", (20, 20, 19)): "1d3a0dfb1a86dd40a2065399506d694c0f9b6eeecc2263cb837148e1bad7108d",
    ("J", "small"): "1fdb292cf6cc5490e8157e86d151dcb606a500256c142b4fe51ab60179fd61c2",
}


@pytest.mark.parametrize("family,box_id", list(EGF_DIGESTS),
                         ids=["%s-%s" % (f, b if b == "small" else b[0]) for f, b in EGF_DIGESTS])
def test_egf_builds_match_recorded_digests(family, box_id):
    boxes = [box_id] if box_id != "small" else [
        (nz, nx, ny) for nz in range(6) for nx in (0, 1, 3) for ny in (0, 2, 5)]
    for build in (gf_closed, gf_solve):
        h = hashlib.sha256()
        for b in boxes:
            doc = ps_to_json(build(family, box(family, *b)))
            h.update(json.dumps(doc, sort_keys=True).encode())
        assert h.hexdigest() == EGF_DIGESTS[family, box_id]


# ----------------------------------------------------- structure facts

def test_walk_height_symmetry():
    # reversing a walk sends lattice point r to 2n-r
    t = Truncation(6, 12, 6)
    d = gf_closed("D", t)
    for n in range(7):
        for r in range(2 * n + 1):
            assert ps_coeff(d, n, r) == ps_coeff(d, n, 2 * n - r)


def test_downstep_series_is_the_upstep_series_reflected():
    # reversing a walk makes down-step r up-step n+1-r: W = x U(xz, 1/x)
    t = Truncation(12, 12, 12)
    up = gf_closed("U", t).cells
    assert gf_closed("W", t).cells == {
        (n, n + 1 - r, v, u): p for (n, r, v, u), p in up.items()}


def test_column_totals_match_counts():
    t = Truncation(6, 6, 6)
    u = gf_closed("U", t)
    a = gf_closed("A", t)
    g = gf_closed("G", t)
    tern = solve_fixed_point("ternary", Truncation(6, 0, 0))
    for n in range(1, 7):
        for r in range(1, n + 1):
            assert sum(ps_coeff(u, n, r)) == catalan(n)
    small_schroeder = [1, 1, 3, 11, 45, 197, 903]
    for n in range(7):
        for r in range(n + 1):
            assert sum(ps_coeff(a, n, r)) == small_schroeder[n]
    for n in range(7):
        t_n = ps_coeff(tern, n, 0)[0]
        # vertex 0 is the root: depth 0 with full mass
        assert ps_coeff(g, n, 0) == [t_n]
        for r in range(n + 1):
            assert sum(ps_coeff(g, n, r)) == t_n


def test_leftmost_leaf_specializations():
    # both B(0,y,z) and P(1,0,y,z) collapse to the depth of the first
    # leaf: 1/(1 - yzC(z))
    t = Truncation(6, 6, 6)
    c = solve_fixed_point("catalan", t)
    chain = ps_inv(ps_sub(ps_one(t), ps_mul(ps_monomial(t, (1, 0, 0, 0), [0, 1]), c)))

    b = gf_closed("B", t)
    b0 = ps_subst_scale(b, t, {"x": (0, (0, 1, 0, 0))})
    assert b0 == chain

    tp = Truncation(6, 6, 6, nv=7)
    p = gf_closed("P", tp)
    p0 = ps_subst_scale(
        ps_subst_scale(p, tp, {"v": (1, (0, 0, 0, 0))}), t, {"x": (0, (0, 1, 0, 0))}
    )
    assert p0 == chain


# ------------------------------------------- agreement with enumeration

ORACLE_CASES = [
    ("binary", "leaf-depth", 4, 0, None),
    ("binary", "leaf-depth", 4, 2, None),
    ("binary", "leaf-abscissa", 4, 1, None),
    ("binary", "leaf-abscissa", 3, 3, None),
    ("plane", "leaf-depth", 4, 1, 2),
    ("plane", "node-depth", 4, 2, None),
    ("plane", "node-depth", 4, 0, None),
    ("dyck", "vertex-height", 4, 3, None),
    ("dyck", "upstep-height", 4, 2, None),
    ("dyck", "downstep-height", 4, 2, None),
    ("schroeder", "leaf-depth", 4, 1, None),
    ("noncrossing", "node-depth", 4, 2, None),
    ("increasing", "leaf-depth", 4, 2, None),
    ("increasing", "internal-depth", 4, 1, None),
    ("triangulation", "separating-diagonals", 3, 0, None),
    ("triangulation", "separating-diagonals", 0, 0, None),
    ("dissection", "separating-diagonals", 2, 1, None),
    ("dissection", "separating-diagonals", 0, 0, None),
]


@pytest.mark.parametrize("family,statistic,n,r,k", ORACLE_CASES)
def test_distribution_matches_enumeration(family, statistic, n, r, k):
    got_counts, got_total = gfcat.columns_via_gf(family, statistic, n, [r], k)[r]
    want_counts, want_total = objects.distribution(family, statistic, n, r, k=k)
    assert got_total == want_total
    assert dict(want_counts) == got_counts


@pytest.mark.parametrize("family,statistic", list(objects.STATISTICS))
def test_sweep_matches_single_reads(family, statistic, monkeypatch):
    n = 4
    entry = objects.STATISTICS[family, statistic]
    k = 2 if entry.leaf_counts else None
    rs = list(objects.positions(family, statistic, n, k))
    # one build of the series that is read, whichever of the two it is
    builds = []
    for name in ("gf_closed", "gf_solve"):
        build = getattr(gfcat, name)
        monkeypatch.setattr(gfcat, name, lambda fam, t, build=build:
                            builds.append(fam) or build(fam, t))
    swept = gfcat.columns_via_gf(family, statistic, n, rs, k)
    assert builds == [entry.gf]
    monkeypatch.undo()
    walked = objects.distribution_columns(family, statistic, n, rs, k)
    for r in rs:
        assert swept[r] == gfcat.columns_via_gf(family, statistic, n, [r], k)[r]
        assert walked[r] == objects.distribution(family, statistic, n, r, k=k)
        assert dict(walked[r][0]) == swept[r][0]


@pytest.mark.parametrize("family,statistic", list(objects.STATISTICS))
def test_derived_box_loses_nothing(family, statistic, monkeypatch):
    # a box bigger in every bound reads the same columns, so gf_box cut
    # no cell a read-off needs
    entry = objects.STATISTICS[family, statistic]
    cases = [(n, k) for n in range(objects.FAMILIES[family].min_n, 7)
             for k in (entry.leaf_counts(n) if entry.leaf_counts else [None])]

    def sweep():
        return [gfcat.columns_via_gf(family, statistic, n,
                                     objects.positions(family, statistic, n, k), k)
                for n, k in cases]

    derived = sweep()
    box = gfcat.gf_box

    def bigger(fam, nz, nx, nv=0):
        t = box(fam, nz, nx, nv)
        return Truncation(t.nz, t.nx + 1, t.ny + 2, t.nv + 1, t.u_range + 2)

    monkeypatch.setattr(gfcat, "gf_box", bigger)
    assert sweep() == derived


def test_columns_via_gf_range_errors():
    with pytest.raises(ValueError):
        gfcat.columns_via_gf("binary", "leaf-depth", 3, [4])
    with pytest.raises(ValueError):
        gfcat.columns_via_gf("dyck", "upstep-height", 3, [0])
    with pytest.raises(ValueError):
        gfcat.columns_via_gf("plane", "leaf-depth", 3, [0])  # k missing
    with pytest.raises(ValueError):
        gfcat.columns_via_gf("binary", "node-depth", 3, [0])
