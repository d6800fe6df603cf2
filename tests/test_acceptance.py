"""End-to-end acceptance run.

One test per numbered criterion; each prints a single
``CRITERION n: PASS -- ...`` line (shown with ``pytest -s``, or in the
failure report otherwise) and enforces its own time budget.  A failed
assert IS the criterion's FAIL line.
"""

import time
from fractions import Fraction

from combstat import closed, gfcat, objects, verify
from combstat.exact import RHO, Quad2
from combstat.series import Truncation, ps_coeff, ps_is_zero

RT2 = Quad2(0, 1)


def _report(num, detail, t0, budget):
    dt = time.monotonic() - t0
    assert dt < budget, "criterion %d overran %ds (%.1fs)" % (num, budget, dt)
    print("CRITERION %d: PASS -- %s (%.1fs)" % (num, detail, dt))


TABLE2 = {
    "binary-leaf": [Fraction(3), Fraction(5), Fraction(13, 2), Fraction(31, 4),
                    Fraction(283, 32), Fraction(629, 64), Fraction(2747, 256),
                    Fraction(5923, 512)],
    "dyck-vertex": [Fraction(0), Fraction(1), Fraction(3, 2), Fraction(2),
                    Fraction(19, 8), Fraction(11, 4), Fraction(49, 16),
                    Fraction(27, 8)],
    "dyck-upstep": [None, Fraction(1), Fraction(7, 4), Fraction(19, 8),
                    Fraction(187, 64), Fraction(437, 128), Fraction(1979, 512),
                    Fraction(4387, 1024)],
    "dyck-downstep": [None, Fraction(3), Fraction(4), Fraction(19, 4),
                      Fraction(43, 8), Fraction(379, 64), Fraction(821, 128),
                      Fraction(3515, 512)],
    "schroeder-leaf": [Quad2(1, 1), Quad2(1, 2), Quad2(-5, 7), Quad2(-113, 84),
                       Quad2(-2399, 1701), Quad2(-56615, 40038),
                       Quad2(-1435853, 1015307), Quad2(-38214497, 27021736)],
    "noncrossing-node": [Fraction(0), Fraction(2), Fraction(28, 9),
                         Fraction(962, 243), Fraction(30640, 6561),
                         Fraction(312634, 59049), Fraction(28017284, 4782969),
                         Fraction(823239002, 129140163)],
}


def test_criterion_01_limit_average_table():
    """All 48 fixed-r limit cells, exactly.  The schroeder r = 5 cell is
    the one whose tabulated form carries a sign typo; the value asserted
    here is the one both algebraic shapes (and the finite-n averages)
    agree on."""
    t0 = time.monotonic()
    for fid, row in TABLE2.items():
        for r, want in enumerate(row):
            if want is None:
                continue
            assert closed.fixed_r_limit_average(fid, r) == want, (fid, r)
    assert closed.fixed_r_limit_average("schroeder-leaf", 5) == Quad2(-56615, 40038)
    _report(1, "48 limit-average cells exact (schroeder r=5 sign watch held)",
            t0, 5)


TRIPLE_SWEEPS = [
    ("binary", "leaf-depth", range(11), lambda n: range(n + 1)),
    ("binary", "leaf-abscissa", range(11), lambda n: range(n + 1)),
    ("plane", "node-depth", range(11), lambda n: range(n + 1)),
    ("dyck", "vertex-height", range(11), lambda n: range(2 * n + 1)),
    ("dyck", "upstep-height", range(1, 11), lambda n: range(1, n + 1)),
    ("dyck", "downstep-height", range(1, 11), lambda n: range(1, n + 1)),
    ("schroeder", "leaf-depth", range(1, 10), lambda n: range(n)),
    ("noncrossing", "node-depth", range(8), lambda n: range(n + 1)),
    ("increasing", "leaf-depth", range(8), lambda n: range(n + 1)),
    ("increasing", "internal-depth", range(1, 8), lambda n: range(n)),
    ("triangulation", "separating-diagonals", range(10), lambda n: range(n + 1)),
    ("dissection", "separating-diagonals", range(9), lambda n: range(n + 1)),
]


def test_criterion_02_triple_agreement():
    """Closed form == fixed-point solution (residual zero) at truncation
    20, and generating-function coefficients == exhaustive enumeration
    for every statistic over the stated ranges."""
    t0 = time.monotonic()

    t20 = Truncation(20, 20, 20)
    special = {"P": Truncation(20, 20, 20, nv=21),
               "Babs": Truncation(20, 20, 20, u_range=20)}
    for fam in gfcat.FAMILY_IDS:
        tt = special.get(fam, t20)
        s = gfcat.gf_closed(fam, tt)
        assert ps_is_zero(gfcat.gf_residual(fam, s)), fam
        assert s == gfcat.gf_solve(fam, tt), fam

    # each size is read once by each route: one GF build, one walk
    sweeps = [(family, statistic, n, list(positions(n)), None)
              for family, statistic, sizes, positions in TRIPLE_SWEEPS for n in sizes]
    sweeps += [("plane", "leaf-depth", n, list(range(k)), k) for n in range(8)
               for k in range(1, max(n, 1) + 1)]  # no plane tree has more leaves than edges
    cols = 0
    for family, statistic, n, rs, k in sweeps:
        got = gfcat.columns_via_gf(family, statistic, n, rs, k)
        want = objects.distribution_columns(family, statistic, n, rs, k)
        for r in rs:
            assert dict(got[r][0]) == dict(want[r][0]) and got[r][1] == want[r][1], (
                family, statistic, n, k, r)
            cols += 1
    _report(2, "%d systems residual-zero and closed==solved at truncation 20; "
            "%d distribution columns match enumeration" % (len(gfcat.FAMILY_IDS), cols),
            t0, 600)


def test_criterion_03_size20_averages():
    t0 = time.monotonic()
    binary = [Fraction(30, 11), Fraction(49, 11), Fraction(807, 143),
              Fraction(34609, 5291), Fraction(38314, 5291), Fraction(41221, 5291),
              Fraction(103663, 12617), Fraction(3122507, 365893),
              Fraction(3203257, 365893), Fraction(9752537, 1097679),
              Fraction(34150511, 3825245)]
    for r, want in enumerate(binary):
        assert closed.exact_average("binary-leaf", 20, r) == want
        assert closed.exact_average("binary-leaf", 20, 20 - r) == want
    for r, want in ((2, Fraction(19, 13)), (10, Fraction(580171, 164021)),
                    (20, Fraction(48200453, 11475735))):
        assert closed.exact_average("dyck-vertex", 20, r) == want
        assert closed.exact_average("dyck-vertex", 20, 40 - r) == want
    for r, want in ((1, Fraction(1)), (2, Fraction(45, 26)),
                    (3, Fraction(1114, 481)), (20, Fraction(30, 11))):
        assert closed.exact_average("dyck-upstep", 20, r) == want
    incr = {0: Fraction(55835135, 15519504), 1: Fraction(352893319, 77597520),
            2: Fraction(20400421, 4084080), 3: Fraction(64604663, 12252240),
            4: Fraction(3938059, 720720), 5: Fraction(2018579, 360360),
            10: Fraction(7381, 1260)}
    for r, want in incr.items():
        assert closed.exact_average("increasing-leaf", 20, r) == want
        assert closed.exact_average("increasing-leaf", 20, 20 - r) == want
    _report(3, "size-20 averages match the plotted exact values", t0, 60)


def test_criterion_04_limit_law_spots():
    t0 = time.monotonic()
    col = dict(closed.limit_distribution("binary-leaf", 0, 20))
    assert all(col[d] == Fraction(d, 2 ** (d + 1)) for d in range(1, 21))
    assert closed.limit_distribution("dyck-upstep", 2, 5) == [
        (1, Fraction(1, 4)), (2, Fraction(3, 4))]
    down = dict(closed.limit_distribution("dyck-downstep", 1, 20))
    assert down == col
    nc = dict(closed.limit_distribution("noncrossing-node", 1, 12))
    assert all(nc[d] == Fraction(4 * d, 3 ** (d + 1)) for d in range(1, 13))
    _report(4, "limit-law columns: binary r=0 (d<=20), up-step r=2, "
            "down-step r=1, noncrossing r=1", t0, 60)


def test_criterion_05_limit_gf_means():
    """d/dy at y=1 of each limit law reproduces the fixed-r averages,
    with zero tolerance.  The schroeder check is the r = 0 law summed in
    closed form inside Q(sqrt 2)."""
    t0 = time.monotonic()
    for fid, start in (("binary-leaf", 0), ("dyck-vertex", 0),
                       ("dyck-upstep", 1), ("dyck-downstep", 1),
                       ("noncrossing-node", 0)):
        mean = closed.limit_mean_series(fid, 7)
        for r in range(start, 8):
            assert mean[r] == closed.fixed_r_limit_average(fid, r), (fid, r)
    # sum d * 2*rho*d*tau^(d-1) = 2*rho*(1+tau)/(1-tau)^3 with tau = rt2-1
    law_mean = RHO * 2 * RT2 * (Quad2(2, -1) ** 3).inv()
    assert law_mean == closed.fixed_r_limit_average("schroeder-leaf", 0) == Quad2(1, 1)
    _report(5, "limit-law y-derivatives equal the fixed-r averages "
            "(5 families r<=7, schroeder r=0 law)", t0, 60)


def test_criterion_06_identity_suites():
    t0 = time.monotonic()
    for n in range(31):
        assert closed.catalan_number(n + 1) == sum(
            closed.catalan_number(i) * closed.catalan_number(n - i)
            for i in range(n + 1))
    rows = verify.run("identities", 25)
    bad = [r for r in rows if r.status != "PASS"]
    assert not bad, bad
    _report(6, "convolutions to n=30, %d identity rows all PASS" % len(rows),
            t0, 60)


def test_criterion_07_bijections():
    t0 = time.monotonic()
    rows = verify.run("bijections", 9)
    bad = [r for r in rows if r.status != "PASS"]
    assert not bad, bad
    _report(7, "%d round-trip and transport rows all PASS (sizes <= 9)"
            % len(rows), t0, 300)


def test_criterion_08_finite_n_convergence():
    """Finite-n depth probabilities approach the limit columns: the
    max-abs deviation over d <= 5 shrinks monotonically through
    n = 25, 50, 100 and ends below 0.05."""
    t0 = time.monotonic()
    systems = (("B", "binary-leaf", range(4), closed.catalan_number),
               ("U", "dyck-upstep", range(1, 4), closed.catalan_number))
    for fam, fid, rs, count in systems:
        series = gfcat.gf_closed(fam, Truncation(100, 3, 6))
        for r in rs:
            lim = dict(closed.limit_distribution(fid, r, 5))
            devs = []
            for n in (25, 50, 100):
                cell = ps_coeff(series, n, r)
                total = count(n)
                dev = max(
                    abs(Fraction(cell[d] if d < len(cell) else 0, total)
                        - lim.get(d, Fraction(0)))
                    for d in range(1, 6))
                devs.append(dev)
            assert devs[0] >= devs[1] >= devs[2], (fid, r, devs)
            assert devs[2] <= Fraction(5, 100), (fid, r, devs[2])
    _report(8, "binary and up-step columns (r<=3, d<=5) converge "
            "monotonically, within 0.05 at n=100", t0, 600)


def test_criterion_09_schroeder_discrepancy_protocol():
    """The two stated schroeder limit laws cannot both be right, and the
    resolution is reported as a WARN rather than hidden: (a) they
    disagree exactly from d = 2 on; (b) the bivariate form's column is
    far from the empirical n = 60 column (max-abs 0.18, its mass is only
    4/9); (c) the r = 0 law and the exact averages agree with the
    empirical data.  (b) fails exactly where (c) succeeds, which is what
    singles out the r = 0 law as the usable one."""
    t0 = time.monotonic()
    law = dict(closed.limit_distribution("schroeder-leaf", 0, 16))
    verb = dict(closed.limit_distribution("schroeder-leaf", 0, 16,
                                          variant="verbatim"))
    # (a) exact disagreement, same leading value
    assert verb[1] == law[1] == Quad2(6, -4)
    assert verb[2] != law[2]

    a = gfcat.gf_closed("A", Truncation(60, 0, 16))
    cell = ps_coeff(a, 60, 0)
    total = closed.little_schroeder(60)
    emp = {d: Fraction(c, total) for d, c in enumerate(cell) if c}
    dev_verb = max(abs(float(emp.get(d, 0)) - float(verb[d]))
                   for d in range(1, 17))
    dev_law = max(abs(float(emp.get(d, 0)) - float(law[d]))
                  for d in range(1, 17))
    # (b) MISMATCH for the bivariate column, (c) AGREE for the r0 law
    assert dev_verb > 0.05, dev_verb
    assert dev_law <= 0.05, dev_law
    emp_mean = closed.exact_average("schroeder-leaf", 61, 0)
    lim_mean = closed.fixed_r_limit_average("schroeder-leaf", 0)
    assert abs(float(emp_mean) / float(lim_mean) - 1) < 0.05
    _report(9, "WARN held, not FAIL: (a) laws split exactly at d=2; "
            "(b) bivariate vs empirical n=60 MISMATCH (max-abs %.3f); "
            "(c) r0 law vs empirical AGREE (max-abs %.4f, means within 5%%)"
            % (dev_verb, dev_law), t0, 300)


def test_criterion_10_asymptotic_regime():
    t0 = time.monotonic()
    probes = (("binary-leaf", lambda n: n // 2),
              ("dyck-vertex", lambda n: n),
              ("noncrossing-node", lambda n: n // 2))
    for fid, pos in probes:
        devs = []
        for n in (250, 500, 1000):
            r = pos(n)
            exact = float(closed.exact_average(fid, n, r))
            approx = closed.asymptotic_average(fid, n, r)
            devs.append(abs(exact / approx - 1))
        assert devs[0] > devs[1] > devs[2], (fid, devs)
        assert devs[2] < 0.05, (fid, devs[2])
    _report(10, "relative error of the growing-r asymptotics shrinks "
            "through n=250,500,1000 and ends under 5%", t0, 60)
