"""Cross-checking suites: each result recomputed by a second route.

``run(suite, max_n)`` returns one ``Row`` per check.  None of this runs
on the path that serves a result, and no check relies on ``assert``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import closed, gfcat, maps, objects, series
from .exact import Quad2, render_scalar
from .series import Truncation, ps_coeff, ps_inv, ps_is_zero, ps_monomial, ps_one, ps_shift

STATUSES = ("PASS", "WARN", "FAIL")


@dataclass(frozen=True)
class Row:
    """One check: what it checked, on which family (or formula id), up to
    which size or position, and how it came out."""

    check_id: str
    family: str
    n_or_r: int
    status: str
    counterexample: dict | None = None

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError("a row's status is one of %s, not %r"
                             % (STATUSES, self.status))

    @classmethod
    def check(cls, check_id, family, n_or_r, ok=True, counterexample=None):
        """PASS when ``ok`` holds and no counterexample was found, else FAIL."""
        failed = not ok or counterexample is not None
        return cls(check_id, family, n_or_r, "FAIL" if failed else "PASS", counterexample)


def _convolution(f, m):
    """The sum of f(i)·f(m - i) over 0 <= i <= m; 0 when m < 0."""
    return sum(f(i) * f(m - i) for i in range(m + 1))


def _identities(max_n):
    rows = []
    n_cap = min(max_n, 25)
    cat, sch, ter = closed.catalan_number, closed.little_schroeder, closed.ternary_edge
    for n in range(n_cap + 1):
        rows.append(Row.check("catalan-convolution", "binary", n,
                              cat(n + 1) == _convolution(cat, n)))
        rows.append(Row.check("schroeder-convolution", "schroeder", n,
                              2 * _convolution(sch, n) == sch(n + 1) + sch(n)))
        rows.append(Row.check("ternary-edge-convolution", "noncrossing", n,
                              ter(n) - closed.ternary_count(n) == _convolution(ter, n - 1)))

    # the served closed forms compute one printed form each; cross_check
    # evaluates every other form (and special value) against it
    for fid, (family, statistic) in sorted(closed.AVG_IDS.items()):
        bad = None
        try:
            for n in range(1, n_cap + 1):
                for r in objects.positions(family, statistic, n):
                    closed.cross_check(fid, n, r)
        except closed.ClosedFormMismatch:
            bad = {"n": n, "r": r}
        rows.append(Row.check("closed-form-multiform", fid, n_cap, counterexample=bad))

    for r in range(1, 13):
        ok = closed.fixed_r_limit_average("dyck-downstep", r + 1) \
            - closed.fixed_r_limit_average("dyck-upstep", r) == 3
        rows.append(Row.check("downstep-upstep-offset", "dyck", r, ok))
    return rows


def _limits(max_n):
    """Fixed positions and depths: the limit laws have no size to cap."""
    rows = []
    for fid, start in closed.LIMIT_LAWS.items():
        if fid == "schroeder-leaf":
            continue  # its bivariate form does not normalize: the WARN row below
        mean = closed.limit_mean_series(fid, 7)
        bad = next(({"r": r, "series": render_scalar(mean[r])} for r in range(start, 8)
                    if mean[r] != closed.fixed_r_limit_average(fid, r)), None)
        rows.append(Row.check("limit-gf-mean-vs-closed", fid, 7, counterexample=bad))

    col = dict(closed.limit_distribution("binary-leaf", 0, 20))
    ok = all(col[d] == Fraction(d, 2 ** (d + 1)) for d in range(1, 21))
    rows.append(Row.check("binary-r0-column", "binary-leaf", 0, ok))

    ok = closed.limit_distribution("dyck-upstep", 2, 4) == [
        (1, Fraction(1, 4)), (2, Fraction(3, 4))]
    rows.append(Row.check("upstep-r2-column", "dyck-upstep", 2, ok))

    col = dict(closed.limit_distribution("noncrossing-node", 1, 12))
    ok = all(col[d] == Fraction(4 * d, 3 ** (d + 1)) for d in range(1, 13))
    rows.append(Row.check("noncrossing-r1-column", "noncrossing-node", 1, ok))

    mean, = closed._column_means(*closed._schroeder_r0_law(), [0])
    rows.append(Row.check("schroeder-r0-law-mean", "schroeder-leaf", 0, mean == Quad2(1, 1)))

    # the bivariate schroeder form and the printed r = 0 law agree at
    # d = 1 but then split, and the bivariate column keeps only 4/9 of
    # the mass: a real discrepancy between the two stated laws, so it
    # is reported as a WARN rather than silently picking a side
    verb = dict(closed.limit_distribution("schroeder-leaf", 0, 30, variant="verbatim"))
    law = dict(closed.limit_distribution("schroeder-leaf", 0, 30))
    mass = sum(float(p) for p in verb.values())
    deviates = verb[1] == law[1] and verb[2] != law[2] and mass < 0.5
    rows.append(Row(
        "schroeder-bivariate-vs-r0-law", "schroeder-leaf", 0,
        "WARN" if deviates else "FAIL",
        {"d": 2, "bivariate": render_scalar(verb[2]),
         "r0_law": render_scalar(law[2]), "bivariate_mass": "%.6f" % mass},
    ))
    return rows


def _bijections(max_n):
    """One enumeration per bijection and size: each object's image feeds
    the round trip, the count of distinct images and the transport law."""
    rows = []
    for name in sorted(maps.BIJECTIONS):
        src, dst, fwd, inv = maps.BIJECTIONS[name]
        lo = objects.FAMILIES[src].min_n
        cap = min(max_n, objects.FAMILIES[src].budget)
        # the depth <-> separating-diagonals law needs a genuine polygon:
        # a single leaf maps to the degenerate 2-gon, where root and leaf
        # side coincide and the offset of one does not apply
        start = 2 if name == "schroeder-to-dissection" else max(lo, 1)
        moved = None  # the first object the transport law fails on
        for n in range(lo, cap + 1):
            seen, bad, count = set(), None, 0
            for obj in objects.enumerate_family(src, n, budget=cap):
                image = fwd(obj)
                count += 1
                if bad is None and inv(image) != obj:
                    bad = {"object": objects.FAMILIES[src].to_text(obj)}
                seen.add(objects.FAMILIES[dst].to_text(image))
                if moved is None and n >= start:
                    want, got = _TRANSPORT_LAWS[name](obj, image)
                    if want != got:
                        moved = {"n": n, "object": objects.FAMILIES[src].to_text(obj),
                                 "want": want, "got": got}
                if bad and (moved or n < start):
                    break
            if bad is None and len(seen) != count:
                bad = {"distinct_images": len(seen), "objects": count}
            rows.append(Row.check("roundtrip-" + name, src, n, counterexample=bad))
        rows.append(Row.check("transport-" + name, src, cap, counterexample=moved))
    return rows


# (want, got): the statistic each bijection carries, read off an object and its image
_TRANSPORT_LAWS = {
    "plane-to-dyck": lambda obj, image: (
        objects.plane_node_depths_preorder(obj)[1:], objects.dyck_upstep_heights(image)),
    "binary-to-dyck-fl": lambda obj, image: (
        [objects.binary_leaf_depths(obj)[0]], [maps.dyck_initial_run(image)]),
    "binary-to-dyck-fr": lambda obj, image: (
        [objects.binary_leaf_depths(obj)[0]], [maps.dyck_returns(image)]),
    "binary-to-triangulation": lambda obj, image: (
        objects.binary_leaf_depths(obj),
        [c + 1 for c in objects.separating_diagonal_counts(image)]),
    "schroeder-to-dissection": lambda obj, image: (
        objects.plane_leaf_depths(obj),
        [c + 1 for c in objects.separating_diagonal_counts(image)]),
    "increasing-to-permutation": lambda obj, image: (
        objects.increasing_internal_depths_inorder(obj), _min_between_counts(image)),
}


def _min_between_counts(perm):
    """For each i, the j != i where perm[j] is the minimum of perm between i
    and j, i's ancestors in the increasing tree: a monotone stack per end."""
    counts = [0] * len(perm)
    for order in (range(len(perm)), range(len(perm) - 1, -1, -1)):
        stack = []  # the values passed so far that are below all after them
        for i in order:
            while stack and stack[-1] > perm[i]:
                stack.pop()
            counts[i] += len(stack)
            stack.append(perm[i])
    return counts


def _fixed_point_residual(eq_id, t):
    """The solved base minus the right side of its printed equation (the
    solver works with the denominators cleared)."""
    s = series.solve_fixed_point(eq_id, t)
    one, z = ps_one(t), ps_monomial(t, (1, 0, 0, 0), [1])
    if eq_id == "catalan":  # C = 1 + zC^2
        return s - (one + z * s * s)
    if eq_id == "ternary":  # T = 1 + zT^3
        return s - (one + z * s * s * s)
    if eq_id == "schroeder":  # St = z + St^2/(1 - St), St = zS
        st = ps_shift(s, 1)
        return st - (z + st * st * ps_inv(one - st))
    # N = 1/(1 - zN) - 1 + v
    return s - (ps_inv(one - z * s) - one + ps_monomial(t, (0, 0, 1, 0), [1]))


def _gamma(m, k):
    """[z^m] C(z)^k: k/(2m + k)·C(2m + k, m), [m = 0] for k = 0, 0 for m < 0."""
    return k * math.comb(2 * m + k, m) // (2 * m + k) if k > 0 and m >= 0 else int(m == 0)


# the coefficient of z^n x^r y^d in a pair's series by Lagrange inversion
# (Flajolet & Sedgewick, Thm A.2): each [y^d] of a0/(1 - m) is a product
# of Catalan-power coefficients, as 1/(1 - wC(w)) = C(w)
_LAGRANGE = {
    ("binary", "leaf-depth"): lambda n, r, d: sum(
        math.comb(d, j) * _gamma(r - j, j) * _gamma(n - r - d + j, d - j) for j in range(d + 1)),
    ("dyck", "vertex-height"): lambda n, r, d: 0 if (r - d) % 2 else (
        _gamma((r - d) // 2, d + 1) * _gamma(n - (r + d) // 2, d + 1)),
    ("dyck", "upstep-height"): lambda n, r, d: _gamma(r - d, d) * _gamma(n - r, d + 1),
    ("dyck", "downstep-height"): lambda n, r, d: _gamma(r - 1, d + 1) * _gamma(n - r - d + 1, d),
}


# the totals rows reach one size past the largest enumeration budget;
# plane leaf-depth builds one series per leaf count, so it stops sooner
_TOTALS_CAP = 12
_PLANE_TOTALS_CAP = 8


def _total_mismatch(pair, st, cap):
    """The first size, position (and leaf count) where the sum of d·count
    over a column of columns_via_gf is not the closed total, else None."""
    for n in range(objects.FAMILIES[pair[0]].min_n, cap + 1):
        for k in st.leaf_counts(n) if st.leaf_counts else [None]:
            cols = gfcat.columns_via_gf(*pair, n, objects.positions(*pair, n, k), k)
            for r, (counts, _) in cols.items():
                want = (closed.plane_leaf_total(n, k, r) if k
                        else closed.exact_total(st.avg_id, n, r))
                if sum(d * c for d, c in counts.items()) != want:
                    return {"n": n, "r": r} if k is None else {"n": n, "k": k, "r": r}
    return None


def _gf(max_n):
    rows = []
    for eq_id in ("catalan", "ternary", "schroeder", "narayana"):
        ok = ps_is_zero(_fixed_point_residual(eq_id, Truncation(8, 0, 0, nv=8)))
        rows.append(Row.check("fixed-point", eq_id, 8, ok))
    for fam in gfcat.FAMILY_IDS:
        t = gfcat.gf_box(fam, 8, 8, nv=8 * (fam == "P"))
        s = gfcat.gf_closed(fam, t)
        rows.append(Row.check("gf-residual", fam, 8, ps_is_zero(gfcat.gf_residual(fam, s))))
        rows.append(Row.check("gf-closed-vs-solve", fam, 8, s == gfcat.gf_solve(fam, t)))

    # each cell z^n x^r y^d of B, D, U and W (n <= 20, d <= n + 1), by no equation
    for pair, coeff in _LAGRANGE.items():
        fam = objects.STATISTICS[pair].gf
        s = gfcat.gf_solve(fam, Truncation(20, 40, 21))
        bad = next(({"n": n, "r": r, "d": d} for n in range(21)
                    for r in objects.positions(*pair, n) for d in range(n + 2)
                    if coeff(n, r, d) != (ps_coeff(s, n, r)[d:] or [0])[0]), None)
        rows.append(Row.check("gf-vs-lagrange", fam, 20, counterexample=bad))

    # the first moment of every served column against its closed total
    for pair, st in objects.STATISTICS.items():
        if st.avg_id or st.leaf_counts:
            cap = _PLANE_TOTALS_CAP if st.leaf_counts else _TOTALS_CAP
            rows.append(Row.check("gf-total-vs-closed", "%s/%s" % pair, cap,
                                  counterexample=_total_mismatch(pair, st, cap)))

    # every column of each pair at one size, from both routes; the
    # families that enumerate slowest stop at size 5, and no size falls
    # below the family's smallest or leaf count above what it holds
    n = min(max_n, 6)
    for (family, statistic), st in objects.STATISTICS.items():
        nn = min(n, 5) if family in ("noncrossing", "increasing", "dissection") else n
        nn = max(nn, objects.FAMILIES[family].min_n)
        k = min(3, max(nn, 1)) if st.leaf_counts else None
        rs = objects.positions(family, statistic, nn, k)
        got = gfcat.columns_via_gf(family, statistic, nn, rs, k)
        ok = got == objects.distribution_columns(family, statistic, nn, rs, k)
        rows.append(Row.check("gf-vs-enumeration", "%s/%s" % (family, statistic), nn, ok))
    return rows


# name -> suite; "all" runs them in this order
SUITES = {"identities": _identities, "limits": _limits,
          "bijections": _bijections, "gf": _gf}


def run(suite: str, max_n: int) -> list[Row]:
    """The rows of one suite, or of every suite for ``"all"``.  ``max_n``
    caps the sizes checked; each suite also keeps caps of its own."""
    if max_n < 0:
        raise ValueError("max_n must be at least 0, not %d" % max_n)
    names = SUITES if suite == "all" else [suite]
    return [row for name in names for row in SUITES[name](max_n)]
