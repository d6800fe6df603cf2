import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from combstat import objects as ob


# ------------------------------------------------------------- counting

def test_counts_match_known_sequences():
    assert [ob.count_family("binary", n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert [ob.count_family("plane", n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [ob.count_family("dyck", n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [ob.count_family("schroeder", k) for k in range(1, 7)] == [1, 1, 3, 11, 45, 197]
    assert [ob.count_family("noncrossing", n) for n in range(5)] == [1, 1, 3, 12, 55]
    assert [ob.count_family("increasing", n) for n in range(5)] == [1, 1, 2, 6, 24]
    assert [ob.count_family("triangulation", n) for n in range(5)] == [1, 1, 2, 5, 14]
    assert [ob.count_family("dissection", n) for n in range(4)] == [1, 1, 3, 11]


def test_budget_guard():
    with pytest.raises(ValueError):
        ob.enumerate_family("binary", 12)
    assert ob.count_family("binary", 12, budget=12) == 208012
    with pytest.raises(ValueError):
        ob.enumerate_family("nope", 3)
    with pytest.raises(ValueError):
        ob.enumerate_family("schroeder", 0)


def test_objects_are_distinct():
    for family, n in [("binary", 5), ("plane", 5), ("dyck", 5),
                      ("schroeder", 5), ("noncrossing", 4),
                      ("triangulation", 4), ("dissection", 3)]:
        objs = list(ob.enumerate_family(family, n))
        assert len(set(objs)) == len(objs)


# ----------------------------------------------------------- statistics

def test_binary_leaf_depth_n3():
    counts, total = ob.distribution("binary", "leaf-depth", 3, 0)
    assert total == 5
    assert dict(counts) == {1: 2, 2: 2, 3: 1}
    assert ob.average("binary", "leaf-depth", 3, 0) == Fraction(9, 5)


def test_binary_abscissa_n3():
    vals = sorted(
        ob.statistic_entry("binary", "leaf-abscissa").walker(t)[0]
        for t in ob.binary_trees(3)
    )
    assert vals == [-3, -2, -2, -1, -1]
    assert ob.average("binary", "leaf-abscissa", 3, 0) == Fraction(-9, 5)


def test_binary_figure_tree():
    t = ob.binary_from_text("(((..)((..).)).)")
    assert ob.binary_leaf_abscissas(t) == [-3, -1, -2, 0, 1, 1]
    assert ob.binary_leaf_depths(t) == [3, 3, 4, 4, 3, 1]
    assert ob.binary_to_text(t) == "(((..)((..).)).)"


def test_dyck_heights():
    assert ob.dyck_vertex_heights("UUDUDD") == [0, 1, 2, 1, 2, 1, 0]
    assert ob.dyck_upstep_heights("UUDUDD") == [1, 2, 2]
    assert ob.dyck_downstep_heights("UUDUDD") == [2, 2, 1]
    assert ob.dyck_vertex_heights("") == [0]


def test_dyck_distributions_n3():
    counts, total = ob.distribution("dyck", "upstep-height", 3, 2)
    assert (dict(counts), total) == ({1: 2, 2: 3}, 5)
    counts, total = ob.distribution("dyck", "vertex-height", 3, 3)
    assert (dict(counts), total) == ({1: 4, 3: 1}, 5)
    # walk statistics are 1-based in r
    with pytest.raises(ValueError):
        ob.distribution("dyck", "upstep-height", 3, 0)
    with pytest.raises(ValueError):
        ob.distribution("dyck", "upstep-height", 3, 4)


def test_plane_statistics_n3():
    counts, total = ob.distribution("plane", "leaf-depth", 3, 1, k=2)
    assert (dict(counts), total) == ({1: 1, 2: 2}, 3)
    counts, total = ob.distribution("plane", "node-depth", 3, 2)
    assert (dict(counts), total) == ({1: 2, 2: 3}, 5)
    # root is preorder position 0 at depth 0 in every tree
    counts, total = ob.distribution("plane", "node-depth", 3, 0)
    assert dict(counts) == {0: 5}


def test_plane_figure_codec():
    t = ((), ((),), ((), ()))
    assert ob.plane_to_text(t) == "(()(())(()()))"
    assert ob.plane_from_text("(()(())(()()))") == t
    assert ob.plane_node_depths_preorder(t) == [0, 1, 1, 2, 1, 2, 2]


def test_schroeder_leaf_depths():
    counts, total = ob.distribution("schroeder", "leaf-depth", 3, 0)
    assert total == 3
    assert ob.average("schroeder", "leaf-depth", 3, 0) == Fraction(4, 3)
    for t in ob.schroeder_trees(5):
        assert all(len(node) != 1 for node in _subtrees(t))


def _subtrees(t):
    yield t
    for c in t:
        yield from _subtrees(c)


def test_noncrossing_distributions():
    counts, total = ob.distribution("noncrossing", "node-depth", 2, 1)
    assert (dict(counts), total) == ({1: 2, 2: 1}, 3)
    counts, total = ob.distribution("noncrossing", "node-depth", 3, 1)
    assert (dict(counts), total) == ({1: 7, 2: 4, 3: 1}, 12)
    counts, total = ob.distribution("noncrossing", "node-depth", 3, 0)
    assert dict(counts) == {0: 12}


def test_noncrossing_depths_need_a_connected_chord_set():
    assert ob.noncrossing_node_depths([(0, 1), (1, 2)]) == [0, 1, 2]
    # two chords on points 0..2 with point 2 never reached
    with pytest.raises(ValueError, match="not connected"):
        ob.noncrossing_node_depths([(0, 1), (0, 1)])


def _is_spanning_noncrossing(edges, n):
    if len(edges) != n:
        return False
    for d1, d2 in itertools.combinations(edges, 2):
        if ob._crossing(d1, d2):
            return False
    seen = {0}
    frontier = [0]
    adj = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    while frontier:
        v = frontier.pop()
        for w in adj.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == n + 1


def test_noncrossing_against_spanning_tree_filter():
    # independent check of the interval decomposition, small n
    for n in range(1, 5):
        chords = list(itertools.combinations(range(n + 1), 2))
        brute = {
            frozenset(sub)
            for sub in itertools.combinations(chords, n)
            if _is_spanning_noncrossing(sub, n)
        }
        assert set(ob.noncrossing_trees(n)) == brute


def test_increasing_statistics_n3():
    counts, total = ob.distribution("increasing", "leaf-depth", 3, 0)
    assert (dict(counts), total) == ({1: 2, 2: 3, 3: 1}, 6)
    assert ob.average("increasing", "leaf-depth", 3, 0) == Fraction(11, 6)
    counts, total = ob.distribution("increasing", "internal-depth", 3, 0)
    assert (dict(counts), total) == ({0: 2, 1: 3, 2: 1}, 6)
    assert ob.average("increasing", "internal-depth", 3, 0) == Fraction(5, 6)


def test_increasing_perm_roundtrip_figure():
    perm = (7, 8, 2, 3, 6, 1, 5, 4)
    t = ob.perm_to_increasing(perm)
    assert ob.increasing_to_perm(t) == perm
    assert ob.permutation_to_text(perm) == "78236154"
    assert ob.permutation_from_text("78236154") == perm
    assert ob.permutation_from_text("10,2,1,3,4,5,6,7,8,9") == (10, 2, 1, 3, 4, 5, 6, 7, 8, 9)
    # labels increase on every root-to-leaf path
    def check(node, floor):
        if node is None:
            return
        assert node[0] > floor
        check(node[1], node[0])
        check(node[2], node[0])
    check(t, 0)


def _reference_min_split(perm):
    # the recursive min-split perm_to_increasing replaced
    if not perm:
        return None
    i = min(range(len(perm)), key=perm.__getitem__)
    return (perm[i], _reference_min_split(perm[:i]), _reference_min_split(perm[i + 1:]))


def test_min_split_matches_the_recursive_reference():
    for n in range(9):  # 46,234 permutations
        for perm in itertools.permutations(range(1, n + 1)):
            t = ob.perm_to_increasing(perm)
            assert t == _reference_min_split(perm)
            assert ob.increasing_to_perm(t) == perm
    for n in range(7):
        assert list(ob.increasing_trees(n)) == [
            _reference_min_split(perm)
            for perm in itertools.permutations(range(1, n + 1))]


def test_triangulation_separating_counts():
    counts, total = ob.distribution("triangulation", "separating-diagonals", 3, 0)
    assert (dict(counts), total) == ({0: 2, 1: 2, 2: 1}, 5)
    for sub in ob.triangulations(4):
        assert len(sub.diagonals) == 3  # n-1 diagonals always


def test_dissection_enumeration():
    subs = list(ob.dissections(2))
    assert {s.diagonals for s in subs} == {
        frozenset(),
        frozenset({(0, 2)}),
        frozenset({(1, 3)}),
    }


def test_triangulations_are_the_dissections_with_triangle_faces():
    # a dissection of the (n+2)-gon with n-1 diagonals has n triangles
    sizes = []
    for n in range(9):
        tri = list(ob.triangulations(n))
        assert len(set(tri)) == len(tri)
        assert set(tri) == {sub for sub in ob.dissections(n)
                            if len(sub.diagonals) == max(n - 1, 0)}
        sizes.append(len(tri))
    assert sizes == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_separating_count_is_statistic_vector():
    sub = ob.PolygonSubdivision(3, frozenset({(0, 3), (1, 3)}))
    assert ob.statistic_entry(
        "triangulation", "separating-diagonals"
    ).walker(sub) == [1, 2, 2, 0]


def _reference_separating_counts(sub):
    # the O(n * #diagonals) walker separating_diagonal_counts replaced
    return [
        sum(1 for (a, b) in sub.diagonals if a <= r < b)
        for r in range(sub.n + 1)
    ]


@pytest.mark.parametrize("family", ["triangulation", "dissection"])
def test_separating_counts_match_the_reference_walker(family):
    for n in range(ob.FAMILIES[family].budget + 1):
        for sub in ob.enumerate_family(family, n):
            assert ob.separating_diagonal_counts(sub) == \
                _reference_separating_counts(sub)


@pytest.mark.parametrize("family,statistic,n,k,rs", [
    ("binary", "leaf-depth", 5, None, [5, 0, 2]),
    ("dyck", "upstep-height", 5, None, [5, 1, 3]),
    ("plane", "leaf-depth", 5, 3, [2, 0]),
    # 4,862 paths: more rows than one counting batch holds
    ("dyck", "vertex-height", 9, None, [18, 0, 9, 4]),
    # one position picks a bare entry; no position picks nothing
    ("noncrossing", "node-depth", 4, None, [3]),
    ("plane", "leaf-depth", 5, 2, [1]),
    ("binary", "leaf-depth", 4, None, []),
])
def test_columns_match_per_position_distributions(family, statistic, n, k, rs):
    cols = ob.distribution_columns(family, statistic, n, rs, k)
    assert list(cols) == rs
    walker = ob.statistic_entry(family, statistic).walker
    first = ob.positions(family, statistic, n, k).start
    vecs = [v for v in map(walker, ob.enumerate_family(family, n))
            if k is None or len(v) == k]
    for r in rs:
        assert cols[r] == ob.distribution(family, statistic, n, r, k)
        assert cols[r] == (Counter(v[r - first] for v in vecs), len(vecs))


def test_enumeration_keeps_no_memo():
    # noncrossing n = 7 builds about 2 MB of sub-interval trees; all of
    # it is gone once the sweep returns or a stream is dropped half-read
    tracemalloc.start()
    try:
        ob.distribution_columns("noncrossing", "node-depth", 7, range(8))
        swept, peak = tracemalloc.get_traced_memory()
        stream = ob.enumerate_family("noncrossing", 7)
        next(stream)
        del stream
        dropped, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert swept < 2**20 and dropped < 2**20
    assert peak < 4 * 2**20
    assert not [name for name, value in vars(ob).items() if hasattr(value, "cache_info")]


def test_unknown_statistic():
    with pytest.raises(ValueError):
        ob.statistic_entry("binary", "node-depth")


def test_size_zero_objects():
    assert list(ob.enumerate_family("binary", 0)) == [None]
    assert ob.statistic_entry("binary", "leaf-depth").walker(None) == [0]
    assert list(ob.enumerate_family("dyck", 0)) == [""]
    assert ob.dyck_upstep_heights("") == []
    assert list(ob.enumerate_family("increasing", 0)) == [None]
    assert list(ob.enumerate_family("noncrossing", 0)) == [frozenset()]


# ----------------------------------------------------------- text round
# trips on arbitrary members of each family

@settings(max_examples=60)
@given(st.integers(0, 6), st.randoms())
def test_binary_text_roundtrip(n, rng):
    trees = list(ob.binary_trees(n))
    t = rng.choice(trees)
    assert ob.binary_from_text(ob.binary_to_text(t)) == t


@settings(max_examples=60)
@given(st.integers(0, 6), st.randoms())
def test_dyck_text_roundtrip(n, rng):
    w = rng.choice(list(ob.dyck_paths(n)))
    assert ob.dyck_from_text(w) == w


def test_dyck_text_rejects_bad_walks():
    for bad in ("UDX", "DU", "UUD", "UDD"):
        with pytest.raises(ValueError):
            ob.dyck_from_text(bad)


def test_pairs_codec():
    e = frozenset({(0, 2), (0, 1)})
    assert ob.pairs_to_text(e) == "0-1,0-2"
    assert ob.pairs_from_text("0-1,0-2") == e
    assert ob.pairs_from_text("") == frozenset()


def test_subdivision_from_text_validation():
    sub = ob.subdivision_from_text("1-3,1-4", 3, "triangulation")
    assert sub.diagonals == frozenset({(1, 3), (1, 4)})
    with pytest.raises(ValueError):
        ob.subdivision_from_text("0-2,1-3", 3, "dissection")  # crossing
    with pytest.raises(ValueError):
        ob.subdivision_from_text("0-1", 3, "dissection")  # a side
    with pytest.raises(ValueError):
        ob.subdivision_from_text("0-4", 3, "dissection")  # the root side
    with pytest.raises(ValueError):
        ob.subdivision_from_text("1-3", 3, "triangulation")  # too few
