import gc
import itertools

import pytest

from combstat import closed
from combstat import maps as mp
from combstat import objects as ob
from combstat import verify


FIG_PLANE = ((), ((),), ((), ()))
FIG_BINARY = ob.binary_from_text("(((..)(..))(..))")


def test_plane_to_dyck_figure():
    assert mp.plane_to_dyck(FIG_PLANE) == "UDUUDDUUDUDD"
    assert mp.dyck_to_plane("UDUUDDUUDUDD") == FIG_PLANE


def test_binary_to_dyck_figure():
    assert mp.binary_to_dyck_fr(FIG_BINARY) == "UDUUDDUUDD"
    assert mp.binary_to_dyck_fl(FIG_BINARY) == "UUUDDUDDUD"
    # leftmost leaf depth 3 shows up as 3 returns / initial run 3
    assert ob.binary_leaf_depths(FIG_BINARY)[0] == 3
    assert mp.dyck_returns("UDUUDDUUDD") == 3
    assert mp.dyck_initial_run("UUUDDUDDUD") == 3


def test_dyck_to_plane_reads_only_walks():
    for w in ("()", "U)", "UDX"):
        with pytest.raises(ValueError, match="not a Dyck path"):
            mp.dyck_to_plane(w)


def test_mirror_conjugation_is_checked(monkeypatch):
    # without the mirror f_R stays a bijection, so its round trips pass,
    # but its returns count the rightmost leaf's depth, not the leftmost's
    monkeypatch.setattr(mp, "_mirror", lambda t: t)
    rows = {(row.check_id, row.n_or_r): row.status for row in verify.run("bijections", 3)}
    assert rows["transport-binary-to-dyck-fr", 3] == "FAIL"
    assert all(rows["roundtrip-binary-to-dyck-fr", n] == "PASS" for n in range(4))
    assert rows["transport-binary-to-dyck-fl", 3] == "PASS"


@pytest.mark.parametrize("n", range(7))
def test_plane_dyck_roundtrip_and_transport(n):
    for t in ob.plane_trees(n):
        w = mp.plane_to_dyck(t)
        ob.dyck_from_text(w)
        assert mp.dyck_to_plane(w) == t
        depths = ob.plane_node_depths_preorder(t)
        assert depths[1:] == ob.dyck_upstep_heights(w)
        assert len(t) == mp.dyck_returns(w)
        assert ob.plane_leaf_depths(t)[0] == mp.dyck_initial_run(w)


@pytest.mark.parametrize("n", range(7))
def test_binary_dyck_roundtrips_and_transport(n):
    seen_r, seen_l = set(), set()
    for t in ob.binary_trees(n):
        wr = mp.binary_to_dyck_fr(t)
        wl = mp.binary_to_dyck_fl(t)
        ob.dyck_from_text(wr)
        ob.dyck_from_text(wl)
        assert mp.dyck_to_binary_fr(wr) == t
        assert mp.dyck_to_binary_fl(wl) == t
        d0 = ob.binary_leaf_depths(t)[0]
        assert mp.dyck_returns(wr) == d0
        assert mp.dyck_initial_run(wl) == d0
        seen_r.add(wr)
        seen_l.add(wl)
    # both maps are onto the Dyck paths of the same semilength
    assert seen_r == set(ob.dyck_paths(n))
    assert seen_l == set(ob.dyck_paths(n))


@pytest.mark.parametrize("n", range(7))
def test_binary_triangulation_roundtrip_and_transport(n):
    seen = set()
    for t in ob.binary_trees(n):
        sub = mp.binary_to_triangulation(t)
        assert mp.triangulation_to_binary(sub) == t
        if n >= 1:  # the 2-gon is degenerate: its only leaf is the root side
            sep = ob.separating_diagonal_counts(sub)
            assert ob.binary_leaf_depths(t) == [s + 1 for s in sep]
        seen.add(sub)
    assert seen == set(ob.triangulations(n))


@pytest.mark.parametrize("k", range(1, 7))
def test_schroeder_dissection_roundtrip_and_transport(k):
    seen = set()
    for t in ob.schroeder_trees(k):
        sub = mp.schroeder_to_dissection(t)
        assert mp.dissection_to_schroeder(sub) == t
        if k >= 2:  # same 2-gon degeneracy as for triangulations
            sep = ob.separating_diagonal_counts(sub)
            assert ob.plane_leaf_depths(t) == [s + 1 for s in sep]
        seen.add(sub)
    assert seen == set(ob.dissections(k - 1))


@pytest.mark.parametrize("n", range(6))
def test_increasing_permutation_roundtrip(n):
    for perm in itertools.permutations(range(1, n + 1)):
        t = ob.perm_to_increasing(perm)
        assert ob.increasing_to_perm(t) == perm


def test_triangulation_inverse_rejects_garbage():
    bad = ob.PolygonSubdivision(3, frozenset({(0, 2)}))
    with pytest.raises(ValueError, match="not a triangle"):
        mp.triangulation_to_binary(bad)


def test_registry_shape():
    assert set(mp.BIJECTIONS) == {
        "plane-to-dyck",
        "binary-to-dyck-fr",
        "binary-to-dyck-fl",
        "binary-to-triangulation",
        "schroeder-to-dissection",
        "increasing-to-permutation",
    }
    for src, dst, fwd, inv in mp.BIJECTIONS.values():
        assert callable(fwd) and callable(inv)


def test_walking_and_converting_leave_no_cyclic_garbage():
    # a recursion that holds itself in a reference cycle leaves what it
    # built to the cyclic collector; every walker, map and codec, and the
    # harmonic sums of both increasing-tree averages, free their work by
    # reference counting alone
    sized = {family: [(n, obj) for n in range(entry.min_n, 6)
                      for obj in ob.enumerate_family(family, n)]
             for family, entry in ob.FAMILIES.items() if entry.enumerate}
    sized["permutation"] = [(n, perm) for n in range(6)
                            for perm in itertools.permutations(range(1, n + 1))]
    gc.collect()
    gc.disable()
    try:
        for (family, _), entry in ob.STATISTICS.items():
            for n, obj in sized[family]:
                entry.walker(obj)
        for src, _, fwd, inv in mp.BIJECTIONS.values():
            for n, obj in sized[src]:
                inv(fwd(obj))
        for family, entry in ob.FAMILIES.items():
            for n, obj in sized[family]:
                entry.from_text(entry.to_text(obj), n)
        for fid in ("increasing-leaf", "increasing-internal"):
            for n in (1, 5, 40, 200):
                for r in ob.positions(*closed.AVG_IDS[fid], n):
                    closed.exact_average(fid, n, r)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0
