"""The combinatorial families, enumerated exhaustively.

This module is deliberately brute force: it produces the actual objects
(trees, lattice paths, chord diagrams, polygon subdivisions) and reads
statistics off them by walking the object.  It is the ground truth that
the generating-function machinery elsewhere is checked against, so it
shares no code with that machinery.

Representations:

* binary tree       -- ``None`` for a leaf, ``(left, right)`` otherwise;
                       sized by internal nodes
* plane tree        -- nested tuples of children, ``()`` a single node;
                       sized by edges
* Dyck path         -- a string over ``U``/``D``
* Schroeder tree    -- a plane tree with no unary node, sized by leaves
* noncrossing tree  -- frozenset of chords ``(a, b)`` with a < b on the
                       points 0..n; connected and acyclic by construction
* increasing tree   -- ``(label, left, right)`` with ``None`` leaves;
                       labels increase away from the root
* polygon subdivision -- PolygonSubdivision(n, diagonals, kind): the
                       (n+2)-gon on vertices 0..n+1; the root side is
                       (n+1, 0) and side r means the edge (r, r+1)
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# default caps on exhaustive enumeration, keyed by family; the schroeder
# entry is a leaf count, everything else the usual size parameter
BUDGETS = {
    "binary": 11,
    "plane": 11,
    "dyck": 11,
    "schroeder": 10,
    "noncrossing": 8,
    "increasing": 8,
    "triangulation": 11,
    "dissection": 9,
}

# statistics whose position index r is 1-based (r-th step of the walk)
ONE_BASED = {"upstep-height", "downstep-height"}


@dataclass(frozen=True)
class PolygonSubdivision:
    n: int
    diagonals: frozenset
    kind: str  # "triangulation" | "dissection"


# ---------------------------------------------------------- enumerators

@lru_cache(maxsize=None)
def _binary_trees(n: int):
    if n == 0:
        return (None,)
    out = []
    for i in range(n):
        for left in _binary_trees(i):
            for right in _binary_trees(n - 1 - i):
                out.append((left, right))
    return tuple(out)


def binary_trees(n: int):
    return iter(_binary_trees(n))


@lru_cache(maxsize=None)
def _plane_trees(n: int):
    """Plane trees with n edges, by first-subtree/rest decomposition."""
    if n == 0:
        return ((),)
    out = []
    for i in range(n):
        for first in _plane_trees(i):
            for rest in _plane_trees(n - 1 - i):
                out.append((first,) + rest)
    return tuple(out)


def plane_trees(n: int):
    return iter(_plane_trees(n))


@lru_cache(maxsize=None)
def _dyck_paths(n: int):
    if n == 0:
        return ("",)
    out = []
    for i in range(n):
        for inner in _dyck_paths(i):
            for tail in _dyck_paths(n - 1 - i):
                out.append("U" + inner + "D" + tail)
    return tuple(out)


def dyck_paths(n: int):
    return iter(_dyck_paths(n))


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@lru_cache(maxsize=None)
def _schroeder_trees(leaves: int):
    """Plane trees with no unary node and the given number of leaves."""
    if leaves == 1:
        return ((),)
    out = []
    for j in range(2, leaves + 1):
        for comp in _compositions(leaves, j):
            for kids in itertools.product(*(_schroeder_trees(c) for c in comp)):
                out.append(tuple(kids))
    return tuple(out)


def schroeder_trees(leaves: int):
    return iter(_schroeder_trees(leaves))


@lru_cache(maxsize=None)
def _noncrossing_interval(x: int, y: int):
    """Noncrossing trees on the points x..y, rooted at x.

    Butterfly decomposition: the largest neighbour c of the root splits
    the inside of the chord (x, c) at a pivot m into a left wing hanging
    off x (points x+1..m-1) and a mirrored right wing hanging off c
    (points m..c-1); the points past c form their own tree rooted at c.
    Each tree arises from exactly one (m, c) pair.
    """
    if x == y:
        return (frozenset(),)
    out = []
    for m in range(x + 1, y + 1):
        for c in range(m, y + 1):
            base = (x, c)
            for wing in _noncrossing_interval(m, c):
                mirrored = frozenset(
                    (m + c - b, m + c - a) for (a, b) in wing
                )
                for left in _noncrossing_interval(x, m - 1):
                    partial = left | {base} | mirrored
                    for tail in _noncrossing_interval(c, y):
                        out.append(partial | tail)
    return tuple(out)


def noncrossing_trees(n: int):
    return iter(_noncrossing_interval(0, n))


def perm_to_increasing(perm):
    """Binary increasing tree by the min-split: the minimum becomes the
    root, what is left of it the left subtree, and so on."""
    if not perm:
        return None
    i = min(range(len(perm)), key=perm.__getitem__)
    return (perm[i], perm_to_increasing(perm[:i]), perm_to_increasing(perm[i + 1:]))


def increasing_to_perm(t):
    if t is None:
        return ()
    return increasing_to_perm(t[1]) + (t[0],) + increasing_to_perm(t[2])


def increasing_trees(n: int):
    for perm in itertools.permutations(range(1, n + 1)):
        yield perm_to_increasing(perm)


def _triangulation_diagonals(a: int, b: int):
    """Triangulations of the sub-polygon on consecutive vertices a..b,
    as diagonal sets; the base edge (a, b) itself is not recorded."""
    if b - a < 2:
        yield frozenset()
        return
    for m in range(a + 1, b):
        extra = set()
        if m - a >= 2:
            extra.add((a, m))
        if b - m >= 2:
            extra.add((m, b))
        extra = frozenset(extra)
        for left in _triangulation_diagonals(a, m):
            for right in _triangulation_diagonals(m, b):
                yield left | extra | right


def triangulations(n: int):
    for diags in _triangulation_diagonals(0, n + 1):
        yield PolygonSubdivision(n, diags, "triangulation")


@lru_cache(maxsize=None)
def _dissection_diagonals(a: int, b: int):
    """All dissections (any noncrossing diagonal set) of the sub-polygon
    a..b, decomposed by the face that contains the base edge (a, b)."""
    if b - a < 2:
        return (frozenset(),)
    out = []
    interior = list(range(a + 1, b))
    for size in range(1, len(interior) + 1):
        for chosen in itertools.combinations(interior, size):
            pts = (a,) + chosen + (b,)
            gaps = [
                (p, q)
                for p, q in zip(pts, pts[1:])
                if q - p >= 2
            ]
            base = frozenset(gaps)
            for combo in itertools.product(
                *(_dissection_diagonals(p, q) for p, q in gaps)
            ):
                acc = base
                for part in combo:
                    acc = acc | part
                out.append(acc)
    return tuple(out)


def dissections(n: int):
    for diags in _dissection_diagonals(0, n + 1):
        yield PolygonSubdivision(n, diags, "dissection")


_ENUMERATORS = {
    "binary": binary_trees,
    "plane": plane_trees,
    "dyck": dyck_paths,
    "schroeder": schroeder_trees,
    "noncrossing": noncrossing_trees,
    "increasing": increasing_trees,
    "triangulation": triangulations,
    "dissection": dissections,
}


def enumerate_family(family: str, n: int, budget=None):
    if family not in _ENUMERATORS:
        raise ValueError("unknown family %r" % (family,))
    if n < 0 or (family == "schroeder" and n < 1):
        raise ValueError("size %d out of range for %s" % (n, family))
    cap = BUDGETS[family] if budget is None else budget
    if n > cap:
        raise ValueError(
            "size %d exceeds the %s enumeration budget %d "
            "(pass a larger budget to override)" % (n, family, cap)
        )
    return _ENUMERATORS[family](n)


def count_family(family: str, n: int, budget=None) -> int:
    return sum(1 for _ in enumerate_family(family, n, budget))


# ----------------------------------------------------------- statistics

def binary_leaf_depths(t):
    out = []

    def walk(node, d):
        if node is None:
            out.append(d)
        else:
            walk(node[0], d + 1)
            walk(node[1], d + 1)

    walk(t, 0)
    return out


def binary_leaf_abscissas(t):
    """Horizontal position of each leaf, root at 0, a left edge moving
    one unit left and a right edge one unit right."""
    out = []

    def walk(node, pos):
        if node is None:
            out.append(pos)
        else:
            walk(node[0], pos - 1)
            walk(node[1], pos + 1)

    walk(t, 0)
    return out


def plane_leaf_depths(t):
    out = []

    def walk(node, d):
        if not node:
            out.append(d)
        for child in node:
            walk(child, d + 1)

    walk(t, 0)
    return out


def plane_node_depths_preorder(t):
    out = []

    def walk(node, d):
        out.append(d)
        for child in node:
            walk(child, d + 1)

    walk(t, 0)
    return out


def plane_leaf_count(t) -> int:
    if not t:
        return 1
    return sum(plane_leaf_count(c) for c in t)


def dyck_vertex_heights(w):
    heights = [0]
    h = 0
    for step in w:
        h += 1 if step == "U" else -1
        heights.append(h)
    return heights


def dyck_upstep_heights(w):
    """Height just after each up-step (its upper end), in step order."""
    out = []
    h = 0
    for step in w:
        if step == "U":
            h += 1
            out.append(h)
        else:
            h -= 1
    return out


def dyck_downstep_heights(w):
    """Height just before each down-step (again its upper end)."""
    out = []
    h = 0
    for step in w:
        if step == "U":
            h += 1
        else:
            out.append(h)
            h -= 1
    return out


def noncrossing_node_depths(edges):
    n = len(edges)
    adj = [[] for _ in range(n + 1)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    depth = [-1] * (n + 1)
    depth[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    nxt.append(w)
        frontier = nxt
    assert all(d >= 0 for d in depth), "chord set is not connected"
    return depth


def increasing_leaf_depths(t):
    out = []

    def walk(node, d):
        if node is None:
            out.append(d)
        else:
            walk(node[1], d + 1)
            walk(node[2], d + 1)

    walk(t, 0)
    return out


def increasing_internal_depths_inorder(t):
    out = []

    def walk(node, d):
        if node is None:
            return
        walk(node[1], d + 1)
        out.append(d)
        walk(node[2], d + 1)

    walk(t, 0)
    return out


def separating_diagonal_counts(sub: PolygonSubdivision):
    """For each non-root side r = 0..n, how many diagonals separate it
    from the root side (n+1, 0): those (a, b) with a <= r < b."""
    return [
        sum(1 for (a, b) in sub.diagonals if a <= r < b)
        for r in range(sub.n + 1)
    ]


_STATISTICS = {
    ("binary", "leaf-depth"): binary_leaf_depths,
    ("binary", "leaf-abscissa"): binary_leaf_abscissas,
    ("plane", "leaf-depth"): plane_leaf_depths,
    ("plane", "node-depth"): plane_node_depths_preorder,
    ("schroeder", "leaf-depth"): plane_leaf_depths,
    ("dyck", "vertex-height"): dyck_vertex_heights,
    ("dyck", "upstep-height"): dyck_upstep_heights,
    ("dyck", "downstep-height"): dyck_downstep_heights,
    ("noncrossing", "node-depth"): noncrossing_node_depths,
    ("increasing", "leaf-depth"): increasing_leaf_depths,
    ("increasing", "internal-depth"): increasing_internal_depths_inorder,
    ("triangulation", "separating-diagonals"): separating_diagonal_counts,
    ("dissection", "separating-diagonals"): separating_diagonal_counts,
}


def statistic_vector(family: str, statistic: str, obj):
    try:
        fn = _STATISTICS[(family, statistic)]
    except KeyError:
        raise ValueError(
            "no statistic %r on family %r" % (statistic, family)
        ) from None
    return fn(obj)


def distribution(family, statistic, n, r, k=None, budget=None):
    """Exhaustive distribution of the statistic at position r over all
    size-n objects: a (Counter value -> #objects, total) pair.

    For the plane leaf statistic a leaf count ``k`` restricts to trees
    with exactly k leaves (the position r then runs over 0..k-1); other
    statistics ignore k.  r is 1-based for the walk-step statistics.
    """
    counts = Counter()
    total = 0
    offset = 1 if statistic in ONE_BASED else 0
    want_k = k if (family, statistic) == ("plane", "leaf-depth") else None
    for obj in enumerate_family(family, n, budget):
        if want_k is not None and plane_leaf_count(obj) != want_k:
            continue
        vec = statistic_vector(family, statistic, obj)
        idx = r - offset
        if idx < 0 or idx >= len(vec):
            raise ValueError(
                "position r=%d out of range for %s/%s at size %d"
                % (r, family, statistic, n)
            )
        counts[vec[idx]] += 1
        total += 1
    return counts, total


def average(family, statistic, n, r, k=None, budget=None) -> Fraction:
    counts, total = distribution(family, statistic, n, r, k=k, budget=budget)
    if total == 0:
        raise ZeroDivisionError("no objects to average over")
    return Fraction(sum(d * c for d, c in counts.items()), total)


# ---------------------------------------------------------- text codecs

def binary_to_text(t) -> str:
    if t is None:
        return "."
    return "(%s%s)" % (binary_to_text(t[0]), binary_to_text(t[1]))


def binary_from_text(s: str):
    def parse(i):
        if i >= len(s):
            raise ValueError("truncated binary-tree text")
        if s[i] == ".":
            return None, i + 1
        if s[i] != "(":
            raise ValueError("bad character %r in binary-tree text" % s[i])
        left, i = parse(i + 1)
        right, i = parse(i)
        if i >= len(s) or s[i] != ")":
            raise ValueError("unbalanced binary-tree text")
        return (left, right), i + 1

    t, i = parse(0)
    if i != len(s):
        raise ValueError("trailing junk in binary-tree text")
    return t


def plane_to_text(t) -> str:
    return "(%s)" % "".join(plane_to_text(c) for c in t)


def plane_from_text(s: str):
    def parse(i):
        if i >= len(s) or s[i] != "(":
            raise ValueError("bad plane-tree text")
        i += 1
        kids = []
        while i < len(s) and s[i] == "(":
            child, i = parse(i)
            kids.append(child)
        if i >= len(s) or s[i] != ")":
            raise ValueError("unbalanced plane-tree text")
        return tuple(kids), i + 1

    t, i = parse(0)
    if i != len(s):
        raise ValueError("trailing junk in plane-tree text")
    return t


def dyck_from_text(s: str) -> str:
    h = 0
    for ch in s:
        if ch == "U":
            h += 1
        elif ch == "D":
            h -= 1
        else:
            raise ValueError("bad character %r in walk text" % ch)
        if h < 0:
            raise ValueError("walk dips below the axis")
    if h != 0:
        raise ValueError("walk does not return to the axis")
    return s


def pairs_to_text(pairs) -> str:
    return ",".join("%d-%d" % (a, b) for a, b in sorted(pairs))


def pairs_from_text(s: str):
    if not s:
        return frozenset()
    out = set()
    for item in s.split(","):
        a, _, b = item.partition("-")
        out.add((int(a), int(b)))
    return frozenset(out)


def permutation_to_text(perm) -> str:
    if perm and max(perm) > 9:
        return ",".join(str(v) for v in perm)
    return "".join(str(v) for v in perm)


def permutation_from_text(s: str):
    if not s:
        return ()
    if "," in s:
        return tuple(int(v) for v in s.split(","))
    return tuple(int(ch) for ch in s)


def _crossing(d1, d2) -> bool:
    (a, b), (c, d) = sorted((d1, d2))
    return a < c < b < d


def subdivision_from_text(s: str, n: int, kind: str) -> PolygonSubdivision:
    diags = pairs_from_text(s)
    for a, b in diags:
        if not (0 <= a < b <= n + 1) or b - a < 2 or (a, b) == (0, n + 1):
            raise ValueError("(%d,%d) is not a diagonal of the %d-gon" % (a, b, n + 2))
    for d1, d2 in itertools.combinations(diags, 2):
        if _crossing(d1, d2):
            raise ValueError("diagonals %s and %s cross" % (d1, d2))
    if kind == "triangulation" and len(diags) != max(n - 1, 0):
        raise ValueError(
            "a triangulation of the %d-gon needs %d diagonals, got %d"
            % (n + 2, max(n - 1, 0), len(diags))
        )
    return PolygonSubdivision(n, diags, kind)
