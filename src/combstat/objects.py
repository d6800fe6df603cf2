"""The combinatorial families, enumerated exhaustively.

This module is deliberately brute force: it produces the actual objects
(trees, lattice paths, chord diagrams, polygon subdivisions) and reads
statistics off them by walking the object.  It is the ground truth that
the generating-function machinery elsewhere is checked against, so it
shares no code with that machinery.  The enumerators stream their
objects, from a memo of sub-problems that lasts for one enumeration.

It also holds the registry every other module reads: ``FAMILIES`` (one
entry per family: its smallest size, text codec, enumerator and
enumeration budget) and ``STATISTICS`` (one entry per (family,
statistic) pair).  A pair names the generating function it is read off;
where its cells sit and the box that holds them follow from that id and
the family's smallest size, and gfcat works them out.

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
* polygon subdivision -- PolygonSubdivision(n, diagonals): the
                       (n+2)-gon on vertices 0..n+1; the root side is
                       (n+1, 0) and side r means the edge (r, r+1)
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

@dataclass(frozen=True)
class PolygonSubdivision:
    n: int
    diagonals: frozenset


# ---------------------------------------------------------- enumerators

def _streamed(gen, *top):
    """Stream the objects of the top problem of ``gen(*key, sub)``, an
    enumerator that takes its strictly smaller sub-problems from
    ``sub(*key)``.  sub builds each once into a memo that is freed with
    the stream: sub is a partial, not a closure in a reference cycle."""
    return gen(*top, functools.partial(_memo_sub, gen, {}))


def _memo_sub(gen, memo, *key):
    if key not in memo:
        memo[key] = tuple(gen(*key, functools.partial(_memo_sub, gen, memo)))
    return memo[key]


def _catalan(n: int, join, leaf, sub):
    """The objects of size n in a Catalan family, from the one
    decomposition into a first part of size i and a rest of size n-1-i,
    i rising: ``join(first, rest)`` builds an object and ``leaf`` is the
    one of size 0."""
    if n == 0:
        yield leaf
    for i in range(n):
        for first in sub(i, join, leaf):
            for rest in sub(n - 1 - i, join, leaf):
                yield join(first, rest)


def _binary_join(left, right):
    return (left, right)


def _plane_join(first, rest):
    return (first,) + rest


def _dyck_join(inner, tail):
    return "U" + inner + "D" + tail


def binary_trees(n: int):
    """Binary trees with n internal nodes, split at the root."""
    return _streamed(_catalan, n, _binary_join, None)


def plane_trees(n: int):
    """Plane trees with n edges, by first-subtree/rest decomposition."""
    return _streamed(_catalan, n, _plane_join, ())


def dyck_paths(n: int):
    """Dyck paths of length 2n, split at the first return."""
    return _streamed(_catalan, n, _dyck_join, "")


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _schroeder_trees(leaves: int, sub):
    """Plane trees with no unary node and the given number of leaves."""
    if leaves == 1:
        yield ()
    for j in range(2, leaves + 1):
        for comp in _compositions(leaves, j):
            yield from itertools.product(*(sub(c) for c in comp))


def schroeder_trees(leaves: int):
    return _streamed(_schroeder_trees, leaves)


def _noncrossing_interval(x: int, y: int, sub):
    """Noncrossing trees on the points x..y, rooted at x.

    Butterfly decomposition: the largest neighbour c of the root splits
    the inside of the chord (x, c) at a pivot m into a left wing hanging
    off x (points x+1..m-1) and a mirrored right wing hanging off c
    (points m..c-1); the points past c form their own tree rooted at c.
    Each tree arises from exactly one (m, c) pair.
    """
    if x == y:
        yield frozenset()
    for m in range(x + 1, y + 1):
        for c in range(m, y + 1):
            base = (x, c)
            for wing in sub(m, c):
                mirrored = frozenset(
                    (m + c - b, m + c - a) for (a, b) in wing
                )
                for left in sub(x, m - 1):
                    partial = left | {base} | mirrored
                    for tail in sub(c, y):
                        yield partial | tail


def noncrossing_trees(n: int):
    return _streamed(_noncrossing_interval, 0, n)


def perm_to_increasing(perm):
    """Binary increasing tree by the min-split: the minimum becomes the
    root, what is left of it the left subtree, and so on.  One pass, as a
    Cartesian tree (Vuillemin 1980): the stack holds the right spine as
    (label, left subtree); each label folds the greater ones it pops."""
    spine = []
    for v in perm:
        folded = None
        while spine and spine[-1][0] > v:
            label, left = spine.pop()
            folded = (label, left, folded)
        spine.append((v, folded))
    t = None
    for label, left in reversed(spine):
        t = (label, left, t)
    return t


def increasing_to_perm(t):
    """The labels in order, by a walk with its own stack: no depth limit."""
    perm, above = [], []
    while t is not None or above:
        while t is not None:
            above.append(t)
            t = t[1]
        t = above.pop()
        perm.append(t[0])
        t = t[2]
    return tuple(perm)


def increasing_trees(n: int):
    return map(perm_to_increasing, itertools.permutations(range(1, n + 1)))


def _polygon_diagonals(a: int, b: int, most: int, sub):
    """Noncrossing diagonal sets of the sub-polygon on consecutive
    vertices a..b, by the face that holds the base edge (a, b), which is
    not recorded (Flajolet & Noy 1999): its other vertices are 1..most of
    a+1..b-1, fewest first, and each gap between two of them is a
    diagonal that bases a sub-polygon of its own.  most = 1 holds every
    face to a triangle."""
    if b - a < 2:
        yield frozenset()
    for size in range(1, min(most, b - a - 1) + 1):
        for chosen in itertools.combinations(range(a + 1, b), size):
            pts = (a,) + chosen + (b,)
            gaps = [(p, q) for p, q in zip(pts, pts[1:]) if q - p >= 2]
            base = frozenset(gaps)
            for combo in itertools.product(*(sub(p, q, most) for p, q in gaps)):
                yield base.union(*combo)


def _subdivisions(n: int, most: int):
    return map(functools.partial(PolygonSubdivision, n),
               _streamed(_polygon_diagonals, 0, n + 1, most))


def triangulations(n: int):
    return _subdivisions(n, 1)


def dissections(n: int):
    return _subdivisions(n, n)


def enumerate_family(family: str, n: int, budget=None):
    if family not in FAMILIES or FAMILIES[family].enumerate is None:
        raise ValueError("unknown family %r" % (family,))
    check_size(family, n)
    cap = FAMILIES[family].budget if budget is None else budget
    if n > cap:
        raise ValueError(
            "size %d exceeds the %s enumeration budget %d "
            "(pass a larger budget to override)" % (n, family, cap)
        )
    return FAMILIES[family].enumerate(n)


def count_family(family: str, n: int, budget=None) -> int:
    return sum(1 for _ in enumerate_family(family, n, budget))


# ----------------------------------------------------------- statistics

# Each walker recurses through a private module-level function: a nested
# function calling itself is a reference cycle, a public name a tracer call.

def _binary_leaves(node, pos, left, right, emit):
    """Emit each leaf's position in order; an edge adds left or right."""
    if node is None:
        emit(pos)
    else:
        _binary_leaves(node[0], pos + left, left, right, emit)
        _binary_leaves(node[1], pos + right, left, right, emit)


def binary_leaf_depths(t):
    out = []
    _binary_leaves(t, 0, 1, 1, out.append)
    return out


def binary_leaf_abscissas(t):
    """Horizontal position of each leaf, root at 0, a left edge moving
    one unit left and a right edge one unit right."""
    out = []
    _binary_leaves(t, 0, -1, 1, out.append)
    return out


def _plane_leaves(node, d, emit):
    if not node:
        emit(d)
    for child in node:
        _plane_leaves(child, d + 1, emit)


def plane_leaf_depths(t):
    out = []
    _plane_leaves(t, 0, out.append)
    return out


def _plane_nodes(node, d, emit):
    emit(d)
    for child in node:
        _plane_nodes(child, d + 1, emit)


def plane_node_depths_preorder(t):
    out = []
    _plane_nodes(t, 0, out.append)
    return out


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
    order = [0]  # breadth first: the loop reads each vertex appended
    for v in order:
        for w in adj[v]:
            if depth[w] < 0:
                depth[w] = depth[v] + 1
                order.append(w)
    if -1 in depth:
        raise ValueError("chord set is not connected")
    return depth


def _increasing_leaves(node, d, emit):
    if node is None:
        emit(d)
    else:
        _increasing_leaves(node[1], d + 1, emit)
        _increasing_leaves(node[2], d + 1, emit)


def increasing_leaf_depths(t):
    out = []
    _increasing_leaves(t, 0, out.append)
    return out


def _internal_inorder(node, d, emit):
    if node is not None:
        _internal_inorder(node[1], d + 1, emit)
        emit(d)
        _internal_inorder(node[2], d + 1, emit)


def increasing_internal_depths_inorder(t):
    out = []
    _internal_inorder(t, 0, out.append)
    return out


def separating_diagonal_counts(sub: PolygonSubdivision):
    """For each non-root side r = 0..n, how many diagonals separate it
    from the root side (n+1, 0): those (a, b) with a <= r < b, read as
    prefix sums of a difference array."""
    step = [0] * (sub.n + 2)
    for a, b in sub.diagonals:
        step[a] += 1
        step[b] -= 1
    return list(itertools.accumulate(step[:-1]))


def distribution_columns(family, statistic, n, rs, k=None, budget=None):
    """Exhaustive distributions at every requested position r, from one
    walk of each size-n object: {r: (Counter value -> #objects, total)}.

    For the plane leaf statistic the leaf count ``k`` restricts to trees
    with exactly k leaves (the position r then runs over 0..k-1).
    """
    first = check_positions(family, statistic, n, rs, k).start
    walker = statistic_entry(family, statistic).walker
    vectors = map(walker, enumerate_family(family, n, budget))
    counts = {r: Counter() for r in rs}
    if not counts:
        return {}
    if k is not None:
        vectors = (vec for vec in vectors if len(vec) == k)
    rows = map(operator.itemgetter(*(r - first for r in counts)), vectors)
    if len(counts) == 1:
        rows = zip(rows)  # one index picks the entry itself, not a 1-tuple
    # count a bounded batch of rows at a time, column by column, in C
    total = 0
    while batch := list(itertools.islice(rows, 256)):
        for column, values in zip(counts.values(), zip(*batch)):
            column.update(values)
        total += len(batch)
    return {r: (column, total) for r, column in counts.items()}


def distribution(family, statistic, n, r, k=None, budget=None):
    """Exhaustive distribution of the statistic at position r over all
    size-n objects: a (Counter value -> #objects, total) pair."""
    return distribution_columns(family, statistic, n, [r], k, budget)[r]


def average(family, statistic, n, r, k=None, budget=None) -> Fraction:
    counts, total = distribution(family, statistic, n, r, k=k, budget=budget)
    if total == 0:
        raise ValueError("no objects to average over")
    return Fraction(sum(d * c for d, c in counts.items()), total)


# ---------------------------------------------------------- text codecs

def binary_to_text(t) -> str:
    if t is None:
        return "."
    return "(%s%s)" % (binary_to_text(t[0]), binary_to_text(t[1]))


def _binary_parse(s, i):
    if i >= len(s):
        raise ValueError("truncated binary-tree text")
    if s[i] == ".":
        return None, i + 1
    if s[i] != "(":
        raise ValueError("bad character %r in binary-tree text" % s[i])
    left, i = _binary_parse(s, i + 1)
    right, i = _binary_parse(s, i)
    if i >= len(s) or s[i] != ")":
        raise ValueError("unbalanced binary-tree text")
    return (left, right), i + 1


def binary_from_text(s: str):
    t, i = _binary_parse(s, 0)
    if i != len(s):
        raise ValueError("trailing junk in binary-tree text")
    return t


def _plane_text(node):
    return "(%s)" % "".join(map(_plane_text, node))


def plane_to_text(t) -> str:
    return _plane_text(t)


def _plane_parse(s, i):
    if i >= len(s) or s[i] != "(":
        raise ValueError("bad plane-tree text")
    i += 1
    kids = []
    while i < len(s) and s[i] == "(":
        child, i = _plane_parse(s, i)
        kids.append(child)
    if i >= len(s) or s[i] != ")":
        raise ValueError("unbalanced plane-tree text")
    return tuple(kids), i + 1


def plane_from_text(s: str):
    t, i = _plane_parse(s, 0)
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
    pairs = [(int(a), int(b)) for a, _, b in (item.partition("-") for item in s.split(","))]
    out = frozenset(pairs)
    if len(out) < len(pairs):
        raise ValueError("%r lists a pair twice" % (s,))
    return out


def permutation_to_text(perm) -> str:
    if perm and max(perm) > 9:
        return ",".join(str(v) for v in perm)
    return "".join(str(v) for v in perm)


def permutation_from_text(s: str):
    """A permutation of 1..n, as digits ("312") or comma-separated."""
    perm = tuple(int(v) for v in (s.split(",") if "," in s else s))
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError("%r is not a permutation of 1..%d" % (s, len(perm)))
    return perm


def _crossing(d1, d2) -> bool:
    (a, b), (c, d) = sorted((d1, d2))
    return a < c < b < d


def subdivision_from_text(s: str, n: int, kind: str) -> PolygonSubdivision:
    if n is None:
        raise ValueError("parsing a %s needs its size n (the polygon has n+2 sides)"
                         % kind)
    check_size(kind, n)
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
    return PolygonSubdivision(n, diags)


def schroeder_from_text(s: str):
    t = plane_from_text(s)
    stack = [t]
    while stack:
        node = stack.pop()
        if len(node) == 1:
            raise ValueError("a Schroeder tree has no unary node")
        stack.extend(node)
    return t


# ------------------------------------------------------------- registry

@dataclass(frozen=True)
class Family:
    """One family, described once: its smallest size ``min_n`` and its
    text codec; and, for the families that enumerate, ``enumerate(n)``,
    the iterator over its objects of size n, and ``budget``, the default
    cap on the n it enumerates (for schroeder a leaf count).  Both are
    None for permutation, which only convert parses."""
    min_n: int
    to_text: Callable      # object -> text
    from_text: Callable    # (text, n) -> object; only polygons need n
    enumerate: Callable | None = None
    budget: int | None = None


FAMILIES = {
    "binary": Family(0, binary_to_text, lambda s, n: binary_from_text(s), binary_trees, 11),
    "plane": Family(0, plane_to_text, lambda s, n: plane_from_text(s), plane_trees, 11),
    "dyck": Family(0, str, lambda s, n: dyck_from_text(s), dyck_paths, 11),
    "schroeder": Family(1, plane_to_text, lambda s, n: schroeder_from_text(s),
                        schroeder_trees, 10),
    "noncrossing": Family(0, pairs_to_text, lambda s, n: pairs_from_text(s),
                          noncrossing_trees, 8),
    "increasing": Family(
        0, lambda t: permutation_to_text(increasing_to_perm(t)),
        lambda s, n: perm_to_increasing(permutation_from_text(s)), increasing_trees, 8),
    "permutation": Family(0, permutation_to_text, lambda s, n: permutation_from_text(s)),
    "triangulation": Family(0, lambda sub: pairs_to_text(sub.diagonals),
                            lambda s, n: subdivision_from_text(s, n, "triangulation"),
                            triangulations, 11),
    "dissection": Family(0, lambda sub: pairs_to_text(sub.diagonals),
                         lambda s, n: subdivision_from_text(s, n, "dissection"),
                         dissections, 9),
}


@dataclass(frozen=True)
class Statistic:
    """One (family, statistic) pair, described once.

    ``walker(obj)`` lists the statistic at every position of one object,
    in order; ``positions(n, k)`` is the range of valid r, so position r
    is entry ``r - positions(n, k).start`` of the walk.  ``leaf_counts(n)``
    is the range of valid k for the one pair restricted to k leaves;
    every other pair takes no k.

    ``gf`` names the generating function that gfcat reads the pair off:
    position r at size n is its cell z^(n - min_n) x^r (times v^k with
    k), in a box gfcat derives from the id (``gfcat.gf_box``).  A value
    d reads as ``max(d - shift, 0)``.  With ``root`` set, position 0 is
    the root, at depth 0 in every object, and is not read from the
    series.
    """
    walker: Callable
    positions: Callable
    gf: str
    avg_id: str | None = None      # closed-form average id
    uniform_id: str | None = None  # uniform-position average id
    leaf_counts: Callable | None = None
    shift: int = 0
    root: bool = False


def _zero_to_n(n, k):
    return range(n + 1)


def _one_to_n(n, k):
    return range(1, n + 1)


def _zero_to_n_minus_1(n, k):
    return range(n)


STATISTICS = {
    ("binary", "leaf-depth"): Statistic(
        binary_leaf_depths, _zero_to_n, "B",
        avg_id="binary-leaf", uniform_id="binary-leaf"),
    ("binary", "leaf-abscissa"): Statistic(
        binary_leaf_abscissas, _zero_to_n, "Babs", avg_id="binary-abscissa"),
    ("plane", "leaf-depth"): Statistic(
        plane_leaf_depths, lambda n, k: range(k), "P",
        leaf_counts=lambda n: range(1, max(n, 1) + 1)),
    # preorder node r >= 1 is the r-th up-step of the walk
    ("plane", "node-depth"): Statistic(
        plane_node_depths_preorder, _zero_to_n, "U", root=True),
    ("schroeder", "leaf-depth"): Statistic(
        plane_leaf_depths, _zero_to_n_minus_1, "A", avg_id="schroeder-leaf"),
    ("dyck", "vertex-height"): Statistic(
        dyck_vertex_heights, lambda n, k: range(2 * n + 1), "D",
        avg_id="dyck-vertex", uniform_id="dyck-area"),
    ("dyck", "upstep-height"): Statistic(
        dyck_upstep_heights, _one_to_n, "U",
        avg_id="dyck-upstep", uniform_id="dyck-upstep"),
    ("dyck", "downstep-height"): Statistic(
        dyck_downstep_heights, _one_to_n, "W", avg_id="dyck-downstep"),
    ("noncrossing", "node-depth"): Statistic(
        noncrossing_node_depths, _zero_to_n, "G",
        avg_id="noncrossing-node", uniform_id="noncrossing-node"),
    ("increasing", "leaf-depth"): Statistic(
        increasing_leaf_depths, _zero_to_n, "I",
        avg_id="increasing-leaf", uniform_id="increasing-leaf"),
    ("increasing", "internal-depth"): Statistic(
        increasing_internal_depths_inorder, _zero_to_n_minus_1, "J",
        avg_id="increasing-internal"),
    # side r of the polygon is d - 1 diagonals away from the root side,
    # where d is the depth of leaf r of the dual tree: a binary tree of
    # size n, or a Schroeder tree with n+1 leaves; the 2-gon's lone leaf
    # has depth 0 and no diagonals either
    ("triangulation", "separating-diagonals"): Statistic(
        separating_diagonal_counts, _zero_to_n, "B", shift=1),
    ("dissection", "separating-diagonals"): Statistic(
        separating_diagonal_counts, _zero_to_n, "A", shift=1),
}


def check_size(family, n):
    if family not in FAMILIES:
        raise ValueError("unknown family %r" % (family,))
    if n < FAMILIES[family].min_n:
        raise ValueError("size %d out of range for %s" % (n, family))


def statistic_entry(family, statistic) -> Statistic:
    try:
        return STATISTICS[(family, statistic)]
    except KeyError:
        raise ValueError(
            "no statistic %r on family %r" % (statistic, family)
        ) from None


def positions(family, statistic, n, k=None) -> range:
    """The valid positions r at size n (and leaf count k)."""
    entry = statistic_entry(family, statistic)
    check_size(family, n)
    if entry.leaf_counts is None:
        if k is not None:
            raise ValueError("%s %s takes no leaf count k" % (family, statistic))
    elif k is None:
        raise ValueError("%s %s needs the leaf count k" % (family, statistic))
    elif k not in entry.leaf_counts(n):
        raise ValueError("no %s tree of size %d with k=%d leaves" % (family, n, k))
    return entry.positions(n, k)


def check_positions(family, statistic, n, rs, k=None) -> range:
    """Raise ValueError unless every r in rs is a valid position."""
    valid = positions(family, statistic, n, k)
    for r in rs:
        if r not in valid:
            raise ValueError("position r=%d out of range for %s/%s at size %d"
                             % (r, family, statistic, n))
    return valid
