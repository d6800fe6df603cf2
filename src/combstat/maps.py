"""Bijections between the families, with inverses.

Every map here carries a statistic along with it (depth to height,
depth to separating diagonals, labels to permutation entries); the
transport laws are checked by the test-suite and by
``combstat.verify`` (the ``bijections`` suite) rather than here.

Three of the six maps are built from the other three:

* a plane tree's text is its Dyck walk inside one pair of parentheses,
  ``(`` for U and ``)`` for D, so plane <-> Dyck translates the plane
  codec of ``objects``;
* f_R is f_L conjugated by the mirror image: f_R = rc . f_L . mirror,
  where rc reverses a walk and swaps U and D;
* a triangulation is the dissection of the Schroeder tree whose nodes
  all have two children, and a binary tree is that tree as it is.

The recursions are private module-level functions, so a tracer that
wraps the public names sees no call per tree node, and no nested
function that calls itself holds what it builds in a reference cycle.
"""

from __future__ import annotations

from bisect import bisect_right

from .objects import (
    PolygonSubdivision,
    increasing_to_perm,
    perm_to_increasing,
    plane_from_text,
    plane_to_text,
)

_TEXT_TO_WALK = str.maketrans("()", "UD")
_WALK_TO_TEXT = str.maketrans("UD", "()")
_REVERSE_STEP = str.maketrans("UD", "DU")


# ------------------------------------------------- plane <-> Dyck

def plane_to_dyck(t) -> str:
    """Preorder edge walk: U going down to each child, D coming back."""
    return plane_to_text(t)[1:-1].translate(_TEXT_TO_WALK)


def dyck_to_plane(w: str):
    # without this check the text "()" would read as a plane tree
    if set(w) - {"U", "D"}:
        raise ValueError("walk is not a Dyck path")
    return plane_from_text("(%s)" % w.translate(_WALK_TO_TEXT))


# ------------------------------------------------ binary <-> Dyck

def binary_to_dyck_fl(t) -> str:
    """f_L: U, the left subtree's walk, D, the right subtree's walk, so
    the leftmost leaf's depth is the initial run of up-steps."""
    steps = []
    _fl_steps(t, steps.append)
    return "".join(steps)


def _fl_steps(node, emit):
    while node is not None:
        emit("U")
        _fl_steps(node[0], emit)
        emit("D")
        node = node[1]


def dyck_to_binary_fl(w: str):
    """Invert f_L.  Words satisfy W ::= "" | U W D W, so the first
    character decides between leaf and node."""
    t, i = _fl_parse(w, 0)
    if i != len(w):
        raise ValueError("walk is not in the image of f_L")
    return t


def _fl_parse(w, i):
    if i >= len(w) or w[i] == "D":
        return None, i
    left, i = _fl_parse(w, i + 1)
    if i >= len(w) or w[i] != "D":
        raise ValueError("unbalanced walk")
    right, i = _fl_parse(w, i + 1)
    return (left, right), i


def _mirror(t):
    return None if t is None else (_mirror(t[1]), _mirror(t[0]))


def _reverse_walk(w: str) -> str:
    """rc: the walk read backwards, so each U becomes a D and each D a U."""
    return w[::-1].translate(_REVERSE_STEP)


def binary_to_dyck_fr(t) -> str:
    """f_R = rc . f_L . mirror: the leftmost leaf's depth, the mirror's
    rightmost, is the number of returns to the axis."""
    return _reverse_walk(binary_to_dyck_fl(_mirror(t)))


def dyck_to_binary_fr(w: str):
    return _mirror(dyck_to_binary_fl(_reverse_walk(w)))


# ------------------------------------- schroeder <-> dissection

def schroeder_to_dissection(t) -> PolygonSubdivision:
    """Each node becomes a chord of the polygon: a node whose subtree
    covers leaves a..b-1 gets (a, b), its children split (a, b) at the
    partial sums of their leaf counts, and its face is that whole fan.
    The root gets the root side, each other internal node a diagonal,
    each leaf a side."""
    diags = set()
    n = _chords(t, 0, diags.add) - 1
    diags.discard((0, n + 1))
    return PolygonSubdivision(n, frozenset(diags))


def _chords(node, a, emit):
    """Emit the chord (a, b) of node and of each node below it; return b."""
    if not node:
        return a + 1
    b = a
    for child in node:
        b = _chords(child, b, emit)
    emit((a, b))
    return b


def dissection_to_schroeder(sub: PolygonSubdivision):
    # ends[v]: v + 1 and the far ends of v's diagonals, ascending
    ends = [[v + 1] for v in range(sub.n + 1)]
    for a, b in sub.diagonals:
        ends[a].append(b)
    for row in ends:
        row.sort()
    return _face_tree(ends, 0, sub.n + 1)


def _face_tree(ends, a, b):
    """The subtree under the chord (a, b): walk the face on its far
    side, from each vertex to the farthest one reachable by a chord of
    the dissection or a side, never the base itself."""
    if b == a + 1:
        return ()
    kids = []
    cur = a
    while cur < b:
        row = ends[cur]
        nxt = row[bisect_right(row, b - 1 if cur == a else b) - 1]
        kids.append(_face_tree(ends, cur, nxt))
        cur = nxt
    return tuple(kids)


# -------------------------------------- binary <-> triangulation

def _plane_to_binary(t):
    if not t:
        return None
    if len(t) != 2:
        raise ValueError("a face with %d sides is not a triangle: not a triangulation"
                         % (len(t) + 1))
    return (_plane_to_binary(t[0]), _plane_to_binary(t[1]))


# the chord walk reads a binary tree as it is: a leaf None is falsy like
# (), and a node (left, right) iterates over its two children
binary_to_triangulation = schroeder_to_dissection


def triangulation_to_binary(sub: PolygonSubdivision):
    return _plane_to_binary(dissection_to_schroeder(sub))


# ------------------------------------------------------- registry

# id -> (source family, target family, forward, inverse)
BIJECTIONS = {
    "plane-to-dyck": ("plane", "dyck", plane_to_dyck, dyck_to_plane),
    "binary-to-dyck-fr": ("binary", "dyck", binary_to_dyck_fr, dyck_to_binary_fr),
    "binary-to-dyck-fl": ("binary", "dyck", binary_to_dyck_fl, dyck_to_binary_fl),
    "binary-to-triangulation": (
        "binary",
        "triangulation",
        binary_to_triangulation,
        triangulation_to_binary,
    ),
    "schroeder-to-dissection": (
        "schroeder",
        "dissection",
        schroeder_to_dissection,
        dissection_to_schroeder,
    ),
    "increasing-to-permutation": (
        "increasing",
        "permutation",
        increasing_to_perm,
        perm_to_increasing,
    ),
}


# --------------------------------------------- path statistics used
# by the transport laws

def dyck_returns(w: str) -> int:
    h = 0
    hits = 0
    for step in w:
        h += 1 if step == "U" else -1
        if h == 0:
            hits += 1
    return hits


def dyck_initial_run(w: str) -> int:
    run = 0
    for step in w:
        if step != "U":
            break
        run += 1
    return run
