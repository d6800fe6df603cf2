"""Bijections between the families, with inverses.

Every map here carries a statistic along with it (depth to height,
depth to separating diagonals, labels to permutation entries); the
transport laws are checked by the test-suite and by
``combstat.verify`` (the ``bijections`` suite) rather than here.
"""

from __future__ import annotations

from .objects import (
    PolygonSubdivision,
    increasing_to_perm,
    perm_to_increasing,
    plane_leaf_count,
)


# ------------------------------------------------- plane <-> Dyck

def plane_to_dyck(t) -> str:
    """Preorder edge walk: U going down to each child, D coming back."""
    return "".join("U" + plane_to_dyck(c) + "D" for c in t)


def dyck_to_plane(w: str):
    def parse(i):
        kids = []
        while i < len(w) and w[i] == "U":
            child, i = parse(i + 1)
            if i >= len(w) or w[i] != "D":
                raise ValueError("unbalanced walk")
            kids.append(child)
            i += 1
        return tuple(kids), i

    t, i = parse(0)
    if i != len(w):
        raise ValueError("walk is not a Dyck path")
    return t


# ------------------------------------------------ binary <-> Dyck

def binary_to_dyck(t, emit: str) -> str:
    """One preorder edge walker for both maps: steps are emitted only on
    edges toward the chosen child direction ("L" or "R").  Emitting on
    right edges gives f_R (leftmost-leaf depth -> number of returns);
    emitting on left edges gives f_L (leftmost-leaf depth -> initial
    run of up-steps)."""
    if emit not in ("L", "R"):
        raise ValueError("emit must be 'L' or 'R'")
    steps = []

    def walk(node):
        if node is None:
            return
        if emit == "L":
            steps.append("U")
        walk(node[0])
        if emit == "L":
            steps.append("D")
        else:
            steps.append("U")
        walk(node[1])
        if emit == "R":
            steps.append("D")

    walk(t)
    return "".join(steps)


def binary_to_dyck_fr(t) -> str:
    return binary_to_dyck(t, "R")


def binary_to_dyck_fl(t) -> str:
    return binary_to_dyck(t, "L")


def dyck_to_binary_fl(w: str):
    """Invert f_L.  Words satisfy W ::= "" | U W D W, so the first
    character decides between leaf and node."""

    def parse(i):
        if i >= len(w) or w[i] == "D":
            return None, i
        left, i = parse(i + 1)
        if i >= len(w) or w[i] != "D":
            raise ValueError("unbalanced walk")
        right, i = parse(i + 1)
        return (left, right), i

    t, i = parse(0)
    if i != len(w):
        raise ValueError("walk is not in the image of f_L")
    return t


def dyck_to_binary_fr(w: str):
    """Invert f_R.  Words satisfy W ::= "" | W U W D -- the mirror
    grammar -- so parse right to left."""

    def parse(j):
        if j <= 0 or w[j - 1] == "U":
            return None, j
        right, j = parse(j - 1)
        if j <= 0 or w[j - 1] != "U":
            raise ValueError("unbalanced walk")
        left, j = parse(j - 1)
        return (left, right), j

    t, j = parse(len(w))
    if j != 0:
        raise ValueError("walk is not in the image of f_R")
    return t


# -------------------------------------- binary <-> triangulation

def binary_leaf_count(t) -> int:
    if t is None:
        return 1
    return binary_leaf_count(t[0]) + binary_leaf_count(t[1])


def binary_to_triangulation(t) -> PolygonSubdivision:
    """Nodes become sides and diagonals of the (n+2)-gon: a node whose
    subtree covers leaves a..b-1 gets the chord (a, b); the root gets
    the root side, each other internal node a diagonal, each leaf a
    side.  The split point is a + (leaves of the left subtree)."""
    n = binary_leaf_count(t) - 1
    diags = set()

    def assign(node, a, b, root):
        if node is None:
            return
        if not root:
            diags.add((a, b))
        m = a + binary_leaf_count(node[0])
        assign(node[0], a, m, False)
        assign(node[1], m, b, False)

    assign(t, 0, n + 1, True)
    return PolygonSubdivision(n, frozenset(diags), "triangulation")


def triangulation_to_binary(sub: PolygonSubdivision):
    diags = sub.diagonals

    def build(a, b):
        if b == a + 1:
            return None
        for m in range(a + 1, b):
            if (m == a + 1 or (a, m) in diags) and (m == b - 1 or (m, b) in diags):
                return (build(a, m), build(m, b))
        raise ValueError("no apex over chord (%d,%d): not a triangulation" % (a, b))

    return build(0, sub.n + 1)


# ------------------------------------- schroeder <-> dissection

def schroeder_to_dissection(t) -> PolygonSubdivision:
    """Same span construction with multiway nodes: a node's children
    split its chord at the partial sums of their leaf counts, and the
    node's face is that whole fan."""
    n = plane_leaf_count(t) - 1
    diags = set()

    def assign(node, a, b, root):
        if not node:
            return
        if not root:
            diags.add((a, b))
        m = a
        for child in node:
            m2 = m + plane_leaf_count(child)
            assign(child, m, m2, False)
            m = m2

    assign(t, 0, n + 1, True)
    return PolygonSubdivision(n, frozenset(diags), "dissection")


def dissection_to_schroeder(sub: PolygonSubdivision):
    diags = sub.diagonals

    def face_points(a, b):
        """Walk the face that has the chord (a, b) as its base: from each
        vertex the next one is the farthest reachable by a chord of the
        dissection (or a polygon side), never using the base itself."""
        pts = [a]
        cur = a
        while cur < b:
            stop = b - 1 if cur == a else b
            for m in range(stop, cur, -1):
                if m == cur + 1 or (cur, m) in diags:
                    pts.append(m)
                    cur = m
                    break
        return pts

    def build(a, b):
        if b == a + 1:
            return ()
        pts = face_points(a, b)
        return tuple(build(p, q) for p, q in zip(pts, pts[1:]))

    if sub.n == 0:
        return ()
    return build(0, sub.n + 1)


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
