"""Marked sphere maps and the layered exploration of their face set.

A marked graph is a sphere map together with three distinct marked
faces.  Distance between faces counts vertex-sharing hops.  For a
marked face m and a level k >= 1, the region of level k is the set of
faces within distance k-1 of m; its boundary is walked with a
tightest-turn rule that always hugs the region on the left.

The distances from m come from a breadth-first search over face-vertex
incidence that expands each face and each vertex once (see
`SigmaGraph._dist_from`).  Faces that share a vertex differ in distance
by at most 1, so dart d lies on the boundary of the level-k region
exactly when the face on its left is at distance k-1 and the face on
its right at distance k.  Each dart therefore belongs to at most one
level, and one pass over the darts buckets all levels.

The boundary walks are the orbits of a permutation of the level's darts,
read off the map as `CombinatorialMap` reads faces.  Take a dart d of
level k.  Every face at its head shares that vertex with both faces of
d, so it lies at distance k-1 or k.  Scan counterclockwise from the
reversed dart.  The first dart x whose left face is at k-1 always
exists: at the latest it is the dart just before the reversed dart,
whose left face is d's left face.  The right face of x is the left face
of the dart scanned just before it, which is at k, so x is again of
level k.  The clockwise scan from x back to the reversed dart inverts
this successor, so it permutes the level's darts, every orbit closes and
no dart is missed.  Opening each walk at the least dart not yet seen, in
ascending order, starts each walk at its least dart.

Every walk is vertex-simple: it passes a vertex v once per fan of outside
faces it sweeps there.  Two fans of one walk at v would lie in one
complementary component, and a curve through it and v would separate the
region corners between them.  Yet those corners are joined inside the
region away from v: through the open marked face for k = 1, and for k >= 2
by BFS chains to m whose other faces lie within k-2 and so miss v (else
the outside faces at v would be within k-1).

Sides come from one dual BFS tree per marked graph, rooted at marked
face 1.  By the Jordan curve theorem a vertex-simple closed walk splits
the sphere in two, and a path of faces changes side exactly where it
crosses the walk, so two faces lie on opposite sides exactly when the
tree path between them crosses the walk an odd number of times.
`classify` reads the parities of the tree paths to marked faces 2 and 3,
and `loop_sides` those of every face.  The level-k region is connected
through shared vertices and, at each vertex of a boundary walk, the walk
sweeps past the outside corners only, so the whole region, marked face
i with it, lies left of each of its boundary walks.  A walk that
`classify` types i thus has the other two marked faces beyond it, in the
one complementary component it bounds, and is the only walk of its level
typed i: it is the level's member of the special family (`special_loops`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .combmap import CombinatorialMap
from .errors import (
    BadFaceIndex,
    DuplicateMarkedFace,
    EmptyLayer,
    NotClosed,
    NotSimple,
    OutOfRange,
)


class Loop:
    """A closed walk given by its dart sequence, starting at the least dart."""

    __slots__ = ("darts",)

    def __init__(self, darts: Sequence[int]):
        darts = tuple(darts)
        if not darts:
            raise NotClosed("a loop needs at least one dart")
        for d in darts:
            if type(d) is not int:
                raise OutOfRange("loop darts must be ints, got %r" % (d,))
        i = darts.index(min(darts))
        self.darts = darts[i:] + darts[:i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Loop) and self.darts == other.darts

    def __hash__(self) -> int:
        return hash(self.darts)

    def __repr__(self) -> str:
        return "Loop%r" % (self.darts,)

    def edge_set(self) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.darts)

    def vertices(self, cmap: CombinatorialMap) -> tuple[int, ...]:
        return tuple(map(cmap.dart_vertex.__getitem__, self.darts))


def _marked_index(i: int) -> int:
    if type(i) is not int or not 1 <= i <= 3:
        raise OutOfRange("marked index must be 1, 2 or 3, got %r" % (i,))
    return i - 1


class SigmaGraph:
    """Sphere map with an ordered triple of distinct marked faces.

    Public methods number the marked faces 1..3; only the private helper
    `_bucket` takes a 0-based position into `marked`.
    """

    __slots__ = ("cmap", "marked", "_dist_cache", "_bucket_cache", "_tree")

    def __init__(self, cmap: CombinatorialMap, marked: Sequence[int]):
        marked = tuple(marked)
        if len(marked) != 3:
            raise DuplicateMarkedFace("need exactly three marked faces")
        for f in marked:
            if type(f) is not int or not 0 <= f < cmap.num_faces:
                raise BadFaceIndex("marked_faces: %r is not a face index" % (f,))
        if len(set(marked)) != 3:
            raise DuplicateMarkedFace(marked)
        self.cmap = cmap
        self.marked = marked
        self._dist_cache: dict[int, tuple[int, ...]] = {}
        self._bucket_cache: dict[int, list[list[int]]] = {}
        self._tree: Optional[tuple[list[int], list[int], list[int]]] = None

    # -- face distances ---------------------------------------------------

    def _dist_from(self, src: int) -> tuple[int, ...]:
        """Face distances from face src by a BFS over face-vertex incidence.

        Faces leave the queue in order of distance, so the first face to
        reach a vertex v is one nearest to src, at distance d say.  Every
        face at v is then within d+1, and one not yet reached is exactly
        d+1 away.  Each face and each vertex is expanded once, so the BFS
        reads every dart twice.
        """
        cached = self._dist_cache.get(src)
        if cached is not None:
            return cached
        cm = self.cmap
        faces, rotations = cm.faces, cm.rotations
        tail, face_of = cm.dart_vertex, cm.face_of_dart
        dist = [-1] * cm.num_faces
        dist[src] = 0
        expanded = [False] * cm.num_vertices
        queue = [src]
        for f in queue:
            near = dist[f] + 1
            for d in faces[f]:
                v = tail[d]
                if expanded[v]:
                    continue
                expanded[v] = True
                for x in rotations[v]:
                    g = face_of[x]
                    if dist[g] < 0:
                        dist[g] = near
                        queue.append(g)
        out = tuple(dist)
        self._dist_cache[src] = out
        return out

    # -- layered regions and their boundary walks --------------------------

    def _bucket(self, i: int, k: int) -> list[int]:
        """The darts on the boundary of the level-k region in increasing
        order; one pass over the darts buckets every level at once."""
        if type(k) is not int or k < 1:
            raise OutOfRange("level must be an int of at least 1, got %r" % (k,))
        buckets = self._bucket_cache.get(i)
        if buckets is None:
            dist = self._dist_from(self.marked[i])
            face = self.cmap.face_of_dart
            buckets = self._bucket_cache[i] = [[] for _ in range(max(dist) + 1)]
            for d in range(0, self.cmap.num_darts, 2):
                da, db = dist[face[d]], dist[face[d + 1]]
                if da == db + 1:
                    buckets[da].append(d)
                elif db == da + 1:
                    buckets[db].append(d + 1)
        if k >= len(buckets) or not buckets[k]:
            raise EmptyLayer("level %d around marked face %d" % (k, i + 1))
        return buckets[k]

    def boundary_loops(self, i: int, k: int) -> tuple[Loop, ...]:
        """Boundary walks of the level-k region, each keeping it on the left.

        The walk follows the rim of a slight thickening of the region.  At
        the head of a dart it scans counterclockwise from the reversed dart
        and exits along the first dart that again has the region on its
        left, thereby sweeping past one whole fan of outside corners.  This
        successor permutes the level's darts (see the module docstring), so
        each walk is one of its orbits, opened at its least dart; each is
        vertex-simple (see the module docstring).  Walks come out ordered by
        their least dart.  Marked face i is numbered 1..3.
        """
        i0 = _marked_index(i)
        bucket = self._bucket(i0, k)
        dist = self._dist_from(self.marked[i0])
        nxt, face_of = self.cmap.rotation_next, self.cmap.face_of_dart
        loops = []
        seen: set[int] = set()
        for start in bucket:
            if start in seen:
                continue
            walk, d = [], start
            while not walk or d != start:
                walk.append(d)
                d = nxt[d ^ 1]
                while dist[face_of[d ^ 1]] == k:
                    d = nxt[d]
            seen.update(walk)
            loops.append(Loop(walk))
        return tuple(loops)

    # -- classification -----------------------------------------------------

    def _dual_tree(self) -> tuple[list[int], list[int], list[int]]:
        """The dual BFS tree from marked face 1, built once per graph.

        Returns the faces in BFS order; per face the dart into it from its
        parent, which has the face on its left and the parent on its right
        (-1 at the root); and per edge the crossing bits, bit j-2 set when
        the tree path from marked face 1 to marked face j (j = 2, 3)
        crosses it.  No face repeats on a tree path, so neither path
        crosses an edge twice.
        """
        if self._tree is None:
            cm = self.cmap
            faces, face_of = cm.faces, cm.face_of_dart
            root = self.marked[0]
            via = [-2] * cm.num_faces  # -2 until the face is reached
            via[root] = -1
            order = [root]
            for f in order:
                for d in faces[f]:
                    g = face_of[d ^ 1]
                    if via[g] == -2:
                        via[g] = d
                        order.append(g)
            bits = [0] * cm.num_edges
            for bit, f in ((1, self.marked[1]), (2, self.marked[2])):
                while f != root:
                    bits[via[f] >> 1] |= bit
                    f = face_of[via[f]]
            self._tree = (order, via, bits)
        return self._tree

    def classify(self, loop: Loop) -> Optional[int]:
        """Which marked face a simple loop encloses alone, if any.

        Returns the index (1..3) of the marked face that sits on one side
        by itself, or None when one side holds no marked face at all, in
        which case the loop can be shrunk to a point without meeting any.
        Marked faces 1 and j lie on opposite sides exactly when the tree
        path from 1 to j crosses an odd number of the loop's edges.
        """
        _check_simple(self.cmap, loop)
        bits = self._dual_tree()[2]
        odd = 0
        for d in loop.darts:
            odd ^= bits[d >> 1]
        return _TYPE_OF_PARITY[odd]


# the type of a loop from the parity of its crossings with the tree paths:
# bit 0 set when faces 1 and 2 lie apart, bit 1 when faces 1 and 3 do
_TYPE_OF_PARITY = (None, 2, 3, 1)


def _check_simple(cm: CombinatorialMap, loop: Loop) -> None:
    """Raise unless the loop's darts are the map's, chain up and visit
    each vertex once."""
    if loop.darts[0] < 0 or max(loop.darts) >= cm.num_darts:
        raise NotClosed("walk leaves the darts 0..%d: %r" % (cm.num_darts - 1, loop))
    tails = loop.vertices(cm)
    for t, d in enumerate(loop.darts):
        if cm.dart_vertex[d ^ 1] != tails[t + 1 - len(tails)]:
            raise NotClosed("dart walk does not chain up at position %d" % t)
    if len(set(tails)) != len(tails):
        raise NotSimple("walk revisits a vertex: %r" % (loop,))


def loop_sides(sg: SigmaGraph, loop: Loop) -> tuple[frozenset[int], frozenset[int]]:
    """The two face sets separated by a vertex-simple closed walk: the side
    left of its first dart, then the other.

    By dual-tree parity: a face lies on its tree parent's side unless the
    tree edge between them lies on the walk.  Unlike `classify`, it does
    not check that the walk is closed and vertex-simple.
    """
    order, via, _ = sg._dual_tree()
    cm = sg.cmap
    on = loop.edge_set()
    side = [False] * cm.num_faces
    for g in order[1:]:
        d = via[g]
        side[g] = side[cm.face_of_dart[d]] ^ ((d >> 1) in on)
    s = side[cm.face_of_dart[loop.darts[0] ^ 1]]
    left = frozenset(f for f, x in enumerate(side) if x == s)
    return left, frozenset(range(cm.num_faces)).difference(left)
