"""Marked sphere maps and the layered exploration of their face set.

A marked graph is a sphere map together with three distinct marked
faces.  Distance between faces counts vertex-sharing hops.  For a
marked face m and a level k >= 1, the region of level k is the set of
faces within distance k-1 of m; its boundary is walked with a
tightest-turn rule that always hugs the region on the left.  Each
resulting closed walk is required to be vertex-simple.

The distances from m come from a breadth-first search over face-vertex
incidence that expands each face and each vertex once (see
`SigmaGraph._dist_from`).  Faces that share a vertex differ in distance
by at most 1, so dart d lies on the boundary of the level-k region
exactly when the face on its left is at distance k-1 and the face on
its right at distance k.  Each dart therefore belongs to at most one
level, and one pass over the darts buckets all levels.

Sides come from one dual BFS tree per marked graph, rooted at marked
face 1.  By the Jordan curve theorem a vertex-simple closed walk splits
the sphere in two, and a path of faces changes side exactly where it
crosses the walk, so two faces lie on opposite sides exactly when the
tree path between them crosses the walk an odd number of times.
`classify` reads the parities of the tree paths to marked faces 2 and 3,
and `hemispheres` those of every face.  The level-k region is connected
through shared vertices and, at each vertex of a boundary walk, the walk
sweeps past the outside corners only, so the whole region lies left of
each of its boundary walks.  The walk around marked face i with marked
face j on its far side is therefore the one that separates i from j,
and whichever side the third marked face joins, the other holds i or j
alone: it is the one walk typed i or j.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Optional, Sequence

from .combmap import CombinatorialMap
from .errors import (
    BadFaceIndex,
    DuplicateMarkedFace,
    EmptyLayer,
    InvariantViolated,
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
            raise InvariantViolated("empty loop")
        i = darts.index(min(darts))
        self.darts = darts[i:] + darts[:i]

    def __len__(self) -> int:
        return len(self.darts)

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
    if i not in (1, 2, 3):
        raise OutOfRange("marked index must be 1, 2 or 3, got %r" % (i,))
    return i - 1


class SigmaGraph:
    """Sphere map with an ordered triple of distinct marked faces.

    Public methods number the marked faces 1..3; the private helper
    `_bucket` takes 0-based positions into `marked`.
    """

    __slots__ = ("cmap", "marked", "_dist_cache", "_bucket_cache", "_tree")

    def __init__(self, cmap: CombinatorialMap, marked: Sequence[int]):
        marked = tuple(marked)
        if len(marked) != 3:
            raise DuplicateMarkedFace("need exactly three marked faces")
        for f in marked:
            if not 0 <= f < cmap.num_faces:
                raise BadFaceIndex(f)
        if len(set(marked)) != 3:
            raise DuplicateMarkedFace(marked)
        self.cmap = cmap
        self.marked = marked
        self._dist_cache: dict[int, tuple[int, ...]] = {}
        self._bucket_cache: dict[int, list[list[int]]] = {}
        self._tree: Optional[tuple[list[int], list[int], list[int]]] = None

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        d = self.cmap.to_dict()
        d["marked_faces"] = list(self.marked)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SigmaGraph":
        marked = data["marked_faces"]
        if not isinstance(marked, list):
            raise BadFaceIndex("marked_faces must be a list of face indices")
        for f in marked:
            if type(f) is not int:
                raise BadFaceIndex("marked_faces: %r is not an int" % (f,))
        return cls(CombinatorialMap.from_dict(data), marked)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SigmaGraph":
        return cls.from_dict(json.loads(text))

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
        queue = deque([src])
        while queue:
            f = queue.popleft()
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

    def face_distance(self, f: int, g: int) -> int:
        if not 0 <= f < self.cmap.num_faces:
            raise BadFaceIndex(f)
        if not 0 <= g < self.cmap.num_faces:
            raise BadFaceIndex(g)
        return self._dist_from(f)[g]

    def distances(self) -> tuple[int, int, int]:
        """Pairwise marked-face distances, entry i facing marked face i."""
        m = self.marked
        return (
            self.face_distance(m[1], m[2]),
            self.face_distance(m[2], m[0]),
            self.face_distance(m[0], m[1]),
        )

    # -- layered regions and their boundary walks --------------------------

    def _bucket(self, i: int, k: int) -> list[int]:
        """The darts on the boundary of the level-k region in increasing
        order; one pass over the darts buckets every level at once."""
        if k < 1:
            raise OutOfRange("level must be at least 1, got %d" % k)
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
        left, thereby sweeping past one whole fan of outside corners.  Walks
        around distinct outside pockets stay distinct, and every walk must
        be vertex-simple.  Walks come out ordered by their least dart.
        Marked face i is numbered 1..3.
        """
        i0 = _marked_index(i)
        darts = self._bucket(i0, k)
        dist = self._dist_from(self.marked[i0])
        cm = self.cmap
        left_face, rotation_next = cm.left_face, cm.rotation_next

        def successor(d: int) -> int:
            x = d ^ 1
            for _ in range(cm.degree(cm.head(d)) - 1):
                x = rotation_next(x)
                if dist[left_face(x)] < k:
                    return x
            raise InvariantViolated("no exit dart at vertex %d" % cm.head(d))

        loops = []
        visited: set[int] = set()
        for start in darts:
            if start in visited:
                continue
            walk = []
            d = start
            while True:
                if d in visited:
                    raise InvariantViolated("boundary successor not injective")
                visited.add(d)
                walk.append(d)
                d = successor(d)
                if d == start:
                    break
            loop = Loop(walk)
            tails = loop.vertices(cm)
            if len(set(tails)) != len(tails):
                raise NotSimple("boundary walk revisits a vertex: %r" % (loop,))
            loops.append(loop)
        if visited != set(darts):
            raise InvariantViolated("boundary walks missed some darts")
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
            root = self.marked[0]
            via = [-2] * cm.num_faces  # -2 until the face is reached
            via[root] = -1
            order = [root]
            for f in order:
                for d in cm.faces[f]:
                    g = cm.left_face(d)
                    if via[g] == -2:
                        via[g] = d
                        order.append(g)
            bits = [0] * cm.num_edges
            for bit, f in ((1, self.marked[1]), (2, self.marked[2])):
                while f != root:
                    bits[via[f] >> 1] |= bit
                    f = cm.face_of(via[f])
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
        # bit 0: faces 1 and 2 apart; bit 1: faces 1 and 3 apart
        return (None, 2, 3, 1)[odd]


# -- public interface, marked faces numbered 1..3 -------------------------


def layer(sg: SigmaGraph, i: int, k: int) -> frozenset[int]:
    """Faces at distance exactly k from marked face i (k >= 0)."""
    src = sg.marked[_marked_index(i)]
    if k < 0:
        raise OutOfRange("layer radius must be nonnegative, got %d" % k)
    dist = sg._dist_from(src)
    return frozenset(f for f, d in enumerate(dist) if d == k)


def _check_simple(cm: CombinatorialMap, loop: Loop) -> None:
    """Raise unless the loop's darts chain up and visit each vertex once."""
    tails = loop.vertices(cm)
    for t, d in enumerate(loop.darts):
        if cm.dart_vertex[d ^ 1] != tails[t + 1 - len(tails)]:
            raise NotClosed("dart walk does not chain up at position %d" % t)
    if len(set(tails)) != len(tails):
        raise NotSimple("walk revisits a vertex: %r" % (loop,))


def hemispheres(
    sg: SigmaGraph, loop: Loop
) -> tuple[frozenset[int], frozenset[int]]:
    """The two face sets separated by a vertex-simple closed walk: the
    side left of its first dart, then the other."""
    _check_simple(sg.cmap, loop)
    return loop_sides(sg, loop)


def loop_sides(sg: SigmaGraph, loop: Loop) -> tuple[frozenset[int], frozenset[int]]:
    """`hemispheres` without the simplicity check, by dual-tree parity.

    A face lies on its tree parent's side unless the tree edge between
    them lies on the loop.  The name stays because `perfbench` times
    side splits under it.
    """
    order, via, _ = sg._dual_tree()
    cm = sg.cmap
    on = loop.edge_set()
    side = [False] * cm.num_faces
    for g in order[1:]:
        d = via[g]
        side[g] = side[cm.face_of_dart[d]] ^ ((d >> 1) in on)
    s = side[cm.left_face(loop.darts[0])]
    left = frozenset(f for f, x in enumerate(side) if x == s)
    return left, frozenset(range(cm.num_faces)).difference(left)
