"""Marked sphere maps and the layered exploration of their face set.

A marked graph is a sphere map together with three distinct marked
faces.  Distance between faces counts vertex-sharing hops.  For a
marked face m and a level k >= 1, the region of level k is the set of
faces within distance k-1 of m; its boundary is walked with a
tightest-turn rule that always hugs the region on the left.  Each
resulting closed walk is required to be vertex-simple, and a simple
closed curve on the sphere has exactly two sides.  `classify` tells
them apart without a flood: two faces lie on opposite sides exactly
when a path of faces between them crosses the curve an odd number of
times, so one dual BFS tree from marked face 1 types every loop by two
parities.  `hemispheres` floods the sides when the face sets are needed.

The distances from m come from a breadth-first search over face-vertex
incidence that expands each face and each vertex once (see
`SigmaGraph._dist_from`).  Two more facts make the rest of the
exploration linear in the number of darts:

- Faces that share a vertex differ in distance by at most 1, so dart d
  lies on the boundary of the level-k region exactly when the face on
  its left is at distance k-1 and the face on its right at distance k.
  Each dart therefore belongs to at most one level, and one pass over
  the darts buckets all levels.
- The far side of a vertex-simple boundary walk at level k (the side
  without m) is exactly one edge-connected component of the outer
  region {f : dist(f) >= k}: every face at a vertex of the walk on its
  right lies outside the region, so the region stays on the near side,
  and the only edges leaving the far side are the walk's own.  One
  union-find that adds faces in decreasing distance labels these
  components for every level at once, so the walk toward another
  marked face is the one whose right faces share that face's label.
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


def loop_sides(
    cmap: CombinatorialMap, loop: Loop
) -> tuple[frozenset[int], frozenset[int]]:
    """Split all faces into the left and right side of a simple loop.

    Faces are flooded across every edge not used by the loop.  The two
    floods must exactly partition the face set.
    """
    blocked = loop.edge_set()
    by_edge = [[] for _ in range(cmap.num_faces)]
    for e in range(cmap.num_edges):
        if e in blocked:
            continue
        f0 = cmap.face_of(2 * e)
        f1 = cmap.face_of(2 * e + 1)
        by_edge[f0].append(f1)
        by_edge[f1].append(f0)

    def flood(seed: int) -> frozenset[int]:
        seen = {seed}
        queue = deque([seed])
        while queue:
            f = queue.popleft()
            for g in by_edge[f]:
                if g not in seen:
                    seen.add(g)
                    queue.append(g)
        return frozenset(seen)

    d0 = loop.darts[0]
    left = flood(cmap.left_face(d0))
    right = flood(cmap.face_of(d0))
    if left & right or len(left) + len(right) != cmap.num_faces:
        raise InvariantViolated("loop does not split the sphere in two")
    return left, right


class _Layers:
    """The levels around one marked face, built once from its distances.

    buckets[k] lists the darts on the boundary of the level-k region in
    increasing order.  root[d] labels the component of the outer region
    of dart d's level that holds the face right of d (-1 for darts on no
    boundary), and marked_root[k][j] labels the component holding marked
    face j at level k (-1 while j lies inside the region).  Labels are
    only comparable within one level.
    """

    __slots__ = ("dist", "buckets", "root", "marked_root")

    def __init__(self, cm: CombinatorialMap, dist: Sequence[int], marked: Sequence[int]):
        face = cm.face_of_dart
        top = max(dist)
        buckets: list[list[int]] = [[] for _ in range(top + 1)]
        # edges by the distance of their nearer face: an edge in joins[k]
        # lies inside every outer region of level k or less
        joins: list[list[int]] = [[] for _ in range(top + 1)]
        for d in range(0, cm.num_darts, 2):
            a, b = face[d], face[d + 1]
            da, db = dist[a], dist[b]
            if da == db + 1:
                buckets[da].append(d)
            elif db == da + 1:
                buckets[db].append(d + 1)
            joins[min(da, db)].append(d)

        parent = list(range(cm.num_faces))

        def find(f: int) -> int:
            while parent[f] != f:
                parent[f] = f = parent[parent[f]]
            return f

        root = [-1] * cm.num_darts
        marked_root: list[tuple[int, ...]] = [()] * (top + 1)
        for k in range(top, 0, -1):
            for d in joins[k]:
                a, b = find(face[d]), find(face[d + 1])
                if a != b:
                    parent[a] = b
            for d in buckets[k]:
                root[d] = find(face[d])
            marked_root[k] = tuple(find(m) if dist[m] >= k else -1 for m in marked)
        self.dist = dist
        self.buckets = buckets
        self.root = root
        self.marked_root = marked_root


def _marked_index(i: int) -> int:
    if i not in (1, 2, 3):
        raise OutOfRange("marked index must be 1, 2 or 3, got %r" % (i,))
    return i - 1


class SigmaGraph:
    """Sphere map with an ordered triple of distinct marked faces.

    Public methods number the marked faces 1..3; the private helpers
    `_layers_of` and `_bucket` take 0-based positions into `marked`.
    """

    __slots__ = ("cmap", "marked", "_dist_cache", "_layer_cache", "_crossing")

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
        self._layer_cache: dict[int, _Layers] = {}
        self._crossing: Optional[list[int]] = None

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

    def _layers_of(self, i: int) -> _Layers:
        layers = self._layer_cache.get(i)
        if layers is None:
            dist = self._dist_from(self.marked[i])
            layers = self._layer_cache[i] = _Layers(self.cmap, dist, self.marked)
        return layers

    def _bucket(self, i: int, k: int) -> list[int]:
        if k < 1:
            raise OutOfRange("level must be at least 1, got %d" % k)
        buckets = self._layers_of(i).buckets
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
        dist = self._layers_of(i0).dist
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

    def _crossings(self) -> list[int]:
        """Per edge, bit j-2 set when the dual BFS path from marked face 1
        to marked face j (j = 2, 3) crosses it.  No face repeats on a BFS
        path, so neither path crosses an edge twice.
        """
        if self._crossing is None:
            cm = self.cmap
            root = self.marked[0]
            via = {root: -1}  # face g -> a dart with g on its left, g's parent on its right
            queue = deque([root])
            while queue:
                for d in cm.faces[queue.popleft()]:
                    g = cm.left_face(d)
                    if g not in via:
                        via[g] = d
                        queue.append(g)
            self._crossing = [0] * cm.num_edges
            for bit, f in ((1, self.marked[1]), (2, self.marked[2])):
                while f != root:
                    self._crossing[via[f] >> 1] |= bit
                    f = cm.face_of(via[f])
        return self._crossing

    def classify(self, loop: Loop) -> Optional[int]:
        """Which marked face a simple loop encloses alone, if any.

        Returns the index (1..3) of the marked face that sits on one side
        by itself, or None when one side holds no marked face at all, in
        which case the loop can be shrunk to a point without meeting any.
        A path of faces changes side exactly where it crosses the loop,
        so marked faces 1 and j lie on opposite sides exactly when the
        dual path from 1 to j crosses an odd number of the loop's edges.
        """
        _check_simple(self.cmap, loop)
        bits = self._crossings()
        odd = 0
        for d in loop.darts:
            odd ^= bits[d >> 1]
        # bit 0: faces 1 and 2 apart; bit 1: faces 1 and 3 apart
        return (None, 2, 3, 1)[odd]


# -- public interface, marked faces numbered 1..3 -------------------------


def distance_matrix(sg: SigmaGraph) -> tuple[tuple[int, ...], ...]:
    """All pairwise face distances: entry [f][g] is the distance from f to g."""
    return tuple(sg._dist_from(f) for f in range(sg.cmap.num_faces))


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
    """The two face sets separated by a vertex-simple closed walk."""
    _check_simple(sg.cmap, loop)
    return loop_sides(sg.cmap, loop)
