"""Rotation-system encoding of graphs embedded in the sphere.

Darts are the integers 0..2E-1.  Dart 2k and dart 2k+1 are the two
sides of edge k, so the twin involution is just xor with 1.  A map is
given by the counterclockwise cyclic order of outgoing darts around
each vertex.  Faces are recovered as the orbits of

    next_face(d) = rotation_successor(twin(d))

which traverses the face lying to the RIGHT of each dart it visits.
Validity demands the sphere condition V - E + F = 2.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Iterable, Sequence

from .errors import (
    Disconnected,
    MalformedRotation,
    NonSpherical,
    UnknownVertex,
)


class CombinatorialMap:
    """Immutable sphere map defined by vertex rotations.

    rotations[v] lists the darts leaving v in counterclockwise order.
    """

    __slots__ = (
        "rotations",
        "dart_vertex",
        "_next",
        "faces",
        "face_of_dart",
    )

    def __init__(self, rotations: Sequence[Sequence[int]]):
        rots = tuple(tuple(r) for r in rotations)
        all_darts = [d for r in rots for d in r]
        n = len(all_darts)
        if n == 0:
            raise MalformedRotation("map must have at least one edge")
        if n % 2 != 0:
            raise MalformedRotation("odd number of darts")
        if sorted(all_darts) != list(range(n)):
            raise MalformedRotation(
                "darts must be exactly 0..%d, each used once" % (n - 1)
            )
        self.rotations = rots

        dart_vertex = [0] * n
        nxt = [0] * n
        for v, r in enumerate(rots):
            k = len(r)
            for i, d in enumerate(r):
                dart_vertex[d] = v
                nxt[d] = r[(i + 1) % k]
        self.dart_vertex = tuple(dart_vertex)
        self._next = tuple(nxt)

        self._check_connected()
        self.faces, self.face_of_dart = self._trace_faces()
        V = len(rots)
        E = n // 2
        F = len(self.faces)
        if V - E + F != 2:
            raise NonSpherical(
                "Euler characteristic %d != 2 (V=%d E=%d F=%d)"
                % (V - E + F, V, E, F)
            )

    # -- basic queries -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.rotations)

    @property
    def num_edges(self) -> int:
        return len(self.dart_vertex) // 2

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def num_darts(self) -> int:
        return len(self.dart_vertex)

    def tail(self, d: int) -> int:
        """Vertex the dart points away from."""
        return self.dart_vertex[d]

    def head(self, d: int) -> int:
        """Vertex the dart points toward."""
        return self.dart_vertex[d ^ 1]

    def rotation_next(self, d: int) -> int:
        return self._next[d]

    def face_of(self, d: int) -> int:
        """Index of the face on the right of dart d."""
        return self.face_of_dart[d]

    def left_face(self, d: int) -> int:
        """Index of the face on the left of dart d."""
        return self.face_of_dart[d ^ 1]

    def degree(self, v: int) -> int:
        if not 0 <= v < len(self.rotations):
            raise UnknownVertex(v)
        return len(self.rotations[v])

    def edge_of(self, d: int) -> int:
        return d >> 1

    def faces_at(self, v: int) -> frozenset[int]:
        """All faces having a corner at vertex v."""
        if not 0 <= v < len(self.rotations):
            raise UnknownVertex(v)
        return frozenset(self.face_of_dart[d] for d in self.rotations[v])

    def face_edges(self, f: int) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.faces[f])

    # -- construction internals ----------------------------------------

    def _check_connected(self) -> None:
        nv = len(self.rotations)
        if nv == 0:
            raise MalformedRotation("no vertices")
        seen = [False] * nv
        seen[0] = True
        queue = deque([0])
        reached = 1
        while queue:
            v = queue.popleft()
            for d in self.rotations[v]:
                w = self.dart_vertex[d ^ 1]
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    queue.append(w)
        if reached != nv:
            raise Disconnected("%d of %d vertices reachable" % (reached, nv))

    def _trace_faces(self):
        n = len(self.dart_vertex)
        face_of = [-1] * n
        orbits = []
        for start in range(n):
            if face_of[start] != -1:
                continue
            orbit = []
            d = start
            while face_of[d] == -1:
                face_of[d] = -2  # placeholder until orbit index known
                orbit.append(d)
                d = self._next[d ^ 1]
            if d != start:
                raise MalformedRotation("face orbit does not close")
            orbits.append(tuple(orbit))
        # canonical order: each orbit starts at its least dart, faces
        # sorted by that least dart
        canon = []
        for orbit in orbits:
            i = orbit.index(min(orbit))
            canon.append(orbit[i:] + orbit[:i])
        canon.sort(key=lambda o: o[0])
        for idx, orbit in enumerate(canon):
            for d in orbit:
                face_of[d] = idx
        return tuple(canon), tuple(face_of)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {"vertices": [list(r) for r in self.rotations]}

    @classmethod
    def from_dict(cls, data: dict) -> "CombinatorialMap":
        """Map from parsed JSON; rotations must be lists of plain ints."""
        rots = data["vertices"]
        if not isinstance(rots, list) or not all(isinstance(r, list) for r in rots):
            raise MalformedRotation("vertices must be a list of dart lists")
        for r in rots:
            for d in r:
                if type(d) is not int:
                    raise MalformedRotation("vertices: dart %r is not an int" % (d,))
        return cls(rots)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CombinatorialMap":
        return cls.from_dict(json.loads(text))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CombinatorialMap)
            and self.rotations == other.rotations
        )

    def __hash__(self) -> int:
        return hash(self.rotations)

    def __repr__(self) -> str:
        return "CombinatorialMap(V=%d, E=%d, F=%d)" % (
            self.num_vertices,
            self.num_edges,
            self.num_faces,
        )


def build_map(
    rotations: Sequence[Sequence[object]],
    pairing: Iterable[tuple[object, object]],
) -> CombinatorialMap:
    """Build a map from arbitrary dart labels plus an explicit twin pairing.

    Each label must appear exactly once in the rotations and exactly once
    in the pairing.  Edge k of the pairing becomes darts 2k and 2k+1.
    """
    label_to_int: dict[object, int] = {}
    for k, (a, b) in enumerate(pairing):
        if a in label_to_int or b in label_to_int or a == b:
            raise MalformedRotation("pairing reuses a dart label")
        label_to_int[a] = 2 * k
        label_to_int[b] = 2 * k + 1
    try:
        int_rots = [[label_to_int[x] for x in r] for r in rotations]
    except KeyError as exc:
        raise MalformedRotation("rotation label %r not in pairing" % (exc.args[0],))
    count = sum(len(r) for r in int_rots)
    if count != len(label_to_int):
        raise MalformedRotation("rotations and pairing disagree on dart count")
    return CombinatorialMap(int_rots)
