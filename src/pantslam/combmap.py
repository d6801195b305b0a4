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

from itertools import chain
from typing import Sequence

from .errors import (
    Disconnected,
    MalformedRotation,
    NonSpherical,
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
        rots = tuple(map(tuple, rotations))
        all_darts = list(chain.from_iterable(rots))
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
            if not r:  # left for the connectivity check to reject
                continue
            prev = r[-1]
            for d in r:
                dart_vertex[d] = v
                nxt[prev] = d
                prev = d
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

    def edge_of(self, d: int) -> int:
        return d >> 1

    # -- construction internals ----------------------------------------

    def _check_connected(self) -> None:
        nv = len(self.rotations)
        if nv == 0:
            raise MalformedRotation("no vertices")
        rotations, tail = self.rotations, self.dart_vertex
        seen = [False] * nv
        seen[0] = True
        queue = [0]
        for v in queue:
            for d in rotations[v]:
                w = tail[d ^ 1]
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        if len(queue) != nv:
            raise Disconnected("%d of %d vertices reachable" % (len(queue), nv))

    def _trace_faces(self):
        """Face orbits in canonical order, and the face of each dart.

        Each orbit starts at its least dart and faces are sorted by that
        dart: the scan opens an orbit at the least untraced dart, which
        no earlier orbit holds, so the orbits come out in that order.
        The darts are exactly 0..2E-1, so `_next` and the twin swap both
        permute them, and so does their composite.  Its orbits are cycles,
        and earlier orbits are whole ones, so a trace stops only on
        returning to the dart it was opened with.  The composite is built
        as one list, `_next` with the entries of each dart pair swapped.
        """
        nxt = self._next
        n = len(nxt)
        step = [0] * n
        step[0::2], step[1::2] = nxt[1::2], nxt[0::2]
        face_of = [-1] * n
        faces = []
        for start in range(n):
            if face_of[start] != -1:
                continue
            f = len(faces)
            face_of[start] = f
            orbit = [start]
            d = step[start]
            while d != start:
                face_of[d] = f
                orbit.append(d)
                d = step[d]
            faces.append(tuple(orbit))
        return tuple(faces), tuple(face_of)

    # -- serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {"vertices": [list(r) for r in self.rotations]}

    @classmethod
    def from_dict(cls, data: dict) -> "CombinatorialMap":
        """Map from parsed JSON; rotations must be lists of plain ints."""
        if not isinstance(data, dict):
            raise MalformedRotation("a map must be a dict, got %s" % type(data).__name__)
        rots = data.get("vertices")
        if not isinstance(rots, list) or not all(isinstance(r, list) for r in rots):
            raise MalformedRotation("vertices must be a list of dart lists")
        if not set(map(type, chain.from_iterable(rots))) <= {int}:
            for r in rots:
                for d in r:
                    if type(d) is not int:
                        raise MalformedRotation("vertices: dart %r is not an int" % (d,))
        return cls(rots)

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

