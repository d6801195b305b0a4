"""Closed surfaces assembled from polygonal faces glued along edge ids.

A face is the cyclic tuple of edge ids along its sides, listed
counterclockwise.  Two sides carrying the same id are glued with
opposite orientations, which keeps the assembled surface oriented.
`to_map` accepts closed complexes only: every id must occur exactly
twice.

Darts: the first-seen side of edge k (faces in order, sides in order)
is dart 2k, its partner 2k+1; the dart along a side has that face on
its left.  The rotation follows from the corner rule: at the corner
between sides j and j+1 of a face, the dart along side j+1 is followed
counterclockwise by the reverse of the dart along side j,

    succ[dart(f, j+1)] = dart(f, j) ^ 1.

Every dart is a side exactly once and a reversed side exactly once, so
succ is a permutation and its orbits are the vertices; there are no
vertex labels that could disagree with the gluing.  The map faces are
the complex faces: the face right of dart(f, j) ^ 1 continues with
succ(dart(f, j)) = dart(f, j-1) ^ 1, so the map face left of the sides
of f is the orbit of the darts dart(f, j) ^ 1 over all j, and these
orbits, one per complex face, partition the darts.  So `face_index` is
a bijection onto the map faces.  Whether the result is a connected
sphere is left to CombinatorialMap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combmap import CombinatorialMap
from .errors import MalformedRotation, NotClosed


@dataclass(frozen=True)
class BuiltMap:
    """A sphere map together with bookkeeping back into the complex."""

    cmap: CombinatorialMap
    face_index: tuple[int, ...]  # complex face -> map face
    face_darts: tuple[tuple[int, ...], ...]  # [face][side] -> dart along it


class FaceComplex:
    def __init__(self):
        self.faces: list[tuple] = []

    def add_face(self, edge_ids) -> None:
        edge_ids = tuple(edge_ids)
        if not edge_ids:
            raise MalformedRotation("a face needs at least one side")
        self.faces.append(edge_ids)

    def to_map(self) -> BuiltMap:
        dart_of: dict = {}  # edge id -> dart along its latest side
        face_darts = []
        n = 0
        for face in self.faces:
            darts = []
            for e in face:
                d = dart_of.get(e)
                if d is None:
                    d = n
                    n += 2
                elif d & 1:
                    raise NotClosed("edge id %r used more than twice" % (e,))
                else:
                    d += 1
                dart_of[e] = d
                darts.append(d)
            face_darts.append(tuple(darts))
        for e, d in dart_of.items():
            if not d & 1:
                raise NotClosed("edge id %r used once" % (e,))

        succ = [0] * n
        for darts in face_darts:
            prev = darts[-1]
            for d in darts:
                succ[d] = prev ^ 1
                prev = d
        seen = [False] * n
        orbits = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = []
            d = start
            while not seen[d]:
                seen[d] = True
                orbit.append(d)
                d = succ[d]
            orbits.append(orbit)

        cmap = CombinatorialMap(orbits)
        face_index = tuple(cmap.left_face(darts[0]) for darts in face_darts)
        return BuiltMap(cmap, face_index, tuple(face_darts))
