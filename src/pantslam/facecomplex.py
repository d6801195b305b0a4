"""Surfaces assembled from polygonal faces glued along shared edge ids.

A face is a cyclic list of vertex labels plus a parallel list of edge
ids; side j runs from vertex j to vertex j+1.  Two sides carrying the
same edge id are glued with opposite orientations, which is what makes
the assembled surface oriented.  An id used once is a boundary edge.

Turning a complex into a sphere map: vertex labels merge through the
gluings, the rotation at each merged vertex is recovered corner by
corner, and any boundary gets absorbed into outer faces.  For a face
listed counterclockwise the corner u -> w -> x forces the dart w->x to
be followed counterclockwise at w by the dart w->u.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combmap import CombinatorialMap
from .errors import MalformedRotation, NotClosed

Label = object


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.get(self.parent[p], self.parent[p])
            x = p
            p = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


@dataclass(frozen=True)
class BuiltMap:
    """A sphere map together with bookkeeping back into the complex."""

    cmap: CombinatorialMap
    face_index: tuple[int, ...]  # complex face -> map face
    outer_faces: tuple[int, ...]  # map faces not coming from the complex
    dart_of_side: dict  # (face, position) -> dart along that side


class FaceComplex:
    def __init__(self):
        self._verts: list[tuple] = []
        self._eids: list[tuple] = []

    def add_face(self, vertices, edge_ids) -> int:
        vertices = tuple(vertices)
        edge_ids = tuple(edge_ids)
        if len(vertices) != len(edge_ids) or not vertices:
            raise MalformedRotation("face needs matching vertex and edge lists")
        self._verts.append(vertices)
        self._eids.append(edge_ids)
        return len(self._verts) - 1

    @property
    def num_faces(self) -> int:
        return len(self._verts)

    def face(self, f: int) -> tuple[tuple, tuple]:
        return self._verts[f], self._eids[f]

    def edge_sides(self) -> dict:
        """Edge id -> list of (face, position) using it."""
        sides: dict = {}
        for f, eids in enumerate(self._eids):
            for j, e in enumerate(eids):
                sides.setdefault(e, []).append((f, j))
        return sides

    def _side_ends(self, f: int, j: int) -> tuple[Label, Label]:
        verts = self._verts[f]
        return verts[j], verts[(j + 1) % len(verts)]

    # -- doubling ---------------------------------------------------------

    def doubled(self, spare=()) -> tuple["FaceComplex", dict]:
        """Glue a mirror image along the boundary, except at spared edges.

        Each spared boundary edge is bridged by a new two-sided face
        between the original and its mirror.  Returns the closed complex
        and a dict mapping spared edge id -> index of its new face.
        Interior vertices and edges of the mirror get fresh labels;
        boundary ones are shared so the two copies sew together.
        """
        spare = list(spare)
        sides = self.edge_sides()
        boundary = {e for e, ss in sides.items() if len(ss) == 1}
        for e in spare:
            if e not in boundary:
                raise NotClosed("spared edge %r is not on the boundary" % (e,))
        rim_verts = set()
        for e in boundary:
            f, j = sides[e][0]
            rim_verts.update(self._side_ends(f, j))

        def mv(v):
            return v if v in rim_verts else ("m", v)

        def me(e):
            return e if (e in boundary and e not in spare) else ("m", e)

        out = FaceComplex()
        for verts, eids in zip(self._verts, self._eids):
            out.add_face(verts, eids)
        for verts, eids in zip(self._verts, self._eids):
            n = len(verts)
            rverts = [mv(verts[0])] + [mv(verts[n - 1 - i]) for i in range(n - 1)]
            reids = [me(eids[n - 1 - i]) for i in range(n)]
            out.add_face(rverts, reids)
        digons = {}
        for e in spare:
            f, j = sides[e][0]
            t, h = self._side_ends(f, j)
            digons[e] = out.add_face((h, t), (e, ("m", e)))
        return out, digons

    # -- realization as a sphere map ---------------------------------------

    def to_map(self) -> BuiltMap:
        sides = self.edge_sides()
        for e, ss in sides.items():
            if len(ss) > 2:
                raise NotClosed("edge id %r used %d times" % (e, len(ss)))

        uf = _UnionFind()
        for verts in self._verts:
            for v in verts:
                uf.find(v)
        for ss in sides.values():
            if len(ss) == 2:
                (f1, j1), (f2, j2) = ss
                t1, h1 = self._side_ends(f1, j1)
                t2, h2 = self._side_ends(f2, j2)
                uf.union(t1, h2)
                uf.union(h1, t2)

        # dart numbering: the first-seen side of edge k becomes dart 2k,
        # its partner (other side, or the reversed rim dart) 2k+1
        dart_of_side: dict = {}
        rim_dart: dict = {}
        twin_label: dict = {}
        next_edge = 0
        for f, eids in enumerate(self._eids):
            for j, e in enumerate(eids):
                ss = sides[e]
                if ss[0] != (f, j):
                    continue
                k = next_edge
                next_edge += 1
                dart_of_side[(f, j)] = 2 * k
                if len(ss) == 2:
                    dart_of_side[ss[1]] = 2 * k + 1
                else:
                    rim_dart[(f, j)] = 2 * k + 1
        num_darts = 2 * next_edge

        tail = [None] * num_darts
        for (f, j), d in dart_of_side.items():
            tail[d] = uf.find(self._verts[f][j])
        for (f, j), d in rim_dart.items():
            verts = self._verts[f]
            tail[d] = uf.find(verts[(j + 1) % len(verts)])

        succ = [-1] * num_darts
        is_value = [False] * num_darts
        for f, eids in enumerate(self._eids):
            n = len(eids)
            for j in range(n):
                e = eids[j]
                ss = sides[e]
                if len(ss) == 2:
                    partner = ss[0] if ss[1] == (f, j) else ss[1]
                    tgt = dart_of_side[partner]
                else:
                    tgt = rim_dart[(f, j)]
                src = dart_of_side[(f, (j + 1) % n)]
                succ[src] = tgt
                is_value[tgt] = True

        # boundary rim darts lack a successor; at each merged vertex the
        # single dangling source must meet the single missed target
        open_src: dict = {}
        open_tgt: dict = {}
        for d in range(num_darts):
            if succ[d] < 0:
                if open_src.setdefault(tail[d], d) != d:
                    raise NotClosed("pinched boundary at %r" % (tail[d],))
            if not is_value[d]:
                if open_tgt.setdefault(tail[d], d) != d:
                    raise NotClosed("pinched boundary at %r" % (tail[d],))
        if set(open_src) != set(open_tgt):
            raise NotClosed("boundary fails to close up")
        for cls, d in open_src.items():
            succ[d] = open_tgt[cls]

        seen = [False] * num_darts
        orbits = []
        for start in range(num_darts):
            if seen[start]:
                continue
            orbit = []
            d = start
            while not seen[d]:
                seen[d] = True
                orbit.append(d)
                d = succ[d]
            if d != start:
                raise NotClosed("rotation orbits tangle; bad gluing")
            orbits.append(orbit)
        classes = {tail[d] for d in range(num_darts)}
        if len(orbits) != len(classes):
            raise NotClosed("a glued vertex is pinched into two cycles")
        orbits.sort(key=lambda o: min(o))

        cmap = CombinatorialMap(orbits)
        face_index = tuple(
            cmap.left_face(dart_of_side[(f, 0)]) for f in range(self.num_faces)
        )
        if len(set(face_index)) != self.num_faces:
            raise NotClosed("two complex faces collapsed together")
        outer = tuple(sorted(set(range(cmap.num_faces)) - set(face_index)))
        return BuiltMap(
            cmap=cmap,
            face_index=face_index,
            outer_faces=outer,
            dart_of_side=dart_of_side,
        )
