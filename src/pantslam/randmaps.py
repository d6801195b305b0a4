"""Seeded random planar maps for randomized testing.

Maps grow from a single self-loop by local surgeries on the rotation
system; every surgery preserves planarity, so each intermediate map
stays a valid sphere map.  The rotations live in per-dart successor and
predecessor links while the map grows, so each surgery costs O(1) plus
the length of the faces it touches.  Every surgery adds exactly one
edge, so the growth loop counts the edges itself, one per surgery.  The
finished rotations are built into one `CombinatorialMap`, which
validates them once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from random import Random
from typing import Union

from .combmap import CombinatorialMap
from .errors import OutOfRange
from .exploration import SigmaGraph

__all__ = [
    "random_map",
    "random_sigma_graph",
]


class _Rotations:
    """A growing rotation system that keeps the canonical face order.

    nxt[d] and prv[d] are the rotation neighbours of dart d, vertex[d] is
    its tail, and head[v] is the dart the rotation list of v starts with.
    least holds every face's least dart in increasing order, which is the
    face order of `CombinatorialMap`; a face lies right of its darts and
    continues from d to nxt[d ^ 1].  New edges take the next free number,
    so only surgeries that reuse an old dart can move a face's least dart.
    """

    __slots__ = ("nxt", "prv", "vertex", "head", "least")

    def __init__(self) -> None:
        # one vertex carrying one self-loop: faces (0,) and (1,)
        self.nxt = [1, 0]
        self.prv = [1, 0]
        self.vertex = [0, 0]
        self.head = [0]
        self.least = [0, 1]

    def face(self, i: int) -> list[int]:
        """Face i in canonical order: its orbit from its least dart."""
        return self._orbit(self.least[i])

    def _orbit(self, d: int) -> list[int]:
        nxt = self.nxt
        out = [d]
        x = nxt[d ^ 1]
        while x != d:
            out.append(x)
            x = nxt[x ^ 1]
        return out

    def _new_edge(self) -> int:
        m = len(self.vertex) >> 1
        self.nxt += (0, 0)
        self.prv += (0, 0)
        self.vertex += (0, 0)
        return m

    def _new_vertex(self, d: int) -> None:
        self.nxt[d] = self.prv[d] = d
        self.vertex[d] = len(self.head)
        self.head.append(d)

    def _insert_after(self, x: int, d: int) -> None:
        nxt, prv, vertex = self.nxt, self.prv, self.vertex
        y = nxt[x]
        nxt[x], prv[d], nxt[d], prv[y] = d, x, y, d
        vertex[d] = vertex[x]

    def _insert_before(self, x: int, d: int) -> None:
        self._insert_after(self.prv[x], d)
        v = self.vertex[x]
        if self.head[v] == x:
            self.head[v] = d

    def subdivide(self, k: int) -> None:
        """Split edge k with a degree-2 vertex; face count unchanged."""
        m = self._new_edge()
        x = 2 * k + 1
        self._insert_before(x, 2 * m + 1)
        p, n = self.prv[x], self.nxt[x]
        self.nxt[p], self.prv[n] = n, p
        self._new_vertex(x)
        self._insert_after(x, 2 * m)

    def pendant(self, a: int) -> None:
        """Grow a leaf edge out of the corner after dart a; faces unchanged."""
        m = self._new_edge()
        self._insert_after(a ^ 1, 2 * m)
        self._new_vertex(2 * m + 1)

    def double(self, k: int) -> None:
        """Add an edge parallel to edge k, cutting off a two-sided face.

        The new face is (2k+1, 2m); dart 2m+1 takes the place of 2k+1 in
        the face 2k+1 leaves.
        """
        m = self._new_edge()
        x = 2 * k + 1
        self._insert_after(2 * k, 2 * m)
        self._insert_before(x, 2 * m + 1)
        least = self.least
        i = bisect_left(least, x)
        if i < len(least) and least[i] == x:
            # the new face keeps the entry of x; its old face starts anew
            insort(least, min(self._orbit(2 * m + 1)))
        else:
            least.insert(i, x)

    def loop(self, d: int) -> None:
        """Hang a little loop in the corner after dart d; adds face (2m+1,)."""
        m = self._new_edge()
        self._insert_after(d, 2 * m)
        self._insert_after(2 * m, 2 * m + 1)
        self.least.append(2 * m + 1)

    def chord(self, i: int, a: int, b: int) -> None:
        """Join the corners after darts a and b of face i; splits face i."""
        m = self._new_edge()
        self._insert_after(a ^ 1, 2 * m)
        self._insert_after(b ^ 1, 2 * m + 1)
        del self.least[i]
        insort(self.least, min(self._orbit(2 * m)))
        insort(self.least, min(self._orbit(2 * m + 1)))

    def rotations(self) -> list[list[int]]:
        nxt = self.nxt
        rots = []
        for h in self.head:
            rot = [h]
            x = nxt[h]
            while x != h:
                rot.append(x)
                x = nxt[x]
            rots.append(rot)
        return rots


def _check_count(name: str, value: object) -> None:
    if type(value) is not int:
        raise OutOfRange("%s must be an int, got %r" % (name, value))


def random_map(rng: Union[Random, int], num_faces: int) -> CombinatorialMap:
    """Grow a random sphere map with exactly num_faces faces.

    Doubling, loop and chord surgeries each add one face; subdivision and
    pendant edges reshape without adding faces, and each of the first 500
    steps is one of these two with probability 0.3.  They are the only
    surgeries that add vertices, so large maps carry all their edges on a
    few hundred vertices, some of them hubs of very high degree.
    """
    if isinstance(rng, int):
        rng = Random(rng)
    _check_count("num_faces", num_faces)
    if num_faces < 2:
        raise OutOfRange("a sphere map has at least 2 faces")
    rs = _Rotations()
    least = rs.least
    random, randrange = rng.random, rng.randrange
    # the edge count, which is also the number of the step: each adds one
    ne = 1
    while len(least) < num_faces:
        if ne <= 500 and random() < 0.3:
            if random() < 0.5:
                rs.subdivide(randrange(ne))
            else:
                rs.pendant(randrange(2 * ne))
        else:
            pick = random()
            if pick < 0.4:
                rs.double(randrange(ne))
            elif pick < 0.7:
                rs.loop(randrange(2 * ne))
            else:
                i = randrange(len(least))
                face = rs.face(i)
                if len(face) < 2:
                    rs.loop(randrange(2 * ne))
                else:
                    a, b = rng.sample(face, 2)
                    rs.chord(i, a, b)
        ne += 1
    return CombinatorialMap(rs.rotations())


def random_sigma_graph(
    rng: Union[Random, int],
    max_faces: int = 12,
    min_faces: int = 3,
) -> SigmaGraph:
    """A random sphere map with three random distinct marked faces."""
    if isinstance(rng, int):
        rng = Random(rng)
    _check_count("max_faces", max_faces)
    _check_count("min_faces", min_faces)
    if min_faces < 3:
        raise OutOfRange("marking needs at least 3 faces")
    if max_faces < min_faces:
        raise OutOfRange("max_faces %d is below min_faces %d" % (max_faces, min_faces))
    nf = rng.randint(min_faces, max_faces)
    cm = random_map(rng, nf)
    marked = tuple(rng.sample(range(cm.num_faces), 3))
    return SigmaGraph(cm, marked)
