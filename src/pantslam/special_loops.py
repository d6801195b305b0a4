"""Distinguished loop families around each marked face and the signature.

For marked face i and a level k up to its distance from a second marked
face j, exactly one boundary loop of the level-k region keeps j on its
far side.  The region lies left of each of its boundary loops, so that
loop is the one separating i from j, which `SigmaGraph.classify` types
i or j by dual-tree parity (see `exploration`).  A loop typed i
separates i from both other marked faces, so the loop toward j equals
the loop toward the third marked face exactly when it is typed i:
`special_family` takes one level-k loop typed i per level, up to the
first level that has none.  Two loops typed i at one level would both
be the loop toward j, so there is at most one.  For 1 <= k <= d_ij at
least one level-k loop is typed i or j: j lies outside the connected
level-k region, so the loop bounding j's complementary component
separates i from j; `loop_toward` takes the first.

`sigma_of` reads the family sizes without walking a loop.  Let j and k
be the other two marked faces and W_i the largest w such that a path of
faces from m_j to m_k, consecutive faces sharing an edge, keeps every
face at distance at least w from m_i.  Then family i has W_i loops:

- The level-w region R_w (faces within w-1 of m_i) is connected, so
  each component of its complement on the sphere is a disk bounded by
  one boundary walk.
- So some level-w walk is typed i exactly when m_j and m_k lie in one
  complementary component.
- Two faces outside R_w share a component exactly when a path of
  edge-adjacent faces, all at distance >= w, joins them.  A shared
  vertex alone does not join them: either the vertex lies on R_w, or
  the faces around it are joined by edges anyway.
- The components only shrink as w grows, so the levels with a walk
  typed i are exactly 1..W_i, which is `special_family`'s stop rule.
  W_i <= min(d_ij, d_ik) holds because the path starts at m_j and ends
  at m_k.

W_i is a widest ("maximum capacity") path, Pollack, Oper. Res. 8
(1960).  The family sizes together with the pairwise distances form the
six-entry signature of the marked graph.

Marked faces are numbered 1..3 throughout the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import OutOfRange
from .exploration import Loop, SigmaGraph, _marked_index


class SigmaVector(NamedTuple):
    """Signature sextuple: three family sizes, then three distances.

    The distance entry at position i concerns the two marked faces other
    than i, so both halves permute the same way under relabeling.
    """

    m1: int
    m2: int
    m3: int
    d1: int
    d2: int
    d3: int

    @property
    def mu(self) -> tuple[int, int, int]:
        return (self.m1, self.m2, self.m3)

    @property
    def delta(self) -> tuple[int, int, int]:
        return (self.d1, self.d2, self.d3)


class NuVector(NamedTuple):
    """Slack triple: far family sizes minus the opposite distance."""

    n1: int
    n2: int
    n3: int


@dataclass(frozen=True)
class SpecialLoopFamily:
    """The nested separating loops around marked face i, innermost first."""

    i: int
    loops: tuple[Loop, ...]

    def __len__(self) -> int:
        return len(self.loops)


def loop_toward(sg: SigmaGraph, i: int, j: int, k: int) -> Loop:
    """The unique level-k loop around marked face i with face j beyond it.

    Indices i and j are 1-based and must be distinct.  Such a loop exists
    for every level 1..d_ij (see the module docstring).
    """
    mi, mj = sg.marked[_marked_index(i)], sg.marked[_marked_index(j)]
    if mi == mj:
        raise OutOfRange("need two distinct marked indices, got %r, %r" % (i, j))
    dij = sg.face_distance(mi, mj)
    if type(k) is not int or not 1 <= k <= dij:
        raise OutOfRange(
            "level %r outside 1..%d for marked pair (%d, %d)" % (k, dij, i, j)
        )
    return next(lp for lp in sg.boundary_loops(i, k) if sg.classify(lp) in (i, j))


def special_family(sg: SigmaGraph, i: int) -> SpecialLoopFamily:
    """Loops around marked face i separating it from both other marked faces.

    The level-k member is the level-k loop typed i, for k = 1, 2, ...; the
    family ends at the first level that has none.  Levels run up to the
    distance of the nearer far face, past which the region holds that face
    and no loop is typed i.
    """
    m = sg.marked[_marked_index(i)]
    top = min(sg.face_distance(m, g) for g in sg.marked if g != m)
    out = []
    for k in range(1, top + 1):
        found = [lp for lp in sg.boundary_loops(i, k) if sg.classify(lp) == i]
        if not found:
            break
        out.append(found[0])
    return SpecialLoopFamily(i, tuple(out))


def _widest(sg: SigmaGraph, i0: int) -> int:
    """W_i for the marked face at position i0 (see the module docstring).

    A bucket search from the next marked face with values falling from
    its distance: a face leaves bucket w settled at its widest value w,
    and an edge to g offers g min(w, dist(g)).  Each face is settled once
    and each dart read once, so the search costs O(darts + max distance).
    """
    dist = sg._dist_from(sg.marked[i0])
    src, dst = sg.marked[(i0 + 1) % 3], sg.marked[(i0 + 2) % 3]
    faces, face_of = sg.cmap.faces, sg.cmap.face_of_dart
    best = [-1] * len(dist)
    top = best[src] = dist[src]
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    buckets[top].append(src)
    for w in range(top, -1, -1):
        for f in buckets[w]:
            if best[f] != w:
                continue  # raised to a wider bucket after this entry
            if f == dst:
                return w
            for d in faces[f]:
                g = face_of[d ^ 1]
                c = dist[g] if dist[g] < w else w
                if c > best[g]:
                    best[g] = c
                    buckets[c].append(g)
    return best[dst]


def sigma_of(sg: SigmaGraph) -> SigmaVector:
    """Six invariants of the marked graph: family sizes, then distances."""
    sizes = tuple(_widest(sg, i0) for i0 in range(3))
    return SigmaVector(*(sizes + sg.distances()))
