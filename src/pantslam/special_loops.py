"""Distinguished loop families around each marked face and the signature.

Let j and k be the other two marked faces and W_i the largest w such
that a path of faces from m_j to m_k, consecutive faces sharing an edge,
keeps every face at distance at least w from m_i.  Then family i has W_i
loops:

- The level-w region R_w (faces within w-1 of m_i) is connected, so
  each component of its complement on the sphere is a disk bounded by
  one boundary walk (see `exploration`).
- So some level-w walk separates m_i from both m_j and m_k exactly when
  these two lie in one complementary component.
- Two faces outside R_w share a component exactly when a path of
  edge-adjacent faces, all at distance >= w, joins them.  A shared
  vertex alone does not join them: either the vertex lies on R_w, or
  the faces around it are joined by edges anyway.
- The components only shrink as w grows, so the levels with such a walk
  are exactly 1..W_i.  W_i <= min(d_ij, d_ik) holds because the path
  starts at m_j and ends at m_k.

W_i is a widest ("maximum capacity") path, Pollack, Oper. Res. 8
(1960).  The family sizes together with the pairwise distances form the
six-entry signature of the marked graph.

The loops come from the same search.  For 1 <= k <= d_ij, the faces
whose widest value from m_j is at least k form m_j's complementary
component of R_k.  A level-k dart whose right face lies in it is on that
component's boundary walk, which separates i from j.  For k <= W_i the
component also holds m_k, and `special_family` walks from the first such
dart for k = 1..W_i.

So the signature certifies the lamination space, the type counts of
pairwise vertex-disjoint cycles: it is the polytope of `polytope`.

- Its points occur: the innermost x_i loops of each family i are
  disjoint, by the pair-meeting rule: the level-a loop of family i and
  the level-b loop of family j meet exactly when a + b > delta_k, and
  two loops of one family never meet.
- x_i + x_j <= delta_k: a cycle of type i or j separates m_i from m_j,
  so it passes one of the delta_k vertices where a shortest face chain
  between them changes faces.
- x_i <= mu_i: n disjoint type-i cycles nest around m_i, and a face
  chain from m_i crosses each at its own vertex, so the faces outside
  the n-th, joined by edges and holding m_j and m_k, lie at distance n
  or more: n <= W_i.  A flood from m_j through edges over the faces at
  distance mu_i + 1 or more from m_i that misses m_k confirms W_i <= mu_i.
- mu_i = W_i, by the widest-path argument above.

Marked faces are numbered 1..3 throughout the public interface.
"""

from __future__ import annotations

from typing import NamedTuple

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


def special_family(sg: SigmaGraph, i: int) -> tuple[Loop, ...]:
    """Loops around marked face i separating it from both other marked
    faces, innermost first.

    The level-k member, for k = 1..W_i, is the level-k loop with both far
    faces beyond it (see the module docstring).
    """
    i0 = _marked_index(i)
    best = _widths(sg, i0, (i0 + 1) % 3, sg.marked[i0])
    face_of = sg.cmap.face_of_dart
    loops = []
    for k in range(1, best[sg.marked[i0 - 1]] + 1):
        start = next(d for d in sg._bucket(i0, k) if best[face_of[d]] >= k)
        loops.append(Loop(sg._walk(i0, k, start)))
    return tuple(loops)


def _widths(sg: SigmaGraph, i0: int, j0: int, stop: int) -> list[int]:
    """Per face, its widest value from marked face j0 under distance from
    marked face i0 (0-based positions), exact once face stop settles.

    A bucket search from m_j with values falling from its distance: a face
    leaves bucket w settled at its widest value w, and an edge to g offers
    g min(w, dist(g)).  Faces not settled when stop does keep lower
    bounds; m_i settles last, at 0.  Each face is settled once and each
    dart read once, so the search costs O(darts + max distance).
    """
    dist = sg._dist_from(sg.marked[i0])
    src = sg.marked[j0]
    faces, face_of = sg.cmap.faces, sg.cmap.face_of_dart
    best = [-1] * len(dist)
    top = best[src] = dist[src]
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    buckets[top].append(src)
    for w in range(top, -1, -1):
        for f in buckets[w]:
            if best[f] != w:
                continue  # raised to a wider bucket after this entry
            if f == stop:
                return best
            for d in faces[f]:
                g = face_of[d ^ 1]
                c = dist[g] if dist[g] < w else w
                if c > best[g]:
                    best[g] = c
                    buckets[c].append(g)
    return best


def sigma_of(sg: SigmaGraph) -> SigmaVector:
    """Six invariants of the marked graph: family sizes, then distances."""
    m = sg.marked
    sizes = [_widths(sg, i0, (i0 + 1) % 3, m[i0 - 1])[m[i0 - 1]] for i0 in range(3)]
    return SigmaVector(*sizes, *sg.distances())
