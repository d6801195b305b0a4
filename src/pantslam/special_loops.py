"""Distinguished loop families around each marked face and the signature.

For marked face i and level k there is exactly one boundary loop of the
level-k region that keeps a chosen second marked face on its far side:
that far side is one edge-connected component of the faces at distance
at least k from i, so the loop is found by comparing component labels
rather than by flooding (see `exploration`).  When the loop toward each
of the two other marked faces is the same curve, that curve separates i
from both and is counted into the family of i.  The family sizes
together with the pairwise distances form the six-entry signature of
the marked graph.

Marked faces are numbered 1..3 throughout the public interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvariantViolated, OutOfRange
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


def _far_loops(sg: SigmaGraph, i0: int, k: int, targets: tuple[int, ...]) -> tuple[Loop, ...]:
    """For each 0-based marked index in targets, its loop among the level-k loops.

    A loop's far side is the outer-region component holding its right
    faces; the loop toward marked face j is the one whose component
    holds j.  All loops of the level come from one boundary walk.
    """
    loops = sg.boundary_loops(i0 + 1, k)
    layers = sg._layers_of(i0)
    want = [layers.marked_root[k][j] for j in targets]
    hits: list[list[Loop]] = [[] for _ in targets]
    for loop in loops:
        roots = {layers.root[d] for d in loop.darts}
        if len(roots) != 1:
            raise InvariantViolated(
                "far side of a level-%d loop spans %d components" % (k, len(roots))
            )
        (r,) = roots
        for t, w in enumerate(want):
            if r == w:
                hits[t].append(loop)
    for found in hits:
        if len(found) != 1:
            raise InvariantViolated(
                "expected one separating loop at level %d, found %d" % (k, len(found))
            )
    return tuple(found[0] for found in hits)


def loop_toward(sg: SigmaGraph, i: int, j: int, k: int) -> Loop:
    """The unique level-k loop around marked face i with face j beyond it.

    Indices i and j are 1-based and must be distinct.
    """
    if i == j or i not in (1, 2, 3) or j not in (1, 2, 3):
        raise OutOfRange("need two distinct marked indices, got %r, %r" % (i, j))
    i0, j0 = i - 1, j - 1
    dij = sg.face_distance(sg.marked[i0], sg.marked[j0])
    if not 1 <= k <= dij:
        raise OutOfRange(
            "level %d outside 1..%d for marked pair (%d, %d)" % (k, dij, i, j)
        )
    (loop,) = _far_loops(sg, i0, k, (j0,))
    return loop


def special_family(sg: SigmaGraph, i: int) -> SpecialLoopFamily:
    """Loops around marked face i separating it from both other marked faces.

    Levels are scanned upward from 1, with one boundary walk per level;
    the family ends at the first level where the loop toward one far face
    differs from the loop toward the other.  Divergence is permanent, so
    no lookahead is needed.
    """
    i0 = _marked_index(i)
    far = ((i0 + 1) % 3, (i0 + 2) % 3)
    top = min(sg.face_distance(sg.marked[i0], sg.marked[j]) for j in far)
    out = []
    for k in range(1, top + 1):
        a, b = _far_loops(sg, i0, k, far)
        if a != b:
            break
        out.append(a)
    return SpecialLoopFamily(i, tuple(out))


def sigma_of(sg: SigmaGraph) -> SigmaVector:
    """Six invariants of the marked graph: family sizes, then distances."""
    sizes = tuple(len(special_family(sg, i)) for i in (1, 2, 3))
    return SigmaVector(*(sizes + sg.distances()))
