"""Brute-force reference computations on marked maps.

Everything here is deliberately exhaustive: enumerate all vertex-simple
cycles of the underlying multigraph, each once, type each one by which
marked face it separates from the other two, and answer packing
questions by explicit search over disjoint collections.  The fast
pipeline is checked against these answers in the test suite.  No search
here recurses, so the depth of a map is bounded by memory alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .combmap import CombinatorialMap
from .errors import LimitExceeded, OutOfRange
from .exploration import _TYPE_OF_PARITY, Loop, SigmaGraph

__all__ = [
    "CycleCatalog",
    "all_simple_cycles",
    "max_disjoint_type",
    "lamination_space_bruteforce",
]


@dataclass(frozen=True)
class CycleCatalog:
    """All vertex-simple cycles of a marked map, classified and masked.

    types[c] is the separation type of cycles[c] (1, 2 or 3, or None for
    a cycle bounding a disk free of marked faces); masks[c] is a bitmask
    of the vertices the cycle visits, used for disjointness tests.
    """

    cycles: tuple[Loop, ...]
    types: tuple[Optional[int], ...]
    masks: tuple[int, ...]

    def of_type(self, i: int) -> tuple[int, ...]:
        if type(i) is not int or not 1 <= i <= 3:
            raise OutOfRange("type must be 1, 2 or 3, got %r" % (i,))
        return tuple(c for c, t in enumerate(self.types) if t == i)

    def __len__(self) -> int:
        return len(self.cycles)


def all_simple_cycles(
    sg: Union[SigmaGraph, CombinatorialMap],
    cycle_limit: int = 100_000,
    node_limit: int = 10_000_000,
) -> CycleCatalog:
    """Enumerate every vertex-simple cycle of the underlying multigraph.

    Cycles are closed dart walks visiting no vertex twice; a self-loop
    edge is a one-dart cycle and a pair of parallel edges a two-dart one.
    A depth-first search from each base vertex meets each cycle at its
    least vertex, in both directions, and keeps the direction whose first
    dart is below its last dart reversed (the even dart of a self-loop).

    The search enters live vertices only.  A vertex with fewer than two
    non-loop darts to live vertices lies on no cycle through another
    vertex, so it dies, and so may its neighbours in turn; base b-1 dies
    before base b is searched.  The live vertices thus form the 2-core
    from the base up, which holds every cycle left to find, and a dead
    base closes its own self-loops only.  Each dart is counted off at
    most once, so the deaths cost O(V+E) in total.  The path carries its
    vertex mask and its parity of crossings with the dual tree, so a
    closing dart types the cycle by the Jordan curve argument of
    `SigmaGraph.classify` (see the `exploration` docstring).

    Every scanned dart is one step; LimitExceeded is raised when the
    cycle count or the step count passes its bound.  On a bare map every
    type is None.
    """
    cm = sg.cmap if isinstance(sg, SigmaGraph) else sg
    rotations, tail = cm.rotations, cm.dart_vertex
    bits = sg._dual_tree()[2] if cm is not sg else [0] * cm.num_edges
    # deg: non-loop darts to live vertices; free: live and off the path
    deg = [sum(tail[d ^ 1] != v for d in rot) for v, rot in enumerate(rotations)]
    dying = [v for v, k in enumerate(deg) if k < 2]
    free = [k >= 2 for k in deg]
    found, types, masks = [], [], []  # per cycle: its Loop, type and vertex mask
    nodes = 0
    for base in range(cm.num_vertices):
        if base and free[base - 1]:
            free[base - 1] = False
            dying.append(base - 1)
        while dying:
            for d in rotations[dying.pop()]:
                w = tail[d ^ 1]
                if free[w]:  # a self-loop leads back to the dead vertex
                    deg[w] -= 1
                    if deg[w] < 2:
                        free[w] = False
                        dying.append(w)
        path: list[int] = []
        odd, mask = 0, 1 << base
        scans = [iter(rotations[base])]  # the unscanned darts at each path vertex
        while scans:
            for d in scans[-1]:
                nodes += 1
                if nodes > node_limit:
                    raise LimitExceeded("cycle search passed %d steps" % node_limit)
                w = tail[d ^ 1]
                if w == base:
                    if (path[0] if path else d) < d ^ 1:  # false for the edge walked back
                        found.append(Loop(path + [d]))
                        types.append(_TYPE_OF_PARITY[odd ^ bits[d >> 1]])
                        masks.append(mask)
                        if len(found) > cycle_limit:
                            raise LimitExceeded("more than %d cycles" % cycle_limit)
                    continue
                if not free[w] or not free[base]:  # a dead base enters nothing
                    continue
                path.append(d)
                free[w] = False
                odd ^= bits[d >> 1]
                mask ^= 1 << w
                scans.append(iter(rotations[w]))
                break
            else:
                scans.pop()
                if path:
                    d = path.pop()
                    free[tail[d ^ 1]] = True
                    odd ^= bits[d >> 1]
                    mask ^= 1 << tail[d ^ 1]
    return CycleCatalog(tuple(found), tuple(types), tuple(masks))


def _minimal_masks(masks: list[int]) -> list[int]:
    """Inclusion-minimal distinct masks.

    Packing questions are unchanged by this reduction: swapping a cycle
    for one of the same type visiting a vertex subset keeps any disjoint
    collection disjoint, with the same type counts.
    """
    distinct = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in distinct:
        if not any((k & m) == k for k in kept):
            kept.append(m)
    return kept


def _packs(per_type: Sequence[list[int]], target: Sequence[int]) -> bool:
    """Whether target[j] masks of per_type[j], for every j, are pairwise disjoint.

    One backtracking search with a slot per mask to pick, the scarcest
    type first.  A slot picks a mask after the one the slot before it
    picked when that slot has its type, and leaves enough masks of its
    type for the slots of that type still to come.
    """
    order = sorted(range(len(target)), key=lambda j: len(per_type[j]))
    slots = [(j, target[j] - 1 - r) for j in order for r in range(target[j])]
    used, nxt = [0], [0]  # per slot reached: the picks before it, its next index
    while 0 < len(used) <= len(slots):
        j, after = slots[len(used) - 1]
        masks, u, i = per_type[j], used[-1], nxt[-1]
        stop = len(masks) - after
        while i < stop and masks[i] & u:
            i += 1
        if i >= stop:
            used.pop()
            nxt.pop()
        else:
            nxt[-1] = i + 1
            used.append(u | masks[i])
            nxt.append(i + 1 if after else 0)
    return bool(used)


def _packing_masks(cat: CycleCatalog, i: int) -> list[int]:
    return _minimal_masks([cat.masks[c] for c in cat.of_type(i)])


def max_disjoint_type(
    sg: SigmaGraph,
    i: int,
    catalog: Optional[CycleCatalog] = None,
) -> int:
    """Largest number of pairwise vertex-disjoint cycles of type i."""
    cat = catalog if catalog is not None else all_simple_cycles(sg)
    masks = [_packing_masks(cat, i)]
    k = 0
    while _packs(masks, (k + 1,)):
        k += 1
    return k


def lamination_space_bruteforce(
    sg: SigmaGraph,
    catalog: Optional[CycleCatalog] = None,
) -> frozenset[tuple[int, int, int]]:
    """All triples countable by a disjoint cycle collection.

    A triple (x1, x2, x3) is achievable when some pairwise vertex-disjoint
    collection contains exactly x_i cycles of type i; cycles separating
    nothing never help and are excluded.  Achievability is closed downward
    since any subcollection stays disjoint, so the set grows level by
    level from the origin: a triple one step above the last level is
    searched for only when every triple one step below it is achievable.
    """
    cat = catalog if catalog is not None else all_simple_cycles(sg)
    per_type = [_packing_masks(cat, i) for i in (1, 2, 3)]
    achieved = {(0, 0, 0)}
    level = [(0, 0, 0)]
    while level:
        above = {p[:i] + (p[i] + 1,) + p[i + 1:] for p in level for i in range(3)}
        level = [
            q for q in sorted(above)
            if all(q[:i] + (q[i] - 1,) + q[i + 1:] in achieved for i in range(3) if q[i])
            and _packs(per_type, q)
        ]
        achieved.update(level)
    return frozenset(achieved)
