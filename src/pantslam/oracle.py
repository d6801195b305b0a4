"""Brute-force reference computations on marked maps.

Everything here is deliberately exhaustive: enumerate all vertex-simple
cycles of the underlying multigraph, classify each one by which marked
face it separates from the other two, and answer packing questions by
explicit search over disjoint collections.  The fast pipeline is checked
against these answers in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional, Union

from .combmap import CombinatorialMap
from .errors import LimitExceeded, OutOfRange
from .exploration import Loop, SigmaGraph

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
        if i not in (1, 2, 3):
            raise OutOfRange("type must be 1, 2 or 3, got %r" % (i,))
        return tuple(c for c, t in enumerate(self.types) if t == i)

    def conflict(self, a: int, b: int) -> bool:
        """Whether two distinct catalog cycles share a vertex."""
        return a != b and bool(self.masks[a] & self.masks[b])

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
    Each cycle is reported once regardless of orientation and starting
    point.  Raises LimitExceeded when the cycle count or the search size
    passes the given bounds.  A bare map is accepted when only the cycle
    list is of interest; every type is then None.
    """
    marked = isinstance(sg, SigmaGraph)
    cm = sg.cmap if marked else sg
    nv = cm.num_vertices
    seen: set[frozenset[int]] = set()
    found: list[Loop] = []
    nodes = 0

    def record(path: list[int]) -> None:
        key = frozenset(cm.edge_of(d) for d in path)
        if len(key) != len(path):
            return
        if key in seen:
            return
        seen.add(key)
        found.append(Loop(tuple(path)))
        if len(found) > cycle_limit:
            raise LimitExceeded("more than %d cycles" % cycle_limit)

    def extend(base: int, u: int, path: list[int], visited: int) -> None:
        nonlocal nodes
        for d in cm.rotations[u]:
            nodes += 1
            if nodes > node_limit:
                raise LimitExceeded("cycle search passed %d steps" % node_limit)
            if path and d == path[-1] ^ 1:
                continue
            w = cm.head(d)
            if w == base:
                record(path + [d])
                continue
            if w < base or (visited >> w) & 1:
                continue
            path.append(d)
            extend(base, w, path, visited | (1 << w))
            path.pop()

    for base in range(nv):
        extend(base, base, [], 1 << base)

    types = []
    masks = []
    for loop in found:
        types.append(sg.classify(loop) if marked else None)
        mask = 0
        for v in loop.vertices(cm):
            mask |= 1 << v
        masks.append(mask)
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


def _max_disjoint(masks: list[int]) -> int:
    """Size of the largest pairwise-disjoint subfamily of vertex masks."""
    masks = _minimal_masks(masks)
    n = len(masks)
    best = 0

    def rec(idx: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        if idx == n or count + (n - idx) <= best:
            return
        if not (masks[idx] & used):
            rec(idx + 1, used | masks[idx], count + 1)
        rec(idx + 1, used, count)

    rec(0, 0, 0)
    return best


def max_disjoint_type(
    sg: SigmaGraph,
    i: int,
    catalog: Optional[CycleCatalog] = None,
) -> int:
    """Largest number of pairwise vertex-disjoint cycles of type i."""
    cat = catalog if catalog is not None else all_simple_cycles(sg)
    return _max_disjoint([cat.masks[c] for c in cat.of_type(i)])


def lamination_space_bruteforce(
    sg: SigmaGraph,
    catalog: Optional[CycleCatalog] = None,
) -> frozenset[tuple[int, int, int]]:
    """All triples countable by a disjoint cycle collection.

    A triple (x1, x2, x3) is achievable when some pairwise vertex-disjoint
    collection contains exactly x_i cycles of type i; cycles separating
    nothing never help and are excluded.  Achievability is closed downward
    since any subcollection stays disjoint.
    """
    cat = catalog if catalog is not None else all_simple_cycles(sg)
    per_type = [_minimal_masks([cat.masks[c] for c in cat.of_type(i)])
                for i in (1, 2, 3)]
    caps = [_max_disjoint(ms) for ms in per_type]

    def achievable(target: tuple[int, int, int]) -> bool:
        # fill the types in order of scarcity, threading the vertex mask
        order = sorted(range(3), key=lambda j: len(per_type[j]))

        def solve(pos: int, used: int) -> bool:
            if pos == 3:
                return True
            j = order[pos]
            cands = [m for m in per_type[j] if not (m & used)]
            k = target[j]
            if len(cands) < k:
                return False

            def choose(k: int, start: int, acc: int) -> bool:
                if k == 0:
                    return solve(pos + 1, used | acc)
                for idx in range(start, len(cands) - k + 1):
                    m = cands[idx]
                    if m & acc:
                        continue
                    if choose(k - 1, idx + 1, acc | m):
                        return True
                return False

            return choose(k, 0, 0)

        return solve(0, 0)

    achieved: set[tuple[int, int, int]] = {(0, 0, 0)}
    box = sorted(
        product(range(caps[0] + 1), range(caps[1] + 1), range(caps[2] + 1)),
        key=sum,
        reverse=True,
    )
    for cand in box:
        if cand in achieved:
            continue
        if achievable(cand):
            for low in product(*(range(x + 1) for x in cand)):
                achieved.add(low)
    return frozenset(achieved)
