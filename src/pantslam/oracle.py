"""Brute-force reference computations on marked maps.

Everything here is deliberately exhaustive: enumerate vertex-simple
cycles of the underlying multigraph, each once, type each one by which
marked face it separates from the other two, and answer packing
questions by explicit search over disjoint collections.  The fast
pipeline is checked against these answers in the test suite.  No search
here recurses, so the depth of a map is bounded by memory alone.

Packing reads only the inclusion-minimal vertex masks of each type, so
`candidate_cycles` enumerates only cycles whose mask can be minimal, by
the chord-split lemma.  Let C be a simple cycle of parity t != 0 (the two
crossing bits that `SigmaGraph.classify` reads), so of type 1, 2 or 3.

- A chord of C, an edge off C joining two vertices of C that are not
  consecutive on it, splits C into two simple cycles C1 and C2, each
  visiting a strict subset of C's vertices.  The chord's bits cancel, so
  parity(C1) XOR parity(C2) = t.  If parity(C1) is 0, C2 has C's type;
  if it is t, C1 has.  Either way C's mask is not minimal.
- An edge parallel to an edge of C closes a cycle on those two vertices,
  and a self-loop at a vertex of C one on that vertex.  If it has parity
  t and C has more vertices, C's mask is not minimal.  A parity-0
  parallel edge proves nothing: swapping it in keeps C's vertices.

The search path carries its parity, so when it meets a vertex w, each
edge from w back to a path vertex other than the base and w's
predecessor closes a cycle of known parity.  Parity 0 prunes the branch
and parity p forbids final parity p; so do a parallel edge to the
predecessor and a self-loop at w, for their own nonzero parity.  An edge
from w to the base is a chord of every cycle that goes on past w: parity
0 prunes w (a cycle closing at w has it as a parallel edge of its own
parity), parity p forbids p past w.  If w is the first vertex such an
edge is parallel to the first edge instead, and forbids past w the
parity of the digon they close.  A self-loop at the base forbids its
parity for every cycle through another vertex.  The branch dies once
all three types are forbidden, and a cycle of parity 0 is never kept.
No cycle of a minimal mask is ever cut, so per type the minimal masks
are those of all cycles.

That search runs on the map's series reduction.  A vertex with two
darts, neither on a self-loop, is inner, and any other is a branch
vertex.  Each chain, a maximal walk through inner vertices, becomes one
edge between its two ends, a self-loop if they coincide, carrying the
XOR of the chain's crossing bits.  An inner vertex lies on its chain's
two edges only, so a simple cycle visits a whole chain or none of it,
and two cycles through it both pass the chain's ends: the cycles of the
map are those of the reduced multigraph, with the same parities, and two
of them are disjoint exactly when they share no branch vertex.  So masks
here hold branch vertices only, and the lemma reads on the reduced
multigraph as stated, each chain an edge like any other.
`all_simple_cycles`, which the tests compare with, masks all vertices;
projected onto the branch vertices, its masks have the same minimal ones
per type.  A step is one scanned dart of the reduced multigraph, so a
chain costs one step however long it is.

Each base follows its darts in increasing order, and once the branch
leaving by dart a is done, edge a leaves the 2-core but still cuts
cycles as a chord (Read and Tarjan, Networks 5, 1975).  A kept cycle
leaves the base by its smaller base dart, so those through a are found
by then, and the later ones avoid a: each of their vertices keeps its
two cycle edges in the core.

Packing enumerates the disjoint collections of minimal masks depth
first; a node's candidates are the later masks disjoint from its union.
Below a node, counts are at most its own plus the per-type counts of
its candidates left.  The reached counts are kept downward closed, and
the bound only falls as candidates are used, so once it is reached the
node is done (Bron and Kerbosch, CACM 16, 1973).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from .combmap import CombinatorialMap
from .errors import LimitExceeded
from .exploration import _TYPE_OF_PARITY, SigmaGraph, _marked_index


@dataclass(frozen=True)
class CycleCatalog:
    """A set of vertex-simple cycles of a marked map, as packing reads them.

    types[c] is the separation type of cycle c (1, 2 or 3, or None for a
    cycle bounding a disk free of marked faces); masks[c] is a bitmask of
    the vertices it visits (its branch vertices alone, from
    `candidate_cycles`), used for disjointness tests.
    """

    types: tuple[Optional[int], ...]
    masks: tuple[int, ...]

    def minimal_masks(self, i: int) -> tuple[int, ...]:
        """The inclusion-minimal distinct masks of the cycles of type i."""
        return self._minimal[_marked_index(i)]

    @cached_property
    def _minimal(self) -> tuple[tuple[int, ...], ...]:
        """The minimal masks per type 1..3, reduced once per catalog."""
        return tuple(_minimal_masks([m for t, m in zip(self.types, self.masks) if t == i])
                     for i in (1, 2, 3))

    @cached_property
    def _points(self) -> frozenset[tuple[int, int, int]]:
        """The type counts of the disjoint collections, enumerated once."""
        return _disjoint_counts(self._minimal)


def all_simple_cycles(
    sg: SigmaGraph,
    cycle_limit: int = 100_000,
    node_limit: int = 10_000_000,
) -> CycleCatalog:
    """Enumerate every vertex-simple cycle of the underlying multigraph.

    Cycles are closed dart walks visiting no vertex twice; a self-loop
    edge is a one-dart cycle and a pair of parallel edges a two-dart one.
    A depth-first search from each base vertex meets each cycle at its
    least vertex, in both directions, and keeps the direction whose first
    dart is below its last dart reversed (the even dart of a self-loop).

    The search enters live vertices only, the 2-core from the base up
    (see `_peeled_bases`); a dead base closes its own self-loops only.
    The path carries its vertex mask and its parity of crossings with the
    dual tree, so a closing dart types the cycle by the Jordan curve
    argument of `SigmaGraph.classify` (see the `exploration` docstring).

    Every scanned dart is one step; LimitExceeded is raised when the
    cycle count or the step count passes its bound.
    """
    cm = sg.cmap
    rotations, tail = cm.rotations, cm.dart_vertex
    bits = sg._dual_tree()[2]
    types, masks = [], []  # per cycle
    nodes = 0
    heads = [[(d, tail[d ^ 1]) for d in rot] for rot in rotations]
    # free: live and off the path
    for base, free, _ in _peeled_bases(heads, range(cm.num_vertices)):
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
                        types.append(_TYPE_OF_PARITY[odd ^ bits[d >> 1]])
                        masks.append(mask)
                        if len(masks) > cycle_limit:
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
    return CycleCatalog(tuple(types), tuple(masks))


def candidate_cycles(
    sg: SigmaGraph,
    cycle_limit: int = 100_000,
    node_limit: int = 10_000_000,
) -> CycleCatalog:
    """The cycles of types 1..3 whose vertex masks can be minimal.

    The search of `all_simple_cycles`, pruned by the chord-split lemma of
    the module docstring, with each base edge dropped after its branch,
    run on the map's series reduction (see the module docstring).  Its
    masks hold branch vertices only; its (type, mask) pairs are among
    those of `all_simple_cycles` with the masks projected onto the branch
    vertices, and per type both have the same inclusion-minimal masks.
    Meeting a vertex reads its row once, for its chords, parallel edges
    and self-loops and for the darts the path may leave it by; a vertex
    with none is not entered.

    Every scanned dart of the reduced multigraph is one step: each dart
    of the row of a base or of a vertex met, and each dart the path closes
    by.  A chain of degree-2 vertices costs one step however long it is.
    LimitExceeded is raised when the cycle count or the step count passes
    its bound.
    """
    bases, rows = _series_reduced(sg.cmap, sg._dual_tree()[2])
    at = [-1] * len(rows)  # per path vertex but the base: the parity of the path to it
    types, masks = [], []  # per cycle
    nodes = 0
    for base, live, drop in _peeled_bases(rows, bases):
        row = rows[base]
        nodes += len(row)
        if nodes > node_limit:
            raise LimitExceeded("cycle search passed %d steps" % node_limit)
        loops = 1  # bit p set by a self-loop of parity p at the base
        for t in row:
            if t[1] == base:
                loops |= 1 << t[2]
        for first in sorted(row):  # in dart order; see the module docstring
            if first[1] != base and not (live[first[1]] and live[base]):
                continue  # a dead base enters nothing
            # per path vertex: the darts still to follow, the vertex, the parity
            # of the path to it, two sets of parities (bit p for parity p, bit 0
            # always set, since parity 0 types nothing): those no cycle closing
            # at the vertex by an edge may have, and those no longer cycle may
            # have, and the mask of the path
            stack = [(iter((first,)), base, 0, 1, loops, 1 << base)]
            while stack:
                scan, v, here, shut, banned, mask = stack[-1]
                for d, w, b, r in scan:
                    odd = here ^ b
                    if w == base:
                        nodes += 1
                        if nodes > node_limit:
                            raise LimitExceeded("cycle search passed %d steps" % node_limit)
                        # kept leaving the base by its smaller dart (each path
                        # starts with first)
                        if first[0] < r and not shut >> odd & 1:
                            types.append(_TYPE_OF_PARITY[odd])
                            masks.append(mask)
                            if len(masks) > cycle_limit:
                                raise LimitExceeded("more than %d cycles" % cycle_limit)
                        continue
                    cut, ban, ends, out = banned, banned, [], []  # w's shut and banned
                    for t in rows[w]:
                        nodes += 1
                        if nodes > node_limit:
                            raise LimitExceeded("cycle search passed %d steps" % node_limit)
                        x = t[1]
                        q = odd ^ t[2]  # with at[x]: the parity of the cycle t closes
                        if x == base:
                            # a chord of every longer cycle, unless v is the
                            # base; then parallel to d, 0 for d itself
                            if q:
                                ban |= 1 << q
                            elif v != base:
                                break
                            ends.append(t)
                        elif x == w:  # a self-loop
                            cut |= 1 << t[2]
                        elif at[x] < 0:
                            if live[x]:
                                out.append(t)
                        else:
                            # a chord's, unless x is v; then a digon's, and 0
                            # for the edge the path came by
                            q ^= at[x]
                            if not q and x != v:
                                break
                            cut |= 1 << q
                    else:
                        ban |= cut
                        out = ends if ban == 15 else ends + out
                        if out and cut != 15:  # enter w; this break leaves the scan of v
                            at[w] = odd
                            stack.append((iter(out), w, odd, cut, ban, mask | 1 << w))
                            break
                else:
                    stack.pop()
                    at[v] = -1  # harmless for the base, whose entry is never set
            if first[1] != base:  # no kept cycle still to come uses this edge
                drop(base, first)
    return CycleCatalog(tuple(types), tuple(masks))


def _series_reduced(cm: CombinatorialMap, bits: Sequence[int]) -> tuple[list, list]:
    """The map's series reduction (see the module docstring), O(V+E).

    Every vertex but an inner one is a branch vertex; if all are inner,
    the map is one cycle and vertex 0 ends its chain.  Each reduced dart
    is a tuple (d, x, b, r): d is the dart it leaves its branch vertex
    by, x its head, b the XOR of the crossing bits along it and r the d
    of the reduced dart back.  Returns the branch vertices in increasing order
    and per vertex its row (its reduced darts in rotation order, None for
    an inner vertex).
    """
    rotations, tail, nxt = cm.rotations, cm.dart_vertex, cm.rotation_next
    inner = [len(rot) == 2 and tail[rot[0] ^ 1] != v for v, rot in enumerate(rotations)]
    bases = [v for v, i in enumerate(inner) if not i]
    if not bases:  # one cycle: vertex 0 ends its only chain
        inner[0] = False
        bases = [0]
    rows = [None] * cm.num_vertices
    for v in bases:
        rows[v] = row = []
        for d0 in rotations[v]:
            d, b, w = d0, bits[d0 >> 1], tail[d0 ^ 1]
            while inner[w]:
                d = nxt[d ^ 1]  # w's other dart
                b ^= bits[d >> 1]
                w = tail[d ^ 1]
            row.append((d0, w, b, d ^ 1))
    return bases, rows


def _peeled_bases(rows: Sequence, bases: Sequence[int]) -> Iterator[tuple[int, list, Callable]]:
    """Each base vertex in turn, with the list of live vertices and a drop.

    rows[v] lists the darts at base v as tuples that start with the dart
    and its head; bases lists the vertices with a row, in increasing
    order.  A vertex with fewer than two non-loop darts to live vertices
    lies on no cycle through another vertex, so it dies, and so may its
    neighbours in turn; base b dies before the next base is yielded.  The
    live vertices thus form the 2-core from the base up, which holds
    every cycle through the base and higher vertices only.  drop(v, t)
    takes the edge of dart t at v, whose tuple ends with the dart back,
    out of that core for good, with the same cascade.  Each edge is
    counted off at most once, so the deaths cost O(V+E) in total.  A
    caller that marks vertices dead while searching from a base revives
    them before asking for the next.
    """
    # deg: non-loop darts to live vertices, by edges not dropped (darts in gone)
    deg = [0] * len(rows)
    for v in bases:
        deg[v] = sum(t[1] != v for t in rows[v])
    live, gone = [True] * len(rows), set()

    def lower(ends: list[int]) -> None:  # each live vertex of ends loses a dart
        while ends:
            v = ends.pop()
            if live[v]:  # ends may hold dead vertices, v itself by a self-loop
                deg[v] -= 1
                if deg[v] < 2:
                    live[v] = False
                    ends.extend(t[1] for t in rows[v] if t[0] not in gone)

    def drop(v: int, t: tuple) -> None:
        if live[v] and live[t[1]]:  # else a death counted it off
            gone.update((t[0], t[-1]))
            lower([v, t[1]])

    lower([v for v in bases if deg[v] < 2])
    for base in bases:
        yield base, live, drop
        if live[base]:  # it loses every dart and dies
            lower([base] * deg[base])


def _minimal_masks(masks: list[int]) -> tuple[int, ...]:
    """Inclusion-minimal distinct masks.

    Packing questions are unchanged by this reduction: swapping a cycle
    for one of the same type whose mask is a subset keeps any disjoint
    collection disjoint, with the same type counts.  This holds for masks
    over all vertices and for masks over branch vertices alone, which
    decide disjointness too (see the module docstring).  The masks are kept
    by size, each unless a kept one is its subset; the kept masks are
    filed by their lowest bit, so a new mask meets only those filed under
    one of its own bits.
    """
    distinct = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    filed: dict[int, list[int]] = {}  # per lowest bit: the kept masks with it
    lows = 0  # the bits filed under
    for m in distinct:
        hit = m & lows
        while hit:
            low = hit & -hit
            if any(k & m == k for k in filed[low]):
                break
            hit ^= low
        else:
            kept.append(m)
            low = m & -m
            filed.setdefault(low, []).append(m)
            lows |= low
    return tuple(kept)


def _disjoint_counts(per_type: Sequence[Sequence[int]]) -> frozenset[tuple[int, int, int]]:
    """The type counts of the disjoint collections of masks, per_type[j] of
    type j+1, enumerated as the module docstring says."""
    order = sorted(range(3), key=lambda j: len(per_type[j]))  # the scarcest type first
    masks = [m for j in order for m in per_type[j]]
    kinds = [j for j in order for _ in per_type[j]]
    reached = {(0, 0, 0)}
    # per node: its counts, its candidates, the next one to take, and the
    # per-type count of the candidates from that one on
    stack = [((0, 0, 0), list(range(len(masks))), 0, [len(ms) for ms in per_type])]
    while stack:
        here, cands, i, rest = stack[-1]
        if i == len(cands) or (here[0] + rest[0], here[1] + rest[1], here[2] + rest[2]) in reached:
            stack.pop()
            continue
        k = cands[i]
        j, m = kinds[k], masks[k]
        rest[j] -= 1
        stack[-1] = (here, cands, i + 1, rest)
        child = here[:j] + (here[j] + 1,) + here[j + 1:]
        later = [c for c in cands[i + 1:] if not masks[c] & m]
        counts = [0, 0, 0]
        for c in later:
            counts[kinds[c]] += 1
        stack.append((child, later, 0, counts))
        below = [child]
        while below:
            p = below.pop()
            if p not in reached:
                reached.add(p)
                below.extend(p[:t] + (p[t] - 1,) + p[t + 1:] for t in range(3) if p[t])
    return frozenset(reached)


def max_disjoint_type(sg: SigmaGraph, i: int, catalog: Optional[CycleCatalog] = None) -> int:
    """Largest number of pairwise vertex-disjoint cycles of type i.

    Read off the whole lamination space, which the first call computes for
    all three types and caches on the catalog.
    """
    i0 = _marked_index(i)
    cat = catalog if catalog is not None else candidate_cycles(sg)
    return max(p[i0] for p in cat._points)


def lamination_space_bruteforce(
    sg: SigmaGraph, catalog: Optional[CycleCatalog] = None
) -> frozenset[tuple[int, int, int]]:
    """All triples countable by a disjoint cycle collection.

    A triple (x1, x2, x3) is achievable when some pairwise vertex-disjoint
    collection contains exactly x_i cycles of type i; cycles separating
    nothing never help and are excluded.  The catalog keeps the answer.
    """
    cat = catalog if catalog is not None else candidate_cycles(sg)
    return cat._points
