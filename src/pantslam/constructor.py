"""Witness construction: build a marked map realizing a target signature.

Two constructions are available.  Ladder blocks (`ladders.block_graph`)
glue a ladder complex to its mirror image and cap three spared edges with
marked digons; chord families (`chords.family_graph`) draw nested circle
families on a disk and double it.  construct() picks a route from the
slack coordinates of the target, verifies the result by full analysis,
and falls back to a bounded parameter search when the direct recipe
misses.

Marked faces are numbered 1..3, as everywhere in the package: position
i of a signature half, of a slack triple or of FamilySpec.counts belongs
to marked face i+1.  Only `ConstructionResult.relabel`, a permutation of
tuple positions as in `polytope.permute_signature`, counts from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Optional, Sequence

from . import chords, ladders
from .errors import NotRealizable, PantsError, SearchExhausted
from .exploration import SigmaGraph
from .polytope import (
    check_realizable,
    nu_transform,
    permute_signature,
    validate_tau,
)
from .special_loops import SigmaVector, sigma_of

__all__ = [
    "FamilySpec",
    "ConstructionResult",
    "family_graph",
    "construct",
    "construct_detailed",
    "search",
]


@dataclass(frozen=True)
class FamilySpec:
    """Parameters of a chord-family construction.

    counts[i] is the number of nested circles around hole i+1, depths[i]
    the crossing depth between the families around holes i+2 and i+3
    (indices cyclic), and tangent_caps[i] marks holes whose innermost
    circle degenerates to a tangent cap.
    """

    counts: tuple[int, int, int]
    depths: tuple[int, int, int] = (0, 0, 0)
    tangent_caps: tuple[bool, bool, bool] = (False, False, False)

    def cap_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.tangent_caps) if b)


@dataclass(frozen=True)
class ConstructionResult:
    """A verified witness together with how it was produced."""

    graph: SigmaGraph
    route: str
    params: tuple
    relabel: tuple[int, int, int]

    @property
    def fallback(self) -> bool:
        return self.route.startswith("search")


def family_graph(spec: FamilySpec) -> SigmaGraph:
    """Build the marked map of a chord-family drawing on the doubled disk."""
    return chords.family_graph(spec.counts, spec.depths, spec.cap_indices())


def _unpermute(built: SigmaGraph, perm: Sequence[int]) -> SigmaGraph:
    """Reorder marked faces of a graph built for a permuted target.

    perm maps permuted positions to original indices, matching
    permute_signature; built position k plays original role perm[k].
    """
    marked = [0, 0, 0]
    for k in range(3):
        marked[perm[k]] = built.marked[k]
    return SigmaGraph(built.cmap, tuple(marked))


def _verified(
    built: SigmaGraph,
    perm: Sequence[int],
    tau: SigmaVector,
    route: str,
    params: tuple,
) -> Optional[ConstructionResult]:
    cand = _unpermute(built, perm)
    if tuple(sigma_of(cand)) == tuple(tau):
        return ConstructionResult(cand, route, params, tuple(perm))
    return None


def _dispatch(tau: SigmaVector) -> Optional[ConstructionResult]:
    """Direct route: sort slack coordinates and pick a recipe.

    Returns None when the recipe's parameters leave the valid box or the
    built graph fails verification; the caller then runs the search.
    """
    nu = nu_transform(tau)
    mu = tau.mu
    order = tuple(sorted(range(3), key=lambda i: (-nu[i], -mu[i])))
    tp = permute_signature(tau, order)
    mp = tp.mu
    np_ = nu_transform(tp)

    attempts: list[tuple[str, tuple]] = []
    if np_[0] == np_[1]:
        if np_[2] >= 1:
            # all slacks positive: every parameter shifts down by one
            attempts.append(("blocks-even",
                             ((mp[0] - 1, mp[1] - 1, mp[2] - 1,
                               np_[0] - 1, np_[1] - 1, np_[2] - 1),)))
        elif mp[2] >= 1:
            attempts.append(("families-flat",
                             (FamilySpec(mp, (np_[0], np_[1], 0)),)))
        else:
            # smallest count zero forces all slacks zero; cap that hole
            attempts.append(("families-capped",
                             (FamilySpec((mp[0], mp[1], 0), (0, 0, 0),
                                         (False, True, False)),)))
    elif np_[0] <= np_[1] + np_[2]:
        # skew within the strict distance bound
        if 2 * np_[1] >= np_[0]:
            attempts.append(("blocks-skew",
                             ((mp[0] - np_[0] + np_[1], mp[1] - 1, mp[2] - 1,
                               np_[0] - 1, 2 * np_[1] - np_[0],
                               np_[1] + np_[2] - np_[0]),)))
        attempts.append(("families-cross", (FamilySpec(mp, tuple(np_)),)))
    elif np_[0] > mp[0] + np_[1]:
        # tight distance bound with the smallest family absent entirely
        attempts.append(("families-deep",
                         (FamilySpec((0, mp[1], mp[2]), (np_[0], 0, 0)),)))
    # remaining shape (tight bound, nonempty smallest family) has no direct
    # recipe; the caller falls back to the bounded search

    for route, params in attempts:
        try:
            if route.startswith("blocks"):
                built = ladders.block_graph(params[0])
            else:
                built = family_graph(params[0])
        except PantsError:
            continue
        res = _verified(built, order, tau, route, params)
        if res is not None:
            return res
    return None


def _block_candidates(tau_p: SigmaVector):
    """Block parameter tuples whose closed-form signature matches tau_p.

    Rung counts are forced by the leg lengths and the target distances,
    so only the leg-length box is enumerated.
    """
    mp, dp = tau_p.mu, tau_p.delta
    for ls in product(range(mp[0] + 1), range(mp[1] + 1), range(mp[2] + 1)):
        ns = tuple(1 + ls[(i + 1) % 3] + ls[(i + 2) % 3] - dp[i] for i in range(3))
        if any(n < 0 for n in ns):
            continue
        if any(ns[i] > min(ls[(i + 1) % 3], ls[(i + 2) % 3]) for i in range(3)):
            continue
        t = ls + ns
        if ladders.block_signature(t) == tuple(tau_p):
            yield t


def _family_candidates(tau_p: SigmaVector):
    """Family specs to try for tau_p: targeted recipes, then the full box."""
    mp = tau_p.mu
    np_ = nu_transform(tau_p)
    yield FamilySpec(mp, np_)
    for x in range(mp[0] + 1):
        for y in range(min(mp[1], mp[2]) + 1):
            yield FamilySpec((x, mp[1], mp[2]), (y, 0, 0))
    if mp[2] == 0:
        yield FamilySpec((mp[0], mp[1], 0), (0, 0, 0), (False, True, False))
    # exhaustive tail, reached only when every targeted recipe misses
    max_d = max(tau_p.delta)
    counts_box = product(*(range(m + 2) for m in mp))
    for counts in counts_box:
        if sum(1 for c in counts if c == 0) > 1:
            continue
        for depths in product(range(max_d + 1), repeat=3):
            ok = True
            for i in range(3):
                q = depths[(i + 2) % 3]
                if q > min(counts[i], counts[(i + 1) % 3]):
                    ok = False
                    break
            if not ok:
                continue
            yield FamilySpec(counts, depths)
            if all(d == 0 for d in depths):
                for caps in product((False, True), repeat=3):
                    if any(caps) and all(counts[i] >= 1 for i, b in enumerate(caps) if b):
                        yield FamilySpec(counts, depths, caps)


def _search_detailed(tau: SigmaVector) -> ConstructionResult:
    for perm in permutations(range(3)):
        tau_p = permute_signature(tau, perm)
        for t in _block_candidates(tau_p):
            try:
                built = ladders.block_graph(t)
            except PantsError:
                continue
            res = _verified(built, perm, tau, "search-blocks", (t,))
            if res is not None:
                return res
        seen: set = set()
        for spec in _family_candidates(tau_p):
            if spec in seen:
                continue
            seen.add(spec)
            try:
                built = family_graph(spec)
            except PantsError:
                continue
            res = _verified(built, perm, tau, "search-families", (spec,))
            if res is not None:
                return res
    raise SearchExhausted("no witness found for %r" % (tuple(tau),))


def construct_detailed(tau: Sequence[int]) -> ConstructionResult:
    """Build and verify a witness, reporting the route that produced it.

    Raises NotRealizable when the target fails the linear conditions and
    SearchExhausted when no candidate in the search box verifies.
    """
    tv = validate_tau(tau)
    verdict = check_realizable(tv)
    if not verdict:
        raise NotRealizable(str(verdict))
    res = _dispatch(tv)
    if res is not None:
        return res
    return _search_detailed(tv)


def construct(tau: Sequence[int]) -> SigmaGraph:
    """A marked map whose measured signature equals tau exactly."""
    return construct_detailed(tau).graph


def search(tau: Sequence[int]) -> SigmaGraph:
    """Witness by bounded enumeration only, skipping the direct recipes."""
    tv = validate_tau(tau)
    verdict = check_realizable(tv)
    if not verdict:
        raise NotRealizable(str(verdict))
    return _search_detailed(tv).graph
