"""Witness construction: build a marked map realizing a target signature.

The chord drawing (`chords.family_graph`) takes family counts c and
interlock depths d (depth i interlocks the two families other than i)
and measures the signature sigma(c, d) that the `chords` docstring
states.  A realizable tau has a closed-form preimage (family_params):
start from c = mu and d = nu, take the index i of the largest depth and,
with j and k the other two, lower c_i, d_j and d_k by
extra = max(0, d_i - max(d_j, d_k) - 1); depth i then exceeds the
others by 2 extra + 1, which adds the loops back to family i.
The witness is that drawing, verified by measuring it.  Its size is
known before it is drawn (`chords.drawing_size`), and one of more than
MAX_WITNESS_DARTS darts is refused with LimitExceeded.  Building and
verifying takes about 250 bytes per dart, so a witness at the cap needs
some 2.5 GB; the size grows with the square of the interlock, and
(20000, 20000, 20000, 20001, 20001, 20001) would need 4.8e9 darts.

Position i of a signature half, of counts or of depths belongs to marked
face i+1, as everywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn, Optional, Sequence

from . import chords
from .errors import ConstructionFailed, LimitExceeded, NotRealizable
from .exploration import SigmaGraph
from .polytope import check_realizable, nu_transform, validate_tau
from .special_loops import SigmaVector, sigma_of

Triple = tuple[int, int, int]

MAX_WITNESS_DARTS = 10_000_000


@dataclass(frozen=True)
class ConstructionResult:
    """A verified witness and the counts and depths it was drawn with."""

    graph: SigmaGraph
    counts: Triple
    depths: Triple


def family_params(tau: Sequence[int]) -> tuple[Triple, Triple]:
    """Counts and depths whose drawing measures the realizable signature tau."""
    tv = validate_tau(tau)
    c, d = list(tv.mu), list(nu_transform(tv))
    i = d.index(max(d))
    j, k = (i + 1) % 3, (i + 2) % 3
    extra = max(0, d[i] - max(d[j], d[k]) - 1)
    c[i] -= extra
    d[j] -= extra
    d[k] -= extra
    return tuple(c), tuple(d)


def _verified(
    built: SigmaGraph, tau: SigmaVector, counts: Triple, depths: Triple
) -> Optional[ConstructionResult]:
    if tuple(sigma_of(built)) == tuple(tau):
        return ConstructionResult(built, counts, depths)
    return None


def _search_detailed(tau: SigmaVector, counts: Triple, depths: Triple) -> NoReturn:
    # There is nothing left to search: this only reports a recipe miss.
    # It keeps the name the benchmark's tracer wraps (perfbench/worker.py
    # counts its calls as constructor.fallbacks).
    raise ConstructionFailed(
        "witness for %r with counts=%r depths=%r did not verify"
        % (tuple(tau), counts, depths)
    )


def construct_detailed(tau: Sequence[int]) -> ConstructionResult:
    """Build and verify a witness, reporting its counts and depths.

    Raises NotRealizable when the target fails the linear conditions,
    LimitExceeded when the witness would have more than MAX_WITNESS_DARTS
    darts, and ConstructionFailed when the built map does not measure tau.
    """
    tv = validate_tau(tau)
    verdict = check_realizable(tv)
    if not verdict:
        raise NotRealizable(str(verdict))
    counts, depths = family_params(tv)
    darts = 2 * chords.drawing_size(counts, depths)[1]
    if darts > MAX_WITNESS_DARTS:
        raise LimitExceeded("witness for %r would have %d darts, more than the cap of %d"
                            % (tuple(tv), darts, MAX_WITNESS_DARTS))
    res = _verified(chords.family_graph(counts, depths), tv, counts, depths)
    if res is None:
        _search_detailed(tv, counts, depths)
    return res
