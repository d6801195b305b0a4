"""Realizability conditions on signatures and the lamination polytope.

A candidate signature tau lists three family sizes followed by three
pairwise distances.  Realizable signatures satisfy, for each index i
taken cyclically:

  T1:  max of the two far family sizes <= opposite distance <= their sum
  T2:  the two far distances exceed twice the near family size plus the
       near distance by at most one

The integer points of the associated polytope are the triples
(x, y, z) of nonnegative integers bounded above by the family sizes
coordinatewise and with each two-coordinate sum at most the matching
distance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import NegativeParameter, NonPositiveDelta, OutOfRange
from .exploration import SigmaGraph
from .special_loops import NuVector, SigmaVector, sigma_of

Signature = tuple[int, int, int, int, int, int]


def validate_tau(tau: Sequence[int]) -> SigmaVector:
    vals = tuple(tau)
    if len(vals) != 6:
        raise NegativeParameter("signature needs 6 entries, got %d" % len(vals))
    for x in vals:
        if type(x) is not int:
            raise OutOfRange("signature entries must be ints, got %r" % (x,))
    for x in vals[:3]:
        if x < 0:
            raise NegativeParameter("family size %d" % x)
    for x in vals[3:]:
        if x < 1:
            raise NonPositiveDelta("distance %d" % x)
    return SigmaVector(*vals)


@dataclass(frozen=True)
class RealizabilityVerdict:
    """Outcome of the two necessary-and-sufficient condition checks.

    condition is None when realizable, else "T1" or "T2" with the 1-based
    index of the first violated inequality in (condition, index) order.
    """

    condition: str | None = None
    index: int | None = None

    @property
    def realizable(self) -> bool:
        return self.condition is None

    def __bool__(self) -> bool:
        return self.realizable

    def __str__(self) -> str:
        if self.realizable:
            return "Realizable"
        return "Violates(%s, %d)" % (self.condition, self.index)


def check_realizable(tau: Sequence[int]) -> RealizabilityVerdict:
    """Check both conditions, T1 before T2, indices in increasing order."""
    m1, m2, m3, d1, d2, d3 = validate_tau(tau)
    m = (m1, m2, m3)
    d = (d1, d2, d3)
    for i in range(3):
        a, b = m[(i + 1) % 3], m[(i + 2) % 3]
        if not (max(a, b) <= d[i] <= a + b):
            return RealizabilityVerdict("T1", i + 1)
    for i in range(3):
        if d[(i + 1) % 3] + d[(i + 2) % 3] > 2 * m[i] + d[i] + 1:
            return RealizabilityVerdict("T2", i + 1)
    return RealizabilityVerdict()


def nu_transform(tau: Sequence[int]) -> NuVector:
    """Slack triple of a signature: far family sizes minus the distance."""
    vals = validate_tau(tau)
    m, d = vals.mu, vals.delta
    return NuVector(*(m[(i + 1) % 3] + m[(i + 2) % 3] - d[i] for i in range(3)))


def permute_signature(tau: Sequence[int], perm: Sequence[int]) -> SigmaVector:
    """Signature after relabeling the marked faces by the given permutation.

    perm maps new index to old index; both halves permute the same way
    because the distance entry at i concerns the pair excluding i.
    """
    vals = validate_tau(tau)
    if sorted(perm) != [0, 1, 2]:
        raise NegativeParameter("not a permutation of 0,1,2: %r" % (perm,))
    m, d = vals.mu, vals.delta
    return SigmaVector(*(tuple(m[perm[i]] for i in range(3))
                         + tuple(d[perm[i]] for i in range(3))))


@dataclass(frozen=True)
class LaminationPolytope:
    """A signature together with all its admissible integer triples."""

    tau: SigmaVector
    points: tuple[tuple[int, int, int], ...]

    def __contains__(self, p) -> bool:
        return tuple(p) in set(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def count(self, exclude_origin: bool = False) -> int:
        return len(self.points) - (1 if exclude_origin else 0)

    def to_json(self) -> str:
        return json.dumps(
            {"tau": list(self.tau), "points": [list(p) for p in self.points]}
        )


def enumerate_points(tau: Sequence[int]) -> LaminationPolytope:
    """All integer points of the polytope attached to the signature.

    Points come out in lexicographic order.
    """
    vals = validate_tau(tau)
    m1, m2, m3, d1, d2, d3 = vals
    pts = []
    for x in range(m1 + 1):
        for y in range(m2 + 1):
            if x + y > d3:
                continue
            for z in range(m3 + 1):
                if y + z <= d1 and x + z <= d2:
                    pts.append((x, y, z))
    return LaminationPolytope(vals, tuple(pts))


def lamination_space(sg: SigmaGraph) -> LaminationPolytope:
    """The polytope of the graph's own signature."""
    return enumerate_points(sigma_of(sg))
