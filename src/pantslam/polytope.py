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
distance.  They come column by column in x; with the cap
c = min(m3, d2 - x), column x holds z = 0..tops[y] for y < len(tops):

  x       <= min(m1, d2, d3)
  y       <= min(m2, d1, d3 - x)        the cut at d3 - x
  tops[y]  = min(c, d1 - y)             at c while y < d1 - c, then d1 - y

The extra caps x <= d2, x <= d3 and y <= d1 keep every top nonnegative,
so each column is nonempty, and the first one starts with the origin.
As x grows, neither the cap nor the column's length rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, repeat
from typing import Sequence

from .errors import NegativeParameter, NonPositiveDelta, OutOfRange
from .exploration import SigmaGraph
from .special_loops import NuVector, SigmaVector, sigma_of


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

    def __bool__(self) -> bool:
        return self.condition is None

    def __str__(self) -> str:
        if self:
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


@dataclass(frozen=True)
class LaminationPolytope:
    """The admissible integer triples of a signature, in lexicographic order."""

    points: tuple[tuple[int, int, int], ...]

    def __len__(self) -> int:
        return len(self.points)


def _columns(tau: SigmaVector):
    """The polytope's points column by column: (x, tops) for each x.

    The formula is the module docstring's.  Each column's tops are sliced
    from C iterators: the interpreter steps once per column, not once per
    (x, y).
    """
    m1, m2, m3, d1, d2, d3 = tau

    def tops_at(x):
        c = min(m3, d2 - x)
        tops = chain(repeat(c, d1 - c), range(min(c, d1), -1, -1))
        return list(islice(tops, min(m2, d1, d3 - x) + 1))

    xs = range(min(m1, d2, d3) + 1)
    return zip(xs, map(tops_at, xs))


def enumerate_points(tau: Sequence[int]) -> LaminationPolytope:
    """All integer points of the polytope attached to the signature.

    Points come out in lexicographic order.
    """
    vals = validate_tau(tau)
    pts = tuple((x, y, z) for x, tops in _columns(vals)
                for y, top in enumerate(tops) for z in range(top + 1))
    return LaminationPolytope(pts)


def lamination_space(sg: SigmaGraph) -> LaminationPolytope:
    """The polytope of the graph's own signature."""
    return enumerate_points(sigma_of(sg))
