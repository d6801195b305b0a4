"""Marked graphs drawn as three families of nested circles on a mirror axis.

Each family sits in one zone of a common axis circle and consists of
nested closed curves, every curve being a straight chord between two
axis points plus the inversion of that chord outside the axis.  Where
two neighboring families interlock to a given depth, the outermost
curves cross pairwise, and the deepest contact is a shared axis point,
a tangency:

  curve a of one family meets curve b of the next transversally when
  a + b is at most the interlock depth, tangentially when a + b
  exceeds it by exactly one, and not at all otherwise.

With counts c and depths d (index i cyclic, j and k the other two) the
drawing measures the signature

  family size i = c_i + max(0, floor((d_i - max(d_j, d_k)) / 2))
  distance i    = c_j + c_k - d_i

which block graph (l, n) of `ladders` measures at c = l + 1, d = n + 1; a
tangent cap changes neither.  Family i gains loops only where the other
two families interlock at least two deeper than either does with it.

The drawing is combinatorial: only the cyclic order of the axis points
matters.  They are numbered counterclockwise, zone by zone.  With
q_i = d_{i+2} the interlock depth of zones i and i+1 and cap_i in {0, 1},
zone i holds 2c_i - q_{i-1} + cap_i points from start_i on, start_i being
the sum of the earlier zones' counts, and n = start_3.  A curve is a chord
between two of them plus its mirror image outside the axis:

  curve a of zone i runs from point (start_i - q_{i-1} - 1 + a) mod n to
  point start_i + 2c_i - q_{i-1} - a, and a cap from start_i to
  start_i + 2c_i.

When a <= q_{i-1}, the left end is point start_i - m, mod n, with
m = q_{i-1} + 1 - a: the right end of curve m of zone i-1, which curve a
touches there.  Two chords cross exactly when their ends alternate
around the axis, which is the interlock pattern above.
Walking a chord of family i from its left end to its right end, it
meets the curves of family i-1 innermost first (curve number
decreasing), then those of family i+1 outermost first (increasing).
So any three pairwise-crossing chords bound a triangle that all three
walk the same way round, and the chords form a pseudo-chord
arrangement whose rotations follow from the axis order alone:

- at an axis point p, where the offset of a chord end is
  (other end - p) mod n, the mirror arcs by decreasing offset, the
  forward axis arc, the chords by increasing offset, the backward
  axis arc;
- at the crossing of curves c1 < c2, (c1 out, c2 out, c1 in, c2 in)
  when c2's left end lies strictly inside the counterclockwise arc
  from c1's left end to its right end, else (c1 out, c2 in, c1 in,
  c2 out);
- at a mirror crossing, the reverse of the upper one: the mirror is
  orientation reversing and fixes the axis pointwise.

Curves that neither cross nor touch are joined by axis arcs, each a cut
edge that no face boundary crosses, so the marked-graph invariants do
not depend on them.  Curve a of family i crosses or touches family i+1
exactly when a is at most their depth, likewise family i-1, and curve
1 of that neighbor meets all such curves; a cap touches curve 1.  So
an arc from the right end of curve a+1 to that of curve a, for each
a >= 1 at or above both flanking depths, ties a family together: zone
i's arcs leave the points from start_i + c_i - q_{i-1} up to, not
including, start_i + 2c_i - q_{i-1} - max(q_{i-1}, q_i, 1).  The k
nonempty families need k - 1 joins, and each depth >= 1 makes one.
While joins are missing, an arc from the last axis point of a nonempty
family, start_{i+1} - 1, to the first of the next, in zone order, joins
two that meet at depth 0.  So each arc joins axis neighbors j and j + 1.
The connectivity and Euler checks of the map guard this and planarity.

The marked faces are read off the drawing.  The innermost curve of a
nonempty family i, number a = c_i, crosses no curve: that would need
a + b <= d for some b >= 1 and a flanking depth d <= c_i.  So its chord
is one segment, between axis neighbors, and with its mirror it bounds
a digon: the face right of the chord dart leaving its left end, since
the axis points run counterclockwise.  An empty family holds no axis
point, since c_i = 0 forces both flanking depths to 0 and forbids a
cap.  Its stretch of the axis is thus the gap after point (start_i - 1) mod n, the last of the
zone before it, and its marked face is the face right of the first dart
after the mirror arcs at the gap's start.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .combmap import CombinatorialMap
from .errors import InvariantViolated, NegativeParameter, OutOfRange, OverlappingCrossings
from .exploration import SigmaGraph


def drawing_size(counts: Sequence[int], depths: Sequence[int]) -> tuple[int, int]:
    """Vertex and edge counts of `family_graph(counts, depths)`, undrawn.

    Depth d interlocks the curves a, b >= 1 of two families with a + b <= d,
    so X = sum d(d - 1)/2 over the depths counts the crossings, each with its
    mirror.  The axis holds 2 sum c - sum d points, and each curve's chord
    and mirror are cut into one more segment than it has crossings:

      V = 2 sum c - sum d + 2X
      E = 2 sum c + 4X + A

    A counts the axis arcs: max(0, c_i - max(d_j, d_k, 1)) inside family i,
    and one per join of the nonempty families that no depth >= 1 joins
    already.  The arguments are those `family_graph` takes besides caps.
    """
    c1, c2, c3 = counts
    d1, d2, d3 = depths
    x = (d1 * (d1 - 1) + d2 * (d2 - 1) + d3 * (d3 - 1)) // 2
    arcs = (max(0, c1 - max(d2, d3, 1)) + max(0, c2 - max(d3, d1, 1))
            + max(0, c3 - max(d1, d2, 1)))
    joins = (c1 > 0) + (c2 > 0) + (c3 > 0) - 1 - (d1 > 0) - (d2 > 0) - (d3 > 0)
    v = 2 * (c1 + c2 + c3) - (d1 + d2 + d3) + 2 * x
    return v, 2 * (c1 + c2 + c3) + 4 * x + arcs + max(0, joins)


def family_graph(
    counts: Sequence[int],
    depths: Sequence[int],
    caps: Iterable[int] = (),
) -> SigmaGraph:
    """Build the marked graph for nested-circle families of the given sizes.

    counts[i] is the number of curves around marked face i + 1, depths[i]
    the interlock depth between the other two families, and caps lists
    such positions i: all three are 0-based (0, 1, 2), unlike marked
    indices.  A capped family gets one extra outer curve touching its
    outermost curve at one axis point.  The marked face of an empty family
    is the face holding its stretch of the axis; at most one may be empty.
    """
    counts, depths, caps = tuple(counts), tuple(depths), tuple(caps)
    for v in counts + depths + caps:
        if type(v) is not int:
            raise OutOfRange("family parameters must be ints, got %r" % (v,))
    caps = frozenset(caps)
    if len(counts) != 3 or len(depths) != 3:
        raise NegativeParameter("need three counts and three depths")
    if any(c < 0 for c in counts):
        raise NegativeParameter("negative family size")
    if any(p < 0 for p in depths):
        raise NegativeParameter("negative interlock depth")
    if sum(1 for c in counts if c == 0) > 1:
        raise OverlappingCrossings("at most one family may be empty")
    # q[i] is the interlock depth between zones i and i+1
    q = tuple(depths[(i + 2) % 3] for i in range(3))
    for i in range(3):
        if q[i] > min(counts[i], counts[(i + 1) % 3]):
            raise OverlappingCrossings(
                "depth %d exceeds family sizes at zones %d,%d"
                % (q[i], i, (i + 1) % 3)
            )
    for i in caps:
        if i not in (0, 1, 2):
            raise OverlappingCrossings("cap index %r" % (i,))
        if counts[i] < 1 or q[(i - 1) % 3] != 0 or q[i] != 0:
            raise OverlappingCrossings(
                "cap at zone %d needs a nonempty family with free flanks" % i
            )

    # -- axis points, curves and the arcs inside each family ---------------
    # (see the module docstring); a cap is curve number 0
    start = [0]
    for i in range(3):
        start.append(start[i] + 2 * counts[i] - q[i - 1] + (i in caps))
    n = start[3]
    curves: list[tuple[int, int, int, int]] = []  # (zone, number, left, right)
    segments: list[int] = []  # an axis arc from point j to point j + 1
    for i in range(3):
        right = start[i] + 2 * counts[i] - q[i - 1]
        for a in range(1, counts[i] + 1):
            curves.append((i, a, (start[i] - q[i - 1] - 1 + a) % n, right - a))
        if i in caps:
            curves.append((i, 0, start[i], right))
        segments.extend(range(right - counts[i], right - max(q[i - 1], q[i], 1)))
    curve_of = {(z, a): ci for ci, (z, a, _, _) in enumerate(curves)}

    # the curves each one meets, in walking order from its left end
    walks = []
    for z, a, _, _ in curves:
        qL, qR = q[(z - 1) % 3], q[z]
        walks.append(
            [curve_of[(z - 1) % 3, b] for b in range(qL - a, 0, -1)]
            + [curve_of[(z + 1) % 3, b] for b in range(1, qR - a + 1)]
        )
    crossings = sorted((c1, c2) for c1, w in enumerate(walks) for c2 in w if c1 < c2)

    # -- connectivity: axis arcs joining the families --------------------
    nonempty = [i for i in range(3) if counts[i] > 0]
    need = len(nonempty) - 1 - sum(p > 0 for p in depths)
    for za, zb in zip(nonempty, nonempty[1:]):
        # depth 3 - za - zb interlocks zones za and zb
        if need > 0 and depths[3 - za - zb] == 0:
            segments.append(start[za + 1] - 1)
            need -= 1

    # -- darts and rotations ---------------------------------------------
    # Edges are numbered as emitted: per curve, its chord's segments in
    # walking order, then their mirrors; then the axis arcs in `segments`
    # order.  Dart 2e leaves edge e's first end (a segment's left one, arc
    # j's point j), 2e + 1 its second.  So curve ci's chord darts are
    # first[ci] up to first[ci] + span[ci] - 1, which leaves its right end,
    # and adding span[ci] to a chord dart gives its mirror.  Vertices are
    # the axis points, then the chord crossings, then their mirrors.
    rotations: list[list[int]] = [[] for _ in range(n + 2 * len(crossings))]
    chord_ends: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    step: dict[tuple[int, int], int] = {}  # (curve, crossed curve) -> node k
    first: list[int] = []
    span: list[int] = []
    d0 = 0
    for ci, (_, _, l, r) in enumerate(curves):
        s = 2 * (len(walks[ci]) + 1)
        first.append(d0)
        span.append(s)
        chord_ends[l].append(((r - l) % n, d0, s))
        chord_ends[r].append(((l - r) % n, d0 + s - 1, s))
        for k, other in enumerate(walks[ci], 1):
            step[ci, other] = k
        d0 += 2 * s
    arc = {j: d0 + 2 * x for x, j in enumerate(segments)}

    for p in range(n):
        ends = sorted(chord_ends[p])
        rotations[p] = [d + s for _, d, s in reversed(ends)]
        if p in arc:
            rotations[p].append(arc[p])
        rotations[p].extend(d for _, d, _ in ends)
        if p - 1 in arc:
            rotations[p].append(arc[p - 1] + 1)
    for x, (c1, c2) in enumerate(crossings):
        # a is c1 out and a - 1 c1 in (see the module docstring); b, b - 1 on c2
        a = first[c1] + 2 * step[c1, c2]
        b = first[c2] + 2 * step[c2, c1]
        l1, r1, l2 = curves[c1][2], curves[c1][3], curves[c2][2]
        if 0 < (l2 - l1) % n < (r1 - l1) % n:
            upper = [a, b, a - 1, b - 1]
        else:
            upper = [a, b - 1, a - 1, b]
        s1, s2 = span[c1], span[c2]
        rotations[n + x] = upper
        rotations[n + len(crossings) + x] = [
            upper[3] + s2, upper[2] + s1, upper[1] + s2, upper[0] + s1
        ]
    cmap = CombinatorialMap(rotations)

    for d in arc.values():
        if cmap.face_of_dart[d] != cmap.face_of_dart[d + 1]:
            raise InvariantViolated("axis arc is not a cut edge")

    # the innermost curve's chord and mirror bound the digon right of the
    # dart leaving its left end; an empty family owns the axis gap after
    # the last point of the zone before it (see the module docstring)
    marked = []
    for i in range(3):
        if counts[i] >= 1:
            marked.append(cmap.face_of_dart[first[curve_of[i, counts[i]]]])
        else:
            j = (start[i] - 1) % n
            marked.append(cmap.face_of_dart[cmap.rotations[j][len(chord_ends[j])]])
    return SigmaGraph(cmap, marked)
