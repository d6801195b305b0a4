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

which is `ladders.block_signature` with every parameter one larger; a
tangent cap changes neither.  Family i gains loops only where the other
two families interlock at least two deeper than either does with it.

The drawing is combinatorial: only the cyclic order of the axis points
matters.  They are numbered counterclockwise in the order they are
emitted, and a curve is a chord between two of them plus its mirror
image outside the axis.  Two chords cross exactly when their ends
alternate around the axis, which is the interlock pattern above.
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
a >= 1 at or above both flanking depths, ties a family together, and
an arc from the last axis point of a family to the first of the next
joins two nonempty families that no depth >= 1 joins already.  The
emission order makes the ends of each arc axis neighbors.  The
connectivity and Euler checks of the map guard this and planarity.

The marked faces are read off the drawing.  The innermost curve of a
nonempty family i, number a = c_i, crosses no curve: that would need
a + b <= d for some b >= 1 and a flanking depth d <= c_i.  So its chord
is one segment, between axis points the emission order puts side by
side, and with its mirror it bounds a digon: the face right of the
chord dart leaving its left end, since the axis points run
counterclockwise.  An empty family emits no axis point, since c_i = 0
forces both flanking depths to 0 and forbids a cap.  Its stretch of the
axis is thus the gap from the last point of the zone before it to the
next point, and its marked face is the face right of the first dart
after the mirror arcs at the gap's start.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .combmap import CombinatorialMap
from .errors import InvariantViolated, NegativeParameter, OutOfRange, OverlappingCrossings
from .exploration import SigmaGraph


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

    # -- emit axis points zone by zone ---------------------------------
    emitted: list[tuple] = []
    last: list[int] = []  # per zone, the last point emitted up to its end
    for i in range(3):
        qL, qR = q[(i - 1) % 3], q[i]
        emitted.extend(("L", i, b) for b in range(qL + 1, counts[i] + 1))
        emitted.extend(("R", i, a) for a in range(counts[i], qR, -1))
        if i in caps:
            emitted.append(("CR", i))
        emitted.extend(("T", i, m) for m in range(qR, 0, -1))
        last.append(len(emitted) - 1)
    index = {lab: k for k, lab in enumerate(emitted)}
    n = len(emitted)

    def llab(i: int, b: int) -> tuple:
        qL = q[(i - 1) % 3]
        return ("L", i, b) if b > qL else ("T", (i - 1) % 3, qL + 1 - b)

    def rlab(i: int, a: int) -> tuple:
        return ("R", i, a) if a > q[i] else ("T", i, a)

    # -- curves: (zone, number, left end, right end); cap is number 0 ----
    curves: list[tuple[int, int, int, int]] = []
    for i in range(3):
        for a in range(1, counts[i] + 1):
            curves.append((i, a, index[llab(i, a)], index[rlab(i, a)]))
        if i in caps:
            curves.append((i, 0, index[("L", i, 1)], index[("CR", i)]))
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

    # -- connectivity: axis arcs where the curves leave gaps --------------
    segments: list[int] = []  # an axis arc from point j to point j + 1
    for i in range(3):
        for a in range(counts[i] - 1, max(q[(i - 1) % 3], q[i], 1) - 1, -1):
            segments.append(index[rlab(i, a + 1)])
    label = [0, 1, 2]  # zones with equal labels are already connected

    def join(za: int, zb: int) -> bool:
        old, new = label[za], label[zb]
        label[:] = [new if z == old else z for z in label]
        return old != new

    for i in range(3):
        if q[i] >= 1:
            join(i, (i + 1) % 3)
    nonempty = [i for i in range(3) if counts[i] > 0]
    for za, zb in zip(nonempty, nonempty[1:]):
        if join(za, zb):
            segments.append(last[za])

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
        if cmap.face_of(d) != cmap.face_of(d + 1):
            raise InvariantViolated("axis arc is not a cut edge")

    # the innermost curve's chord and mirror bound the digon right of the
    # dart leaving its left end; an empty family owns the axis gap after
    # the last point of the zone before it (see the module docstring)
    marked = []
    for i in range(3):
        if counts[i] >= 1:
            marked.append(cmap.face_of(first[curve_of[i, counts[i]]]))
        else:
            j = last[(i - 1) % 3]
            marked.append(cmap.face_of(cmap.rotations[j][len(chord_ends[j])]))
    return SigmaGraph(cmap, marked)
