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

All coordinates are exact rationals: axis points are rational points
of the unit circle, chord crossings come from linear systems, and the
mirror side is circle inversion, which is orientation reversing and
fixes the axis pointwise.  Disconnected curves get joined by a few
axis arcs, each a cut edge that no face boundary crosses, so the
marked-graph invariants are untouched by the choice.  If three chords
happen to pass through one point the axis points are perturbed, which
never changes their cyclic order and hence none of the combinatorics.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, Sequence

from .combmap import CombinatorialMap
from .errors import InvariantViolated, NegativeParameter, OutOfRange, OverlappingCrossings
from .exploration import SigmaGraph

Vec = tuple[Fraction, Fraction]


class _Degenerate(Exception):
    """Unlucky axis parameters made three chords meet; retry perturbed."""


def _axis_point(u: Fraction) -> Vec:
    den = 1 + u * u
    return ((1 - u * u) / den, 2 * u / den)


def _tangent(p: Vec) -> Vec:
    return (-p[1], p[0])


def _reflect(p: Vec, d: Vec) -> Vec:
    """Direction d reflected across the axis tangent at unit point p."""
    t = _tangent(p)
    s = d[0] * t[0] + d[1] * t[1]
    n = t[0] * t[0] + t[1] * t[1]
    return (2 * s * t[0] / n - d[0], 2 * s * t[1] / n - d[1])


def _crossing(p1: Vec, p2: Vec, p3: Vec, p4: Vec):
    """Interior intersection of segments p1p2 and p3p4, or None."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        return None
    w = (p3[0] - p1[0], p3[1] - p1[1])
    s = (w[0] * d2[1] - w[1] * d2[0]) / den
    r = (w[0] * d1[1] - w[1] * d1[0]) / den
    if 0 < s < 1 and 0 < r < 1:
        return s, r, (p1[0] + s * d1[0], p1[1] + s * d1[1])
    return None


def _ccw_cmp(a, b):
    da, db = a[1], b[1]
    ha = 0 if (da[1] > 0 or (da[1] == 0 and da[0] > 0)) else 1
    hb = 0 if (db[1] > 0 or (db[1] == 0 and db[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    cr = da[0] * db[1] - da[1] * db[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    raise InvariantViolated("two germs share a direction")


_CCW_KEY = cmp_to_key(_ccw_cmp)


def family_graph(
    counts: Sequence[int],
    depths: Sequence[int],
    caps: Iterable[int] = (),
) -> SigmaGraph:
    """Build the marked graph for nested-circle families of the given sizes.

    counts[i] is the number of curves around marked face i, depths[i] the
    interlock depth between the other two families.  A capped family gets
    one extra outer curve touching its outermost curve at one axis point.
    The marked face of an empty family is the face holding its stretch of
    the axis; at most one family may be empty.
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
    first_of_zone: dict[int, tuple] = {}
    last_of_zone: dict[int, tuple] = {}

    def emit(label: tuple, zone: int) -> None:
        emitted.append(label)
        first_of_zone.setdefault(zone, label)
        last_of_zone[zone] = label

    for i in range(3):
        qL, qR = q[(i - 1) % 3], q[i]
        for b in range(qL + 1, counts[i] + 1):
            emit(("L", i, b), i)
        for a in range(counts[i], qR, -1):
            emit(("R", i, a), i)
        if i in caps:
            emit(("CR", i), i)
        for m in range(qR, 0, -1):
            emit(("T", i, m), i)
    index = {lab: k for k, lab in enumerate(emitted)}

    def llab(i: int, b: int) -> tuple:
        qL = q[(i - 1) % 3]
        return ("L", i, b) if b > qL else ("T", (i - 1) % 3, qL + 1 - b)

    def rlab(i: int, a: int) -> tuple:
        return ("R", i, a) if a > q[i] else ("T", i, a)

    # -- curves: (zone, number, left label, right label); cap is number 0
    curves: list[tuple[int, int, tuple, tuple]] = []
    for i in range(3):
        for a in range(1, counts[i] + 1):
            curves.append((i, a, llab(i, a), rlab(i, a)))
        if i in caps:
            curves.append((i, 0, ("L", i, 1), ("CR", i)))

    predicted = set()
    for i in range(3):
        j = (i + 1) % 3
        for a in range(1, counts[i] + 1):
            for b in range(1, counts[j] + 1):
                if a + b <= q[i]:
                    predicted.add(frozenset(((i, a), (j, b))))

    for attempt in range(32):
        us = [
            Fraction(k) + Fraction(attempt * k * k, 997)
            for k in range(len(emitted))
        ]
        try:
            return _assemble(
                counts, q, caps, emitted, index, first_of_zone,
                last_of_zone, curves, predicted, [_axis_point(u) for u in us],
            )
        except _Degenerate:
            continue
    raise InvariantViolated("could not find generic axis coordinates")


def _assemble(
    counts, q, caps, emitted, index, first_of_zone, last_of_zone,
    curves, predicted, coord,
) -> SigmaGraph:
    # -- exact chord crossings, checked against the interlock pattern --
    crossings: list[tuple] = []  # (point, curve index 1, curve index 2)
    per_curve: dict[int, list] = {ci: [] for ci in range(len(curves))}
    found = set()
    seen_points = set()
    for c1 in range(len(curves)):
        z1, a1, l1, r1 = curves[c1]
        for c2 in range(c1 + 1, len(curves)):
            z2, a2, l2, r2 = curves[c2]
            if {l1, r1} & {l2, r2}:
                continue  # tangency or shared cap point, no interior hit
            hit = _crossing(
                coord[index[l1]], coord[index[r1]],
                coord[index[l2]], coord[index[r2]],
            )
            if hit is None:
                continue
            s, r, p = hit
            if p in seen_points:
                raise _Degenerate  # three chords through one point
            seen_points.add(p)
            cid = len(crossings)
            crossings.append((p, c1, c2))
            per_curve[c1].append((s, cid))
            per_curve[c2].append((r, cid))
            found.add(frozenset(((z1, a1), (z2, a2))))
    if found != predicted:
        raise InvariantViolated(
            "crossing pattern disagrees with interlock depths: %r vs %r"
            % (sorted(map(sorted, found)), sorted(map(sorted, predicted)))
        )

    # -- connectivity: join curve components with axis arcs --------------
    parent = list(range(len(curves)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[rx] = ry
        return True

    curves_at_label: dict[tuple, list[int]] = {}
    for ci, (_, _, l, r) in enumerate(curves):
        curves_at_label.setdefault(l, []).append(ci)
        curves_at_label.setdefault(r, []).append(ci)
    for cs in curves_at_label.values():
        for other in cs[1:]:
            union(cs[0], other)
    for _, c1, c2 in crossings:
        union(c1, c2)

    def rlab(i: int, a: int) -> tuple:
        return ("R", i, a) if a > q[i] else ("T", i, a)

    candidates: list[tuple[tuple, tuple]] = []
    for i in range(3):
        for a in range(counts[i] - 1, 0, -1):
            candidates.append((rlab(i, a + 1), rlab(i, a)))
    for i in sorted(caps):
        candidates.append((rlab(i, 1), ("CR", i)))
    nonempty = [i for i in range(3) if counts[i] > 0]
    for za, zb in zip(nonempty, nonempty[1:]):
        candidates.append((last_of_zone[za], first_of_zone[zb]))

    segments: list[tuple[int, int]] = []
    for laba, labb in candidates:
        ia, ib = index[laba], index[labb]
        if abs(ia - ib) != 1:
            raise InvariantViolated("axis arc candidate not between neighbors")
        ca = curves_at_label[laba][0]
        cb = curves_at_label[labb][0]
        if union(ca, cb):
            segments.append((min(ia, ib), max(ia, ib)))
    if len({find(ci) for ci in range(len(curves))}) != 1:
        raise InvariantViolated("curve arrangement failed to connect")

    # -- assemble vertices, edges, and counterclockwise rotations --------
    germs: dict[tuple, list] = {}

    def add_germ(vertex: tuple, dart: tuple, direction: Vec) -> None:
        germs.setdefault(vertex, []).append((dart, direction))

    pairing: list[tuple[tuple, tuple]] = []
    edge_wait: dict[tuple, tuple] = {}

    def add_end(eid: tuple, end: int, vertex: tuple, direction) -> tuple:
        dart = (eid, end)
        if direction is not None:
            add_germ(vertex, dart, direction)
        if eid in edge_wait:
            pairing.append((edge_wait.pop(eid), dart))
        else:
            edge_wait[eid] = dart
        return dart

    for ci, (z, a, l, r) in enumerate(curves):
        pl, pr = coord[index[l]], coord[index[r]]
        fwd = (pr[0] - pl[0], pr[1] - pl[1])
        bwd = (-fwd[0], -fwd[1])
        hits = sorted(per_curve[ci])
        nodes = [("ax", index[l])] + [("x", cid) for _, cid in hits]
        nodes.append(("ax", index[r]))
        for k in range(len(nodes) - 1):
            eid = ("c", z, a, k)
            add_end(eid, 0, nodes[k], fwd)
            add_end(eid, 1, nodes[k + 1], bwd)
        # the mirror arc: same combinatorics, axis germs reflected, the
        # interior rotations are derived from the upper ones afterwards
        for k in range(len(nodes) - 1):
            eid = ("mc", z, a, k)
            va = nodes[k] if k == 0 else ("mx", nodes[k][1])
            vb = nodes[k + 1] if k == len(nodes) - 2 else ("mx", nodes[k + 1][1])
            da = _reflect(pl, fwd) if k == 0 else None
            db = _reflect(pr, bwd) if k == len(nodes) - 2 else None
            add_end(eid, 0, va, da)
            add_end(eid, 1, vb, db)

    for ja, jb in segments:
        eid = ("s", ja)
        add_end(eid, 0, ("ax", ja), _tangent(coord[ja]))
        tb = _tangent(coord[jb])
        add_end(eid, 1, ("ax", jb), (-tb[0], -tb[1]))
    if edge_wait:
        raise InvariantViolated("an edge end was never placed")

    rotations: dict[tuple, list[tuple]] = {}
    for v in [("ax", k) for k in range(len(emitted))] + [
        ("x", cid) for cid in range(len(crossings))
    ]:
        lst = sorted(germs[v], key=_CCW_KEY)
        rotations[v] = [dart for dart, _ in lst]
    for cid in range(len(crossings)):
        upper = rotations[("x", cid)]
        rotations[("mx", cid)] = [
            (("mc",) + eid[1:], end) for (eid, end) in reversed(upper)
        ]

    vertex_order = (
        [("ax", k) for k in range(len(emitted))]
        + [("x", c) for c in range(len(crossings))]
        + [("mx", c) for c in range(len(crossings))]
    )
    dart_int: dict[tuple, int] = {}
    edge_int: dict[tuple, int] = {}
    for k, (da, db) in enumerate(pairing):
        dart_int[da] = 2 * k
        dart_int[db] = 2 * k + 1
        edge_int[da[0]] = k
    cmap = CombinatorialMap(
        [[dart_int[d] for d in rotations[v]] for v in vertex_order]
    )

    for ja, _ in segments:
        k = edge_int[("s", ja)]
        if cmap.face_of(2 * k) != cmap.face_of(2 * k + 1):
            raise InvariantViolated("axis arc is not a cut edge")

    marked = []
    for i in range(3):
        if counts[i] >= 1:
            ec = edge_int[("c", i, counts[i], 0)]
            em = edge_int[("mc", i, counts[i], 0)]
            hits = [
                f
                for f in (cmap.face_of(2 * ec), cmap.face_of(2 * ec + 1))
                if cmap.face_edges(f) == frozenset((ec, em))
            ]
            if len(hits) != 1:
                raise InvariantViolated(
                    "innermost curve of family %d bounds no two-sided face" % i
                )
            marked.append(hits[0])
        else:
            # the empty family owns the axis gap between its neighbors
            j = index[last_of_zone[(i - 1) % 3]]
            jn = index[first_of_zone[(i + 1) % 3]]
            if jn != j + 1 and not (jn == 0 and j == len(emitted) - 1):
                raise InvariantViolated(
                    "pole gap of empty family %d is not an axis gap" % i
                )
            if jn == j + 1 and ("s", j) in edge_int:
                marked.append(cmap.face_of(2 * edge_int[("s", j)]))
                continue
            # otherwise take the face of the sector at the gap's start
            # that contains the forward axis direction
            t = _tangent(coord[j])
            turned = []
            for dart, d in germs[("ax", j)]:
                x = d[0] * t[0] + d[1] * t[1]
                y = t[0] * d[1] - t[1] * d[0]
                turned.append((dart, (x, y)))
            first = min(turned, key=_CCW_KEY)[0]
            f = cmap.face_of(dart_int[first])
            if f not in cmap.faces_at(jn % len(emitted)):
                raise InvariantViolated(
                    "pole face of empty family %d misses the gap end" % i
                )
            marked.append(f)
    return SigmaGraph(cmap, marked)
