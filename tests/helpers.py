"""Test-only references: the face flood for loop sides, the plain cycle
search, the level-by-level packing search, and the helpers that only the
tests call."""

import json
from collections import deque
from itertools import combinations, permutations

from pantslam.combmap import CombinatorialMap
from pantslam.errors import NegativeParameter, OutOfRange
from pantslam.exploration import Loop, SigmaGraph
from pantslam.ladders import block_complex, doubled
from pantslam.oracle import CycleCatalog
from pantslam.polytope import nu_transform, validate_tau
from pantslam.special_loops import SigmaVector


def flood_sides(cmap, loop):
    """The left and right sides of a simple loop, by flooding faces across
    every edge off the loop; the two floods must partition the faces."""
    blocked = loop.edge_set()
    faces, face_of = cmap.faces, cmap.face_of_dart

    def flood(seed):
        seen = {seed}
        queue = deque([seed])
        while queue:
            for d in faces[queue.popleft()]:
                g = face_of[d ^ 1]
                if d >> 1 not in blocked and g not in seen:
                    seen.add(g)
                    queue.append(g)
        return frozenset(seen)

    d0 = loop.darts[0]
    left, right = flood(cmap.face_of_dart[d0 ^ 1]), flood(cmap.face_of_dart[d0])
    assert not left & right and len(left) + len(right) == cmap.num_faces, (
        "loop does not split the sphere in two")
    return left, right


def pair_meeting_breaches(sg, families):
    """Loop pairs that break the pair-meeting rule, as (i, k, j, l).

    families[i - 1] lists the loops of family i, innermost first.  For
    marked faces i != j at distance delta, the level-k loop of family i
    and the level-l loop of family j share a vertex exactly when
    k + l > delta; two loops of one family never share one.
    """
    verts = [[frozenset(lp.vertices(sg.cmap)) for lp in fam] for fam in families]
    delta = sg.distances()
    out = []
    for i0, j0 in combinations(range(3), 2):
        for k, a in enumerate(verts[i0], 1):
            for l, b in enumerate(verts[j0], 1):
                if bool(a & b) != (k + l > delta[3 - i0 - j0]):
                    out.append((i0 + 1, k, j0 + 1, l))
    for i0, fam in enumerate(verts):
        for (k, a), (l, b) in combinations(enumerate(fam, 1), 2):
            if a & b:
                out.append((i0 + 1, k, i0 + 1, l))
    return out


def plain_cycles(sg):
    """The cycles `oracle.all_simple_cycles` finds, searched without its
    peel: their Loops and their catalog, in the same order.

    From each base vertex a depth-first search walks paths through higher
    vertices only and keeps each cycle in the direction whose first dart
    is below its last dart reversed; each cycle is then typed by
    `sg.classify` and masked from its vertex list.
    """
    cm = sg.cmap
    rotations, tail = cm.rotations, cm.dart_vertex
    on_path = [False] * cm.num_vertices
    found = []
    for base in range(cm.num_vertices):
        path = []
        scans = [iter(rotations[base])]  # the unscanned darts at each path vertex
        while scans:
            for d in scans[-1]:
                if path and d == path[-1] ^ 1:
                    continue
                w = tail[d ^ 1]
                if w == base:
                    if (path[0] if path else d) < d ^ 1:
                        found.append(Loop(path + [d]))
                    continue
                if w < base or on_path[w]:
                    continue
                path.append(d)
                on_path[w] = True
                scans.append(iter(rotations[w]))
                break
            else:
                scans.pop()
                if path:
                    on_path[tail[path.pop() ^ 1]] = False
    types = tuple(sg.classify(loop) for loop in found)
    masks = tuple(sum(1 << v for v in loop.vertices(cm)) for loop in found)
    return found, CycleCatalog(types, masks)


def packs(per_type, target):
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


def packing_by_levels(cat):
    """The achievable triples of catalog cat and its three packing numbers,
    each by its own search with `packs` over the minimal masks.

    The triples grow level by level from the origin: one step above the
    last level is searched for only when every triple one step below it
    is achievable.  Packing number i is the largest k for which k masks
    of type i alone are pairwise disjoint.
    """
    per_type = [cat.minimal_masks(i) for i in (1, 2, 3)]
    achieved = {(0, 0, 0)}
    level = [(0, 0, 0)]
    while level:
        above = {p[:i] + (p[i] + 1,) + p[i + 1:] for p in level for i in range(3)}
        level = [
            q for q in sorted(above)
            if all(q[:i] + (q[i] - 1,) + q[i + 1:] in achieved for i in range(3) if q[i])
            and packs(per_type, q)
        ]
        achieved.update(level)
    maxima = []
    for masks in per_type:
        k = 0
        while packs([masks], (k + 1,)):
            k += 1
        maxima.append(k)
    return frozenset(achieved), tuple(maxima)


def distance_matrix(sg):
    """All pairwise face distances: entry [f][g] is the distance from f to g."""
    return tuple(sg._dist_from(f) for f in range(sg.cmap.num_faces))


# -- signatures -------------------------------------------------------------


def tau_from_mu_nu(mu, nu):
    """Signature with the given family sizes and slack values."""
    mu, nu = tuple(mu), tuple(nu)
    if len(mu) != 3 or len(nu) != 3:
        raise NegativeParameter("need three family sizes and three slacks")
    d = tuple(mu[(i + 1) % 3] + mu[(i + 2) % 3] - nu[i] for i in range(3))
    return validate_tau(mu + d)


def slack_form_ok(tau):
    """Equivalent statement of both conditions through the slack values.

    Realizability amounts to the slack at each index lying between 0 and
    the minimum of the two far family sizes and one more than the sum of
    the other two slacks.
    """
    vals = validate_tau(tau)
    m = vals.mu
    nu = nu_transform(vals)
    for i in range(3):
        hi = min(m[(i + 1) % 3], m[(i + 2) % 3], nu[(i + 1) % 3] + nu[(i + 2) % 3] + 1)
        if not 0 <= nu[i] <= hi:
            return False
    return True


def permute_signature(tau, perm):
    """Signature after relabeling the marked faces by the given permutation.

    perm maps new index to old index; both halves permute the same way
    because the distance entry at i concerns the pair excluding i.
    """
    vals = validate_tau(tau)
    for p in perm:
        if type(p) is not int:
            raise OutOfRange("permutation entries must be ints, got %r" % (p,))
    if sorted(perm) != [0, 1, 2]:
        raise NegativeParameter("not a permutation of 0,1,2: %r" % (perm,))
    m, d = vals.mu, vals.delta
    return SigmaVector(*(tuple(m[perm[i]] for i in range(3))
                         + tuple(d[perm[i]] for i in range(3))))


def all_relabelings(tau):
    return [permute_signature(tau, p) for p in permutations(range(3))]


def is_downward_closed(points):
    pts = set(points)
    for x, y, z in pts:
        for q in ((x - 1, y, z), (x, y - 1, z), (x, y, z - 1)):
            if min(q) >= 0 and q not in pts:
                return False
    return True


# -- maps -------------------------------------------------------------------


def write_graph(path, g):
    """Write g, a SigmaGraph or a CombinatorialMap, as a graph file at path
    and return the path as a string.

    The file holds the rotations as "vertices" and, for a SigmaGraph, its
    "marked_faces", the form `cli` reads and writes.
    """
    cm = g.cmap if isinstance(g, SigmaGraph) else g
    data = {"vertices": [list(r) for r in cm.rotations]}
    if isinstance(g, SigmaGraph):
        data["marked_faces"] = list(g.marked)
    path.write_text(json.dumps(data))
    return str(path)


def block_mirror(t):
    """Dart involution of block_graph(t) exchanging the two half copies.

    Pairs the dart along each face side with the reversed dart along the
    matching side of the mirror face, and likewise across every cap.
    The result reverses orientation: it commutes with the twin map and
    conjugates the rotation system to its inverse, fixing each cap face
    setwise.
    """
    fc, spared = block_complex(t)
    built, nf = doubled(fc, spared).to_map(), len(fc.faces)
    darts = built.face_darts
    phi = [-1] * built.cmap.num_darts

    def pair(a, b):
        # darts on the mirror plane pair with themselves here
        phi[a] = b ^ 1
        phi[b ^ 1] = a
        phi[a ^ 1] = b
        phi[b] = a ^ 1

    for f in range(nf):
        for a, b in zip(darts[f], reversed(darts[nf + f])):
            pair(a, b)
    for cap in darts[2 * nf:]:
        pair(*cap)
    return tuple(phi)


def non_bridge_edges(cmap):
    """Edges with distinct faces on their two sides; safe to delete."""
    return [k for k in range(cmap.num_edges)
            if cmap.face_of_dart[2 * k] != cmap.face_of_dart[2 * k + 1]]


def delete_edge(cmap, k):
    """Remove non-bridge edge k, renumbering the higher darts down by two.

    Vertices left with no darts are dropped.  Bridges are refused since
    removing one disconnects the map.
    """
    if not 0 <= k < cmap.num_edges:
        raise OutOfRange("edge %d out of range" % k)
    if cmap.face_of_dart[2 * k] == cmap.face_of_dart[2 * k + 1]:
        raise OutOfRange("edge %d is a bridge" % k)
    gone = (2 * k, 2 * k + 1)
    rots = []
    for rot in cmap.rotations:
        new = [d - 2 if d > 2 * k + 1 else d for d in rot if d not in gone]
        if new:
            rots.append(new)
    return CombinatorialMap(rots)


def subdivided(sg, edges):
    """Each listed edge in turn split by a new vertex of degree 2, marking
    the same faces.  Edge e keeps its first end and the new edge takes its
    second, so an edge listed may be one an earlier split made."""
    cm = sg.cmap
    rots = [list(r) for r in cm.rotations]
    where = {d: (v, p) for v, r in enumerate(rots) for p, d in enumerate(r)}
    m = cm.num_edges
    for e in edges:
        v, p = where[2 * e + 1]
        rots[v][p] = 2 * m + 1
        where[2 * m + 1] = (v, p)
        where[2 * e + 1], where[2 * m] = (len(rots), 0), (len(rots), 1)
        rots.append([2 * e + 1, 2 * m])
        m += 1
    new = CombinatorialMap(rots)
    return SigmaGraph(new, tuple(new.face_of_dart[cm.faces[f][0]] for f in sg.marked))
