"""Test-only references: the face flood for loop sides, and the helpers
that only the tests call."""

from collections import deque
from itertools import permutations

from pantslam.combmap import CombinatorialMap
from pantslam.errors import NegativeParameter, OutOfRange
from pantslam.ladders import block_complex, doubled
from pantslam.polytope import nu_transform, permute_signature, validate_tau


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
    left, right = flood(cmap.left_face(d0)), flood(cmap.face_of(d0))
    assert not left & right and len(left) + len(right) == cmap.num_faces, (
        "loop does not split the sphere in two")
    return left, right


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
            if cmap.face_of(2 * k) != cmap.face_of(2 * k + 1)]


def delete_edge(cmap, k):
    """Remove non-bridge edge k, renumbering the higher darts down by two.

    Vertices left with no darts are dropped.  Bridges are refused since
    removing one disconnects the map.
    """
    if not 0 <= k < cmap.num_edges:
        raise OutOfRange("edge %d out of range" % k)
    if cmap.face_of(2 * k) == cmap.face_of(2 * k + 1):
        raise OutOfRange("edge %d is a bridge" % k)
    gone = (2 * k, 2 * k + 1)
    rots = []
    for rot in cmap.rotations:
        new = [d - 2 if d > 2 * k + 1 else d for d in rot if d not in gone]
        if new:
            rots.append(new)
    return CombinatorialMap(rots)
