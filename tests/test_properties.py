"""Property suite: structural invariants over randomized inputs.

Random sphere maps come from the surgery generator, so every drawn map
is already connected and planar; properties below assert what the rest
of the pipeline promises on top of that.
"""

from itertools import permutations
from random import Random

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pantslam.combmap import CombinatorialMap
from pantslam.exploration import Loop, SigmaGraph, loop_sides
from pantslam.ladders import block_graph
from pantslam.polytope import check_realizable, enumerate_points, nu_transform
from pantslam.randmaps import random_map, random_sigma_graph
from pantslam.special_loops import sigma_of, special_family

from conftest import block_sigma
from helpers import (
    block_mirror,
    delete_edge,
    distance_matrix,
    is_downward_closed,
    non_bridge_edges,
    pair_meeting_breaches,
    permute_signature,
    slack_form_ok,
    subdivided,
    tau_from_mu_nu,
)

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LIGHT_SETTINGS = settings(max_examples=200, deadline=None)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def sphere_maps(draw, max_faces: int = 9) -> CombinatorialMap:
    seed = draw(seeds)
    nf = draw(st.integers(min_value=3, max_value=max_faces))
    return random_map(seed, nf)


@st.composite
def marked_graphs(draw, max_faces: int = 10):
    return random_sigma_graph(draw(seeds), max_faces=max_faces)


@st.composite
def block_tuples(draw, cap: int = 3):
    ls = tuple(draw(st.integers(min_value=0, max_value=cap)) for _ in range(3))
    ns = tuple(
        draw(st.integers(min_value=0, max_value=min(ls[(i + 1) % 3], ls[(i + 2) % 3])))
        for i in range(3)
    )
    return ls + ns


@st.composite
def realizable_signatures(draw, cap: int = 3):
    mu = tuple(draw(st.integers(min_value=0, max_value=cap)) for _ in range(3))
    nu = tuple(
        draw(st.integers(min_value=0, max_value=min(mu[(i + 1) % 3], mu[(i + 2) % 3])))
        for i in range(3)
    )
    assume(all(mu[(i + 1) % 3] + mu[(i + 2) % 3] - nu[i] >= 1 for i in range(3)))
    tau = tuple(tau_from_mu_nu(mu, nu))
    assume(slack_form_ok(tau))
    return tau


@given(sphere_maps())
@LIGHT_SETTINGS
def test_random_maps_satisfy_euler(cm):
    assert cm.num_vertices - cm.num_edges + cm.num_faces == 2


@given(sphere_maps(max_faces=7))
@PROPERTY_SETTINGS
def test_face_distance_one_means_shared_vertex(cm):
    sg = SigmaGraph(cm, (0, 1, 2))
    dm = distance_matrix(sg)
    verts_of = [
        {cm.dart_vertex[d] for d in face} for face in cm.faces
    ]
    for f in range(cm.num_faces):
        assert dm[f][f] == 0
        for g in range(cm.num_faces):
            assert dm[f][g] == dm[g][f]
            if f != g:
                share = bool(verts_of[f] & verts_of[g])
                assert (dm[f][g] == 1) == share


@given(marked_graphs())
@PROPERTY_SETTINGS
def test_signature_satisfies_realizability(sg):
    tau = sigma_of(sg)
    assert check_realizable(tau)
    mu = [len(special_family(sg, i)) for i in (1, 2, 3)]
    nu = [mu[(i + 1) % 3] + mu[(i + 2) % 3] - tau.delta[i] for i in range(3)]
    assert all(n >= 0 for n in nu)
    assert tuple(nu) == tuple(nu_transform(tau))
    # at most one empty family
    assert sum(1 for m in tau.mu if m == 0) <= 1


@given(marked_graphs(max_faces=8))
@PROPERTY_SETTINGS
def test_boundary_loops_are_simple_and_edge_disjoint(sg):
    for i in (1, 2, 3):
        for k in range(1, max(sg._dist_from(sg.marked[i - 1])) + 1):
            loops = sg.boundary_loops(i, k)
            used_edges = set()
            for lp in loops:
                verts = lp.vertices(sg.cmap)
                assert len(set(verts)) == len(verts)
                assert used_edges.isdisjoint(lp.edge_set())
                used_edges |= lp.edge_set()


@given(marked_graphs(max_faces=8))
@PROPERTY_SETTINGS
def test_hemispheres_partition_faces(sg):
    all_faces = frozenset(range(sg.cmap.num_faces))
    for i in (1, 2, 3):
        for lp in sg.boundary_loops(i, 1):
            a, b = loop_sides(sg, lp)
            assert a | b == all_faces
            assert a.isdisjoint(b)
            src = sg.marked[i - 1]
            assert (src in a) != (src in b)


@given(marked_graphs(max_faces=8))
@PROPERTY_SETTINGS
def test_layer_boundary_separates_near_from_far(sg):
    dm = distance_matrix(sg)
    for i in (1, 2, 3):
        src = sg.marked[i - 1]
        for k in range(1, max(dm[src]) + 1):
            far_sides = []
            for lp in sg.boundary_loops(i, k):
                a, b = loop_sides(sg, lp)
                far = b if src in a else a
                far_sides.append(far)
                # the near face along each strand sits exactly one
                # step in, the far face at k or beyond
                for d in lp.darts:
                    pair = {sg.cmap.face_of_dart[d], sg.cmap.face_of_dart[d ^ 1]}
                    dists = sorted(dm[src][f] for f in pair)
                    assert dists[0] == k - 1
                    assert dists[1] >= k
            for x in range(len(far_sides)):
                for y in range(x + 1, len(far_sides)):
                    assert far_sides[x].isdisjoint(far_sides[y])
            union = set().union(*far_sides) if far_sides else set()
            expected = {
                f for f in range(sg.cmap.num_faces) if dm[src][f] >= k
            }
            assert union == expected


@given(marked_graphs(max_faces=9))
@PROPERTY_SETTINGS
def test_interlock_law_on_random_graphs(sg):
    fams = [special_family(sg, i) for i in (1, 2, 3)]
    assert pair_meeting_breaches(sg, fams) == []


@given(marked_graphs(max_faces=9))
@PROPERTY_SETTINGS
def test_complementary_inner_sides_are_disjoint(sg):
    tau = sigma_of(sg)
    for i in range(3):
        d_i = tau.delta[i]
        ia, ib = (i + 1) % 3 + 1, (i + 2) % 3 + 1
        fa = special_family(sg, ia)
        fb = special_family(sg, ib)
        for k in range(1, d_i + 1):
            j = d_i + 1 - k
            if k > len(fa) or j > len(fb):
                continue
            sa = loop_sides(sg, fa[k - 1])
            sb = loop_sides(sg, fb[j - 1])
            inner_a = sa[0] if sg.marked[ia - 1] in sa[0] else sa[1]
            inner_b = sb[0] if sg.marked[ib - 1] in sb[0] else sb[1]
            assert inner_a.isdisjoint(inner_b)


@given(marked_graphs(max_faces=9), st.data())
@PROPERTY_SETTINGS
def test_edge_deletion_never_grows_signature(sg, data):
    cm = sg.cmap
    candidates = []
    for k in non_bridge_edges(cm):
        sides = {cm.face_of_dart[2 * k], cm.face_of_dart[2 * k + 1]}
        if len(sides & set(sg.marked)) < 2 and all(
            any(d >> 1 != k for d in cm.faces[f]) for f in sg.marked
        ):
            candidates.append(k)
    assume(candidates)
    k = candidates[data.draw(st.integers(min_value=0, max_value=len(candidates) - 1))]
    smaller = delete_edge(cm, k)

    def tracked(f: int) -> int:
        d = next(d for d in cm.faces[f] if d >> 1 != k)
        return smaller.face_of_dart[d - 2 if d > 2 * k + 1 else d]

    new_marks = tuple(tracked(f) for f in sg.marked)
    assume(len(set(new_marks)) == 3)
    shrunk = SigmaGraph(smaller, new_marks)
    before = sigma_of(sg)
    after = sigma_of(shrunk)
    assert all(a <= b for a, b in zip(after.mu, before.mu))
    assert all(a <= b for a, b in zip(after.delta, before.delta))


@given(block_tuples())
@PROPERTY_SETTINGS
def test_closed_form_signature_everywhere(t):
    assert tuple(sigma_of(block_graph(t))) == block_sigma(t)


@given(block_tuples(cap=2))
@PROPERTY_SETTINGS
def test_mirror_preserves_loop_types(t):
    g = block_graph(t)
    phi = block_mirror(t)
    for i in (1, 2, 3):
        for lp in special_family(g, i):
            image = Loop(tuple(phi[d] for d in lp.darts))
            assert g.classify(image) == i


@given(realizable_signatures())
@PROPERTY_SETTINGS
def test_polytope_points_downward_closed(tau):
    pts = enumerate_points(tau).points
    assert is_downward_closed(pts)
    assert (0, 0, 0) in pts


@given(realizable_signatures(), st.permutations(range(3)))
@PROPERTY_SETTINGS
def test_polytope_covariant_under_relabeling(tau, perm):
    perm = tuple(perm)
    moved = permute_signature(tau, perm)
    direct = set(enumerate_points(moved).points)
    mapped = {tuple(pt[perm[k]] for k in range(3)) for pt in enumerate_points(tau).points}
    assert direct == mapped


@given(realizable_signatures())
@PROPERTY_SETTINGS
def test_membership_matches_inequalities(tau):
    mu, delta = tau[:3], tau[3:]
    pts = set(enumerate_points(tau).points)
    for a in range(mu[0] + 1):
        for b in range(mu[1] + 1):
            for c in range(mu[2] + 1):
                inside = b + c <= delta[0] and c + a <= delta[1] and a + b <= delta[2]
                assert ((a, b, c) in pts) == inside


@given(st.tuples(*[st.integers(min_value=0, max_value=4)] * 3, *[st.integers(min_value=1, max_value=9)] * 3))
@LIGHT_SETTINGS
def test_slack_form_equals_inequality_form(tau):
    assert slack_form_ok(tau) == bool(check_realizable(tau))


@given(marked_graphs(max_faces=7))
@PROPERTY_SETTINGS
def test_signature_is_stable_across_runs(sg):
    assert tuple(sigma_of(sg)) == tuple(sigma_of(sg))


# -- metamorphic invariants on maps with 10^3 to 10^4 faces -------------------

BIG_BLOCKS = [(100, 100, 100, 33, 33, 33), (100, 37, 64, 20, 30, 11), (45, 60, 80, 20, 15, 12)]


def test_block_closed_form_on_large_ladders():
    for t in BIG_BLOCKS:
        sg = block_graph(t)
        assert sg.cmap.num_faces >= 1000
        assert tuple(sigma_of(sg)) == block_sigma(t)


def test_relabeling_permutes_large_signature():
    sg = block_graph(BIG_BLOCKS[2])
    tau = sigma_of(sg)
    for perm in permutations(range(3)):
        relabeled = SigmaGraph(sg.cmap, tuple(sg.marked[p] for p in perm))
        assert sigma_of(relabeled) == permute_signature(tau, perm)


def _mirrored(sg):
    """Every rotation reversed; a face right of d now lies right of its twin."""
    cm = sg.cmap
    new = CombinatorialMap([r[::-1] for r in cm.rotations])
    return SigmaGraph(new, tuple(new.face_of_dart[cm.faces[f][0] ^ 1] for f in sg.marked))


def _renumbered(sg, seed):
    """Edges, edge directions, vertices and rotation starts shuffled."""
    rng = Random(seed)
    cm = sg.cmap
    edges = list(range(cm.num_edges))
    rng.shuffle(edges)
    dmap = [0] * cm.num_darts
    for e, e2 in enumerate(edges):
        flip = rng.randrange(2)
        dmap[2 * e] = 2 * e2 + flip
        dmap[2 * e + 1] = 2 * e2 + 1 - flip
    order = list(range(cm.num_vertices))
    rng.shuffle(order)
    rots = []
    for v in order:
        r = [dmap[d] for d in cm.rotations[v]]
        s = rng.randrange(len(r))
        rots.append(r[s:] + r[:s])
    new = CombinatorialMap(rots)
    return SigmaGraph(new, tuple(new.face_of_dart[dmap[cm.faces[f][0]]] for f in sg.marked))


def test_large_signature_survives_mirroring_renumbering_and_subdivision():
    for t in BIG_BLOCKS[1:]:
        sg = block_graph(t)
        tau = sigma_of(sg)
        assert sigma_of(_mirrored(sg)) == tau
        assert sigma_of(_renumbered(sg, sum(t))) == tau
        sub = subdivided(sg, range(0, sg.cmap.num_edges, 3))
        assert sub.cmap.num_vertices > sg.cmap.num_vertices
        assert sigma_of(sub) == tau


# (seed, faces) of random marked maps with asymmetric signatures; the
# generator adds vertices only in its first 500 steps, so these maps put
# thousands of edges on a few hundred vertices
BIG_RANDOM = [(2, 2000), (2, 5000), (0, 10000)]


def test_relabeling_permutes_large_random_signature():
    for seed, nf in BIG_RANDOM:
        sg = random_sigma_graph(seed, nf, nf)
        tau = sigma_of(sg)
        assert len(set(permute_signature(tau, p) for p in permutations(range(3)))) == 6
        for perm in permutations(range(3)):
            relabeled = SigmaGraph(sg.cmap, tuple(sg.marked[p] for p in perm))
            assert sigma_of(relabeled) == permute_signature(tau, perm)


def test_large_random_signature_survives_mirroring_renumbering_and_subdivision():
    for seed, nf in BIG_RANDOM:
        sg = random_sigma_graph(seed, nf, nf)
        tau = sigma_of(sg)
        assert sigma_of(_mirrored(sg)) == tau
        assert sigma_of(_renumbered(sg, seed + nf)) == tau
        sub = subdivided(sg, range(0, sg.cmap.num_edges, 3))
        assert sub.cmap.num_vertices > sg.cmap.num_vertices
        assert sigma_of(sub) == tau
