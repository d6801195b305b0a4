"""Marked-graph exploration: distances, layers, boundary walks."""

import pytest

from pantslam.combmap import CombinatorialMap
from pantslam.errors import (
    BadFaceIndex,
    DuplicateMarkedFace,
    EmptyLayer,
    NotClosed,
    NotSimple,
    OutOfRange,
)
from pantslam.exploration import Loop, SigmaGraph, hemispheres, layer
from pantslam.ladders import block_graph
from pantslam.randmaps import random_sigma_graph
from pantslam.special_loops import special_family

from conftest import build_corpus_graph, corpus_jobs, theta_graph
from helpers import distance_matrix, flood_sides


def test_marked_faces_must_be_distinct():
    cm = CombinatorialMap([[0, 2, 4], [5, 3, 1]])
    with pytest.raises(DuplicateMarkedFace):
        SigmaGraph(cm, (0, 0, 1))


def test_marked_face_must_exist():
    cm = CombinatorialMap([[0, 2, 4], [5, 3, 1]])
    with pytest.raises(BadFaceIndex):
        SigmaGraph(cm, (0, 1, 9))


def test_theta_distances():
    sg = theta_graph()
    assert sg.distances() == (1, 1, 1)


def test_ladder_distance_matrix():
    sg = block_graph((4, 3, 2, 0, 1, 3))
    dm = distance_matrix(sg)
    f1, f2, f3 = sg.marked
    assert dm[f1][f2] == 5
    assert dm[f1][f3] == 6
    assert dm[f2][f3] == 6
    assert dm[f1][f1] == 0


def test_distance_matrix_symmetric():
    sg = block_graph((2, 1, 1, 0, 1, 1))
    dm = distance_matrix(sg)
    nf = sg.cmap.num_faces
    for f in range(nf):
        for g in range(nf):
            assert dm[f][g] == dm[g][f]


def test_layer_zero_is_the_marked_face():
    sg = theta_graph()
    for i in (1, 2, 3):
        assert layer(sg, i, 0) == frozenset({sg.marked[i - 1]})


def test_layer_negative_radius_rejected():
    with pytest.raises(OutOfRange):
        layer(theta_graph(), 1, -1)


def test_layer_beyond_diameter_is_empty():
    assert layer(theta_graph(), 1, 5) == frozenset()


def test_layer_bad_marked_index():
    with pytest.raises(OutOfRange):
        layer(theta_graph(), 4, 0)


def test_theta_boundary_loop():
    sg = theta_graph()
    loops = sg.boundary_loops(1, 1)
    assert len(loops) == 1
    assert loops[0].darts == (1, 4)


def test_boundary_loops_empty_layer_rejected():
    with pytest.raises(EmptyLayer):
        theta_graph().boundary_loops(1, 3)


def test_theta_digons_are_type_loops():
    sg = theta_graph()
    got = {}
    for i in (1, 2, 3):
        (lp,) = sg.boundary_loops(i, 1)
        got[i] = sg.classify(lp)
    assert got == {1: 1, 2: 2, 3: 3}


def test_theta_hemispheres():
    sg = theta_graph()
    (lp,) = sg.boundary_loops(1, 1)
    sides = hemispheres(sg, lp)
    assert set(map(frozenset, sides)) == {frozenset({0}), frozenset({1, 2})}


def test_hemispheres_partition_all_faces():
    sg = block_graph((2, 1, 1, 0, 1, 1))
    for i in (1, 2, 3):
        for lp in sg.boundary_loops(i, 1):
            a, b = hemispheres(sg, lp)
            assert a.isdisjoint(b)
            assert a | b == frozenset(range(sg.cmap.num_faces))


def test_hemispheres_match_flood_reference():
    # the corpus cycles are checked beside their types in test_oracle
    checked = 0
    for seed in range(3):
        sg = random_sigma_graph(seed, 2000, 2000)
        for i, m in enumerate(sg.marked, 1):
            # every loop of the levels the signature scans around m
            top = min(sg.face_distance(m, f) for f in sg.marked if f != m)
            for k in range(1, min(len(special_family(sg, i)) + 1, top) + 1):
                for lp in sg.boundary_loops(i, k):
                    assert hemispheres(sg, lp) == flood_sides(sg.cmap, lp), (seed, lp)
                    checked += 1
    assert checked > 500


def test_open_walk_rejected():
    sg = theta_graph()
    with pytest.raises(NotClosed):
        hemispheres(sg, Loop((0,)))
    with pytest.raises(NotClosed):
        sg.classify(Loop((0,)))


def test_vertex_revisit_rejected():
    cm = CombinatorialMap([[0, 6, 2, 4], [5, 3, 7, 1]])
    sg = SigmaGraph(cm, (0, 2, 3))
    with pytest.raises(NotSimple):
        hemispheres(sg, Loop((0, 3, 2, 7)))
    with pytest.raises(NotSimple):
        sg.classify(Loop((0, 3, 2, 7)))


def test_contractible_loop_has_no_type():
    # doubled edge cuts off a digon face that carries no mark
    cm = CombinatorialMap([[0, 6, 2, 4], [5, 3, 7, 1]])
    sg = SigmaGraph(cm, (0, 2, 3))
    assert sg.classify(Loop((1, 6))) is None


def test_loop_accessors():
    lp = Loop((1, 4))
    sg = theta_graph()
    assert lp.darts == (1, 4)
    assert lp.edge_set() == frozenset({0, 2})
    assert set(lp.vertices(sg.cmap)) == {0, 1}


def _adjacency_distances(sg, src):
    """Face distances by a BFS over face-adjacency sets built from scratch."""
    cm = sg.cmap
    adj = [set() for _ in range(cm.num_faces)]
    for rot in cm.rotations:
        here = {cm.face_of(d) for d in rot}
        for f in here:
            adj[f] |= here
    dist = [-1] * cm.num_faces
    dist[src] = 0
    queue = [src]
    for f in queue:
        for g in adj[f]:
            if dist[g] < 0:
                dist[g] = dist[f] + 1
                queue.append(g)
    return tuple(dist)


def test_incidence_bfs_matches_adjacency_bfs():
    graphs = [random_sigma_graph(seed, 900, 300) for seed in range(6)]
    # only the first 500 growth steps add vertices, so these maps have hubs
    assert max(len(r) for g in graphs for r in g.cmap.rotations) > 200
    graphs += [block_graph(t) for t in ((4, 3, 2, 0, 1, 3), (9, 5, 7, 2, 4, 3))]
    graphs += [build_corpus_graph(*job) for job in corpus_jobs()[::40]]
    for sg in graphs:
        nf = sg.cmap.num_faces
        for src in set(sg.marked) | {0, nf // 2, nf - 1}:
            assert sg._dist_from(src) == _adjacency_distances(sg, src), (sg.cmap, src)
