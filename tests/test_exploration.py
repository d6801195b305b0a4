"""Marked-graph exploration: distances, layers, boundary walks."""

import pytest

from pantslam.chords import family_graph
from pantslam.combmap import CombinatorialMap
from pantslam.errors import (
    BadFaceIndex,
    DuplicateMarkedFace,
    EmptyLayer,
    NotClosed,
    NotSimple,
    OutOfRange,
)
from pantslam.exploration import Loop, SigmaGraph, loop_sides
from pantslam.ladders import block_graph
from pantslam.randmaps import random_sigma_graph
from pantslam.special_loops import sigma_of, special_family

from conftest import block_corpus, build_corpus_graph, corpus_jobs, family_corpus, theta_graph
from helpers import distance_matrix, flood_sides


def test_marked_faces_must_be_distinct():
    cm = CombinatorialMap([[0, 2, 4], [5, 3, 1]])
    with pytest.raises(DuplicateMarkedFace):
        SigmaGraph(cm, (0, 0, 1))


def test_marked_face_must_exist():
    cm = CombinatorialMap([[0, 2, 4], [5, 3, 1]])
    # faces that are not ints; (True, 0, 2) would otherwise read as (1, 0, 2)
    for marked in ((0, 1, 9), (0.0, 1, 2), (True, 0, 2), ("a", 1, 2)):
        with pytest.raises(BadFaceIndex):
            SigmaGraph(cm, marked)


def test_theta_distances():
    sg = theta_graph()
    assert sigma_of(sg).delta == (1, 1, 1)


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
    for m in sg.marked:
        assert [f for f, d in enumerate(sg._dist_from(m)) if d == 0] == [m]


def test_layer_negative_radius_rejected():
    sg = theta_graph()
    # boundary levels start at 1 and are ints
    for k in (-1, 0, 1.0, 1.5, "a", True):
        with pytest.raises(OutOfRange):
            sg.boundary_loops(1, k)


def test_layer_beyond_diameter_is_empty():
    sg = theta_graph()
    assert max(sg._dist_from(sg.marked[0])) == 1
    for k in (2, 5):
        with pytest.raises(EmptyLayer):
            sg.boundary_loops(1, k)


def test_layer_bad_marked_index():
    sg = theta_graph()
    for i in (4, 1.0, True, "a"):
        with pytest.raises(OutOfRange):
            sg.boundary_loops(i, 1)


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
    sides = loop_sides(sg, lp)
    assert set(map(frozenset, sides)) == {frozenset({0}), frozenset({1, 2})}


def test_hemispheres_partition_all_faces():
    sg = block_graph((2, 1, 1, 0, 1, 1))
    for i in (1, 2, 3):
        for lp in sg.boundary_loops(i, 1):
            a, b = loop_sides(sg, lp)
            assert a.isdisjoint(b)
            assert a | b == frozenset(range(sg.cmap.num_faces))


def test_hemispheres_match_flood_reference():
    # the corpus cycles are checked beside their types in test_oracle
    checked = 0
    for seed in range(3):
        sg = random_sigma_graph(seed, 2000, 2000)
        for i, m in enumerate(sg.marked, 1):
            # every loop of the levels the signature scans around m
            top = min(sg._dist_from(m)[f] for f in sg.marked if f != m)
            for k in range(1, min(len(special_family(sg, i)) + 1, top) + 1):
                for lp in sg.boundary_loops(i, k):
                    assert loop_sides(sg, lp) == flood_sides(sg.cmap, lp), (seed, lp)
                    checked += 1
    assert checked > 500


def test_open_walk_rejected():
    sg = theta_graph()
    # an open walk, one that closes only when read modulo 6, one past dart 5
    for darts in ((0,), (-6, -3), (6, 9)):
        with pytest.raises(NotClosed):
            sg.classify(Loop(darts))
    # darts that are not ints; (True, 4) would otherwise read as the loop (1, 4)
    for darts in ((0.0, 3.0), ("a",), ("a", 1), (True, 4)):
        with pytest.raises(OutOfRange):
            sg.classify(Loop(darts))
    # a walk of no darts
    with pytest.raises(NotClosed):
        Loop(())


def test_vertex_revisit_rejected():
    cm = CombinatorialMap([[0, 6, 2, 4], [5, 3, 7, 1]])
    sg = SigmaGraph(cm, (0, 2, 3))
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
        here = {cm.face_of_dart[d] for d in rot}
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


def test_boundary_walks_cover_their_level_once_and_chain():
    # the walks are the orbits of the exit-dart successor (see the module
    # docstring): together they hold each level-k dart once, and each
    # walk's darts chain up head to tail and visit each vertex once.  Their
    # types (see `special_loops`): at most one walk per level is typed i,
    # one is at exactly the levels of i's family, and for each other
    # marked face j exactly one walk per level 1..d_ij is typed i or j
    graphs = [family_graph(*spec) for spec in family_corpus(3)]
    graphs += [block_graph(t) for t in block_corpus(2)]
    graphs += [random_sigma_graph(seed, 200) for seed in range(100)]
    levels = 0
    for sg in graphs:
        cm = sg.cmap
        for i, m in enumerate(sg.marked, 1):
            dist = _adjacency_distances(sg, m)
            far = [(j, dist[sg.marked[j - 1]]) for j in (1, 2, 3) if j != i]
            typed_i = []
            by_level = [[] for _ in range(max(dist) + 1)]
            for d in range(cm.num_darts):
                if dist[cm.face_of_dart[d]] == dist[cm.face_of_dart[d ^ 1]] + 1:
                    by_level[dist[cm.face_of_dart[d]]].append(d)
            for k in range(1, len(by_level)):
                loops = sg.boundary_loops(i, k)
                levels += 1
                assert sorted(d for lp in loops for d in lp.darts) == by_level[k]
                for lp in loops:
                    nxt = lp.darts[1:] + lp.darts[:1]
                    heads = [cm.dart_vertex[d ^ 1] for d in lp.darts]
                    assert heads == [cm.dart_vertex[d] for d in nxt]
                    tails = lp.vertices(cm)
                    assert len(set(tails)) == len(tails), lp
                types = [sg.classify(lp) for lp in loops]
                assert types.count(i) <= 1, (i, k, types)
                if i in types:
                    typed_i.append(k)
                for j, dij in far:
                    if k <= dij:
                        assert sum(t in (i, j) for t in types) == 1, (i, j, k, types)
            assert typed_i == list(range(1, len(special_family(sg, i)) + 1))
            with pytest.raises(EmptyLayer):
                sg.boundary_loops(i, len(by_level))
    assert levels > 10000


def test_nonempty_family_marks_a_digon():
    for counts, depths, caps in family_corpus(3):
        sg = family_graph(counts, depths, caps)
        for c, m in zip(counts, sg.marked):
            assert c == 0 or len(sg.cmap.faces[m]) == 2, (counts, depths, caps)
