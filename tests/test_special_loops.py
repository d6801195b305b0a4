"""Nested separating loop families and the six-number signature."""

from itertools import permutations

import pytest

from pantslam.errors import OutOfRange
from pantslam.exploration import SigmaGraph
from pantslam.polytope import nu_transform
from pantslam.randmaps import random_sigma_graph
from pantslam.special_loops import (
    NuVector,
    SigmaVector,
    loop_toward,
    sigma_of,
    special_family,
)

from conftest import build_corpus_graph, corpus_jobs, theta_graph
from helpers import flood_sides


def test_sigma_vector_views():
    v = SigmaVector(4, 1, 1, 1, 4, 5)
    assert v.mu == (4, 1, 1)
    assert v.delta == (1, 4, 5)
    assert tuple(v) == (4, 1, 1, 1, 4, 5)


def test_theta_signature():
    assert tuple(sigma_of(theta_graph())) == (1, 1, 1, 1, 1, 1)


def test_crossed_rings_signature(crossed_rings):
    assert tuple(sigma_of(crossed_rings)) == (4, 1, 1, 1, 4, 5)


def test_triple_ring_signature(triple_ring):
    assert tuple(sigma_of(triple_ring)) == (1, 1, 1, 2, 2, 2)


def test_theta_loop_toward_is_shared():
    sg = theta_graph()
    a = loop_toward(sg, 1, 2, 1)
    b = loop_toward(sg, 1, 3, 1)
    assert a.darts == (1, 4)
    assert a.edge_set() == b.edge_set()


def test_loop_toward_needs_distinct_indices():
    with pytest.raises(OutOfRange):
        loop_toward(theta_graph(), 1, 1, 1)


def test_loop_toward_level_bounds():
    sg = theta_graph()
    with pytest.raises(OutOfRange):
        loop_toward(sg, 1, 2, 0)
    with pytest.raises(OutOfRange):
        loop_toward(sg, 1, 2, 2)


def test_crossed_rings_shared_prefix(crossed_rings):
    # the four nested loops around the first marked face agree whichever
    # far face is used as the target
    for k in range(1, 5):
        a = loop_toward(crossed_rings, 1, 2, k)
        b = loop_toward(crossed_rings, 1, 3, k)
        assert a.edge_set() == b.edge_set()


def test_theta_families():
    sg = theta_graph()
    for i in (1, 2, 3):
        fam = special_family(sg, i)
        assert fam.i == i
        assert len(fam.loops) == 1
    assert special_family(sg, 2).loops[0].darts == (0, 3)


def test_crossed_rings_family_sizes(crossed_rings):
    sizes = tuple(len(special_family(crossed_rings, i).loops) for i in (1, 2, 3))
    assert sizes == (4, 1, 1)


def test_family_loops_are_nested_and_disjoint(crossed_rings):
    fam = special_family(crossed_rings, 1)
    edge_sets = [lp.edge_set() for lp in fam.loops]
    vert_sets = [set(lp.vertices(crossed_rings.cmap)) for lp in fam.loops]
    for a in range(len(fam.loops)):
        for b in range(a + 1, len(fam.loops)):
            assert edge_sets[a].isdisjoint(edge_sets[b])
            assert not (vert_sets[a] & vert_sets[b])


def test_depth_vectors():
    assert tuple(nu_transform(sigma_of(theta_graph()))) == (1, 1, 1)


def test_depth_vector_crossed(crossed_rings):
    assert tuple(nu_transform(sigma_of(crossed_rings))) == (1, 1, 0)


def test_depth_vector_triple(triple_ring):
    assert tuple(nu_transform(sigma_of(triple_ring))) == (0, 0, 0)


def test_depth_matches_signature_arithmetic(triple_ring):
    m1, m2, m3, d1, d2, d3 = sigma_of(triple_ring)
    n = NuVector(m2 + m3 - d1, m3 + m1 - d2, m1 + m2 - d3)
    assert nu_transform(sigma_of(triple_ring)) == n


# -- differential check against flood-based references ------------------------


def _reference_toward(sg, i0, j0, k):
    """The level-k loop around i0 with j0 on its far side, found by floods."""
    hits = []
    for loop in sg.boundary_loops(i0 + 1, k):
        left, right = flood_sides(sg.cmap, loop)
        away = right if sg.marked[i0] in left else left
        if sg.marked[j0] in away:
            hits.append(loop)
    assert len(hits) == 1
    return hits[0]


def _reference_family(sg, i0):
    far = ((i0 + 1) % 3, (i0 + 2) % 3)
    top = min(sg.face_distance(sg.marked[i0], sg.marked[j]) for j in far)
    out = []
    for k in range(1, top + 1):
        a, b = (_reference_toward(sg, i0, j, k) for j in far)
        if a.edge_set() != b.edge_set():
            break
        out.append(a)
    return tuple(out)


def _differential_graphs():
    graphs = [random_sigma_graph(seed, max_faces=40) for seed in range(40)]
    graphs += [random_sigma_graph(seed, max_faces=300, min_faces=150) for seed in range(3)]
    graphs += [build_corpus_graph(*job) for job in corpus_jobs()[::25]]
    return graphs


def test_families_match_flood_reference_in_every_marked_order():
    checked = 0
    for g in _differential_graphs():
        for order in permutations(g.marked):
            sg = SigmaGraph(g.cmap, order)
            for i0 in (0, 1, 2):
                fam = special_family(sg, i0 + 1)
                assert fam.loops == _reference_family(sg, i0)
                for j0 in (0, 1, 2):
                    if j0 == i0:
                        continue
                    dij = sg.face_distance(sg.marked[i0], sg.marked[j0])
                    for k in range(1, min(len(fam) + 1, dij) + 1):
                        got = loop_toward(sg, i0 + 1, j0 + 1, k)
                        assert got == _reference_toward(sg, i0, j0, k)
                        checked += 1
    assert checked > 1000
