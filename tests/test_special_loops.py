"""Nested separating loop families and the six-number signature."""

from itertools import combinations, permutations

import pytest

from pantslam.chords import family_graph
from pantslam.errors import OutOfRange
from pantslam.exploration import SigmaGraph
from pantslam.polytope import nu_transform
from pantslam.randmaps import random_sigma_graph
from pantslam.special_loops import SigmaVector, sigma_of, special_family

from conftest import build_corpus_graph, corpus_jobs, family_corpus, theta_graph
from helpers import flood_sides, pair_meeting_breaches


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


def test_special_family_bad_marked_index():
    sg = theta_graph()
    # indices outside 1..3 or not ints; True would otherwise read as 1
    for i in (0, 4, 1.0, True, "a"):
        with pytest.raises(OutOfRange):
            special_family(sg, i)


def test_crossed_rings_shared_prefix(crossed_rings):
    # the four nested loops around the first marked face agree whichever
    # far face is used as the target, and they make up its family
    fam = special_family(crossed_rings, 1)
    assert len(fam) == 4
    for k, lp in enumerate(fam, 1):
        for j0 in (1, 2):
            assert _reference_toward(crossed_rings, 0, j0, k) == lp


def test_theta_families():
    sg = theta_graph()
    for i in (1, 2, 3):
        assert len(special_family(sg, i)) == 1
    assert special_family(sg, 1)[0].darts == (1, 4)
    assert special_family(sg, 2)[0].darts == (0, 3)


def test_crossed_rings_family_sizes(crossed_rings):
    sizes = tuple(len(special_family(crossed_rings, i)) for i in (1, 2, 3))
    assert sizes == (4, 1, 1)


def test_family_loops_are_nested_and_disjoint(crossed_rings):
    fam = special_family(crossed_rings, 1)
    edge_sets = [lp.edge_set() for lp in fam]
    vert_sets = [set(lp.vertices(crossed_rings.cmap)) for lp in fam]
    for a in range(len(fam)):
        for b in range(a + 1, len(fam)):
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
    n = (m2 + m3 - d1, m3 + m1 - d2, m1 + m2 - d3)
    assert nu_transform(sigma_of(triple_ring)) == n


def test_family_sizes_are_widest_paths():
    # sigma_of reads family size i as a widest dual path; special_family
    # lists the boundary loops that the dual-tree parity of classify types
    # i.  Each route checks the other.
    graphs = [build_corpus_graph(*job) for job in corpus_jobs()]
    for spec in family_corpus(4):
        g = family_graph(*spec)
        graphs += [SigmaGraph(g.cmap, order) for order in permutations(g.marked)]
    graphs += [random_sigma_graph(seed, max_faces=80) for seed in range(90)]
    graphs += [random_sigma_graph(seed, max_faces=600, min_faces=300) for seed in range(10)]
    for sg in graphs:
        walked = tuple(len(special_family(sg, i)) for i in (1, 2, 3))
        assert sigma_of(sg).mu == walked, (sg.marked, walked)
    assert len(graphs) > 15_000


def test_pair_meeting_rule_on_corpus_and_random_maps():
    # read off special_family and the distances alone, with no oracle
    graphs = [build_corpus_graph(*job) for job in corpus_jobs()]
    graphs += [random_sigma_graph(seed, max_faces=300) for seed in range(100)]
    pairs = shifted = 0
    for sg in graphs:
        fams = [special_family(sg, i) for i in (1, 2, 3)]
        assert pair_meeting_breaches(sg, fams) == [], sg.marked
        pairs += sum(len(fams[i0]) * len(fams[j0]) for i0, j0 in combinations(range(3), 2))
        # family 1 with every level shifted by one breaks the rule somewhere
        shifted += len(pair_meeting_breaches(sg, [fams[0][1:], fams[1], fams[2]]))
    assert len(graphs) == 1062 and pairs > 13_000
    assert shifted > 1000


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
    top = min(sg._dist_from(sg.marked[i0])[sg.marked[j]] for j in far)
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
                assert fam == _reference_family(sg, i0)
                checked += len(fam)
    assert checked > 2000
