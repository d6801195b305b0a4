"""Brute-force cycle catalog against the layered pipeline."""

import pytest

from pantslam.chords import family_graph
from pantslam.combmap import CombinatorialMap
from pantslam.errors import EmptyLayer, LimitExceeded, OutOfRange
from pantslam.exploration import hemispheres
from pantslam.ladders import block_graph
from pantslam.oracle import (
    all_simple_cycles,
    lamination_space_bruteforce,
    max_disjoint_type,
)
from pantslam.polytope import lamination_space
from pantslam.randmaps import random_sigma_graph
from pantslam.special_loops import sigma_of, special_family

from conftest import OVER_LIMIT, build_corpus_graph, corpus_jobs, nested_loops, theta_graph
from helpers import flood_sides


def test_triangle_has_one_cycle():
    tri = CombinatorialMap([[0, 5], [1, 2], [3, 4]])
    cat = all_simple_cycles(tri)
    assert len(cat) == 1
    assert cat.types == (None,)


def test_theta_catalog():
    cat = all_simple_cycles(theta_graph())
    assert len(cat) == 3
    assert sorted(cat.types) == [1, 2, 3]


def test_theta_cycles_all_conflict():
    # every pair of digons shares both vertices
    cat = all_simple_cycles(theta_graph())
    assert cat.masks == (0b11, 0b11, 0b11)
    for a in range(3):
        for b in range(3):
            assert cat.masks[a] & cat.masks[b]


def test_of_type_rejects_bad_index():
    cat = all_simple_cycles(theta_graph())
    with pytest.raises(OutOfRange):
        cat.of_type(4)


def test_theta_packing_numbers():
    sg = theta_graph()
    cat = all_simple_cycles(sg)
    for i in (1, 2, 3):
        assert max_disjoint_type(sg, i, cat) == 1
        assert max_disjoint_type(sg, i, cat) == len(special_family(sg, i).loops)


def test_theta_bruteforce_space():
    sg = theta_graph()
    bf = lamination_space_bruteforce(sg)
    assert bf == frozenset(
        {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    )
    assert bf == frozenset(lamination_space(sg).points)


def test_triple_ring_catalog(triple_ring):
    cat = all_simple_cycles(triple_ring)
    for i in (1, 2, 3):
        assert len(cat.of_type(i)) == 1
        assert max_disjoint_type(triple_ring, i, cat) == 1


def test_triple_ring_excludes_double_ring(triple_ring):
    bf = lamination_space_bruteforce(triple_ring)
    assert (2, 0, 0) not in bf
    assert (1, 1, 1) in bf
    assert (0, 0, 0) in bf
    assert bf == frozenset(lamination_space(triple_ring).points)


def test_nested_circles_pack_to_their_count():
    for k in (1, 2, 3):
        g = family_graph((k, 1, 1), (0, 0, 0))
        assert max_disjoint_type(g, 1) == k


def test_crossed_rings_bruteforce(crossed_rings):
    cat = all_simple_cycles(crossed_rings)
    bf = lamination_space_bruteforce(crossed_rings, cat)
    assert bf == frozenset(lamination_space(crossed_rings).points)
    for i in (1, 2, 3):
        assert max_disjoint_type(crossed_rings, i, cat) == len(
            special_family(crossed_rings, i).loops
        )


@pytest.mark.parametrize("name", ["theta", "crossed_rings", "triple_ring", "block"])
def test_packing_numbers_are_maxima_of_bruteforce_space(request, name):
    sg = block_graph((1, 1, 0, 0, 0, 1)) if name == "block" else request.getfixturevalue(name)
    cat = all_simple_cycles(sg)
    bf = lamination_space_bruteforce(sg, cat)
    for i in (1, 2, 3):
        assert max(p[i - 1] for p in bf) == max_disjoint_type(sg, i, cat)


def test_bruteforce_space_downward_closed(crossed_rings):
    bf = lamination_space_bruteforce(crossed_rings)
    for a, b, c in bf:
        for da in range(a + 1):
            for db in range(b + 1):
                for dc in range(c + 1):
                    assert (da, db, dc) in bf


def test_cycle_limit_enforced(crossed_rings):
    with pytest.raises(LimitExceeded):
        all_simple_cycles(crossed_rings, cycle_limit=2)


def test_node_limit_enforced(crossed_rings):
    with pytest.raises(LimitExceeded):
        all_simple_cycles(crossed_rings, node_limit=5)


def test_empty_selection_always_present():
    g = family_graph((1, 1, 0), (0, 0, 0))
    assert (0, 0, 0) in lamination_space_bruteforce(g)


def test_deep_nested_loops_match_pipeline():
    # 1,200 nested self-loops: the cycle search runs 1,200 vertices deep
    # and a packing of type 1 picks 1,199 cycles
    k = 1200
    sg = nested_loops(k)
    assert tuple(sigma_of(sg)) == (k - 1, 1, 0, 1, k - 1, k)
    cat = all_simple_cycles(sg)
    assert len(cat) == k
    assert lamination_space_bruteforce(sg, cat) == frozenset(lamination_space(sg).points)


def _flood_types(sg, loops):
    """Each loop's type by the flood reference: which of marked faces 2
    and 3 share the side of marked face 1."""
    m1, m2, m3 = sg.marked
    types = []
    for loop in loops:
        side = next(s for s in flood_sides(sg.cmap, loop) if m1 in s)
        types.append({(True, True): None, (False, False): 1,
                      (False, True): 2, (True, False): 3}[m2 in side, m3 in side])
    return types


CATALOGUED_JOBS = [job for job in corpus_jobs() if job not in OVER_LIMIT]


@pytest.mark.parametrize("job", CATALOGUED_JOBS[::10], ids=repr)
def test_parity_types_match_flood_types(job):
    sg = build_corpus_graph(*job)
    cat = all_simple_cycles(sg)
    assert list(cat.types) == _flood_types(sg, cat.cycles)
    for lp in cat.cycles[:400]:
        assert hemispheres(sg, lp) == flood_sides(sg.cmap, lp), lp


@pytest.mark.parametrize("seed", range(3))
def test_parity_types_match_flood_types_on_random_boundaries(seed):
    sg = random_sigma_graph(seed, max_faces=60, min_faces=40)
    loops = []
    for i in (1, 2, 3):
        k = 1
        while True:
            try:
                loops.extend(sg.boundary_loops(i, k))
            except EmptyLayer:
                break
            k += 1
    assert loops
    assert [sg.classify(lp) for lp in loops] == _flood_types(sg, loops)


def _cycle_edge_sets(cm):
    """Edge sets of all cycles, by brute force over the edge subsets: those
    that are connected and give each vertex they touch degree exactly 2.
    Subsets giving a vertex degree 3 or more are cut off early."""
    ends = [(cm.tail(2 * e), cm.head(2 * e)) for e in range(cm.num_edges)]
    degree = [0] * cm.num_vertices
    chosen = []
    out = set()

    def connected():
        reached = {ends[chosen[0]][0]}
        grew = True
        while grew:
            grew = False
            for e in chosen:
                a, b = ends[e]
                if (a in reached) != (b in reached):
                    reached.update((a, b))
                    grew = True
        return all(e[0] in reached for e in map(ends.__getitem__, chosen))

    def grow(e):
        if e == len(ends):
            touched = {v for f in chosen for v in ends[f]}
            if chosen and all(degree[v] == 2 for v in touched) and connected():
                out.add(frozenset(chosen))
            return
        grow(e + 1)
        a, b = ends[e]
        degree[a] += 1
        degree[b] += 1
        if degree[a] <= 2 and degree[b] <= 2:
            chosen.append(e)
            grow(e + 1)
            chosen.pop()
        degree[a] -= 1
        degree[b] -= 1

    grow(0)
    return out


SMALL_JOBS = [job for job in corpus_jobs() if build_corpus_graph(*job).cmap.num_edges <= 14]


@pytest.mark.parametrize("job", SMALL_JOBS + [("nested", 5)], ids=repr)
def test_cycles_match_edge_subset_brute_force(job):
    sg = nested_loops(job[1]) if job[0] == "nested" else build_corpus_graph(*job)
    got = [lp.edge_set() for lp in all_simple_cycles(sg).cycles]
    assert len(set(got)) == len(got)
    assert set(got) == _cycle_edge_sets(sg.cmap)
