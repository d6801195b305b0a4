"""Brute-force cycle catalog against the layered pipeline."""

import pytest

from pantslam.chords import family_graph
from pantslam.combmap import CombinatorialMap
from pantslam.errors import LimitExceeded, OutOfRange
from pantslam.ladders import block_graph
from pantslam.oracle import (
    all_simple_cycles,
    lamination_space_bruteforce,
    max_disjoint_type,
)
from pantslam.polytope import lamination_space
from pantslam.special_loops import special_family

from conftest import theta_graph


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
    for a in range(3):
        assert not cat.conflict(a, a)
        for b in range(3):
            if a != b:
                assert cat.conflict(a, b)
                assert cat.conflict(b, a)


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
