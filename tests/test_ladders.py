"""Doubled-ladder graphs, the chord formula they measure and mirror symmetry."""

from itertools import product

import pytest

from pantslam.errors import NegativeParameter, OutOfRange
from pantslam.ladders import block_graph, validate_params
from pantslam.special_loops import sigma_of

from conftest import block_sigma
from helpers import block_mirror

SAMPLE_TUPLES = [
    (0, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (1, 1, 1, 1, 1, 1),
    (2, 1, 0, 0, 0, 1),
    (1, 2, 1, 1, 0, 1),
    (4, 3, 2, 0, 1, 3),
]


def test_minimal_block():
    g = block_graph((0, 0, 0, 0, 0, 0))
    assert (g.cmap.num_vertices, g.cmap.num_edges, g.cmap.num_faces) == (3, 6, 5)
    assert tuple(sigma_of(g)) == (1, 1, 1, 1, 1, 1)


def test_closed_form_spot_value():
    t = (4, 3, 2, 0, 1, 3)
    assert block_sigma(t) == tuple(sigma_of(block_graph(t))) == (5, 4, 4, 6, 6, 5)


def test_closed_form_matches_measurement():
    for ls in product(range(2), repeat=3):
        for ns in product(range(2), repeat=3):
            if not all(
                ns[i] <= min(ls[(i + 1) % 3], ls[(i + 2) % 3]) for i in range(3)
            ):
                continue
            t = ls + ns
            assert tuple(sigma_of(block_graph(t))) == block_sigma(t), t


def test_negative_parameter_rejected():
    with pytest.raises(NegativeParameter):
        block_graph((-1, 0, 0, 0, 0, 0))


def test_oversized_web_rejected():
    with pytest.raises(OutOfRange):
        block_graph((1, 0, 0, 1, 0, 0))


def test_wrong_arity_rejected():
    with pytest.raises(NegativeParameter):
        validate_params((0, 0, 0, 0, 0))


@pytest.mark.parametrize("bad", [1.7, "1", True])
def test_non_int_parameters_rejected(bad):
    with pytest.raises(OutOfRange):
        block_graph((bad, 0, 0, 0, 0, 0))
    with pytest.raises(OutOfRange):
        block_graph((1, 1, 1, 0, 0, bad))


def test_marked_faces_are_digons():
    g = block_graph((2, 1, 0, 0, 0, 1))
    for f in g.marked:
        assert len(g.cmap.faces[f]) == 2


@pytest.mark.parametrize("t", SAMPLE_TUPLES)
def test_mirror_is_an_involution(t):
    phi = block_mirror(t)
    cm = block_graph(t).cmap
    assert len(phi) == cm.num_darts
    assert all(phi[phi[d]] == d for d in range(cm.num_darts))


@pytest.mark.parametrize("t", SAMPLE_TUPLES)
def test_mirror_commutes_with_twin(t):
    phi = block_mirror(t)
    cm = block_graph(t).cmap
    assert all(phi[d ^ 1] == phi[d] ^ 1 for d in range(cm.num_darts))


@pytest.mark.parametrize("t", SAMPLE_TUPLES)
def test_mirror_reverses_rotation(t):
    phi = block_mirror(t)
    cm = block_graph(t).cmap
    for d in range(cm.num_darts):
        assert cm.rotation_next[phi[cm.rotation_next[d]]] == phi[d]


@pytest.mark.parametrize("t", SAMPLE_TUPLES)
def test_mirror_fixes_each_marked_face(t):
    phi = block_mirror(t)
    g = block_graph(t)
    for f in g.marked:
        darts = set(g.cmap.faces[f])
        assert {phi[d] ^ 1 for d in darts} == darts
