"""Dart-level checks on the rotation-system map type."""

import pytest

from pantslam.combmap import CombinatorialMap
from pantslam.errors import Disconnected, MalformedRotation, NonSpherical

from conftest import THETA_ROTATIONS


def theta_map() -> CombinatorialMap:
    return CombinatorialMap([list(r) for r in THETA_ROTATIONS])


def test_theta_counts():
    cm = theta_map()
    assert cm.num_darts == 6
    assert cm.num_vertices == 2
    assert cm.num_edges == 3
    assert cm.num_faces == 3


def test_theta_faces():
    cm = theta_map()
    assert cm.faces == ((0, 5), (1, 2), (3, 4))
    assert [cm.face_of_dart[d] for d in range(6)] == [0, 1, 1, 2, 2, 0]
    assert [cm.face_of_dart[d ^ 1] for d in range(6)] == [1, 0, 2, 1, 0, 2]


def test_theta_incidence():
    cm = theta_map()
    assert [cm.dart_vertex[d ^ 1] for d in range(6)] == [1, 0, 1, 0, 1, 0]
    assert [cm.dart_vertex[d] for d in range(6)] == [0, 1, 0, 1, 0, 1]
    assert [cm.rotation_next[d] for d in range(6)] == [2, 5, 4, 1, 0, 3]
    assert [cm.rotation_next[d ^ 1] for d in range(6)] == [5, 2, 1, 4, 3, 0]


def test_rotation_next_cycles_each_rotation():
    cm = theta_map()
    for r in cm.rotations:
        for i, d in enumerate(r):
            assert cm.rotation_next[d] == r[(i + 1) % len(r)]


def test_single_loop():
    cm = CombinatorialMap([[0, 1]])
    assert (cm.num_vertices, cm.num_edges, cm.num_faces) == (1, 1, 2)


def test_euler_formula():
    cm = theta_map()
    assert cm.num_vertices - cm.num_edges + cm.num_faces == 2


def test_duplicate_dart_rejected():
    with pytest.raises(MalformedRotation):
        CombinatorialMap([[0, 0, 1]])


def test_missing_dart_rejected():
    with pytest.raises(MalformedRotation):
        CombinatorialMap([[0, 2]])


@pytest.mark.parametrize("rots", [[[0, "a"]], [[0, None]], [[0], [1.0]], [[0], [True]]])
def test_non_int_dart_rejected(rots):
    # True and 1.0 equal the dart 1 but are not darts
    with pytest.raises(MalformedRotation, match="^vertices: dart .* is not an int$"):
        CombinatorialMap(rots)


def test_empty_vertex_rejected():
    with pytest.raises(MalformedRotation):
        CombinatorialMap([[]])
    # an empty rotation beside darts: nothing reaches or leaves it
    for rots in ([[0, 1], []], [[], [0, 1]]):
        with pytest.raises(Disconnected):
            CombinatorialMap(rots)


def test_disconnected_rejected():
    with pytest.raises(Disconnected):
        CombinatorialMap([[0, 1], [2, 3]])


def test_torus_square_rejected():
    # one vertex, two edges, one face: genus 1
    with pytest.raises(NonSpherical):
        CombinatorialMap([[0, 2, 1, 3]])


def test_degree_and_vertex_lookup():
    cm = theta_map()
    assert [len(r) for r in cm.rotations] == [3, 3]
    assert cm.dart_vertex[3] == 1


def test_faces_helper_matches_attribute():
    cm = theta_map()
    for f, orbit in enumerate(cm.faces):
        assert [cm.rotation_next[d ^ 1] for d in orbit] == list(orbit[1:] + orbit[:1])
        assert {cm.face_of_dart[d] for d in orbit} == {f}
