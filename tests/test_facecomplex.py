"""Closed face complexes realized as sphere maps, and the block maps they pin."""

import hashlib

import pytest

from pantslam.errors import MalformedRotation, NonSpherical, NotClosed
from pantslam.facecomplex import FaceComplex
from pantslam.ladders import block_complex, block_graph, doubled


def _complex(*faces) -> FaceComplex:
    fc = FaceComplex()
    for face in faces:
        fc.add_face(face)
    return fc


def test_two_triangles_make_a_sphere():
    built = _complex("abc", "cba").to_map()
    cm = built.cmap
    assert (cm.num_vertices, cm.num_edges, cm.num_faces) == (3, 3, 2)
    # first-seen side of edge k is dart 2k, its partner 2k+1
    assert built.face_darts == ((0, 2, 4), (5, 3, 1))
    assert len(set(built.face_index)) == 2
    for f, darts in enumerate(built.face_darts):
        assert {cm.face_of_dart[d ^ 1] for d in darts} == {built.face_index[f]}
        # the corner rule
        for j in range(len(darts)):
            assert cm.rotation_next[darts[j]] == darts[j - 1] ^ 1


@pytest.mark.parametrize("faces", [("abc", "cb"), ("abc", "cba", "a")])
def test_edge_id_not_used_exactly_twice_is_not_closed(faces):
    with pytest.raises(NotClosed):
        _complex(*faces).to_map()


def test_empty_face_is_malformed():
    with pytest.raises(MalformedRotation):
        FaceComplex().add_face(())


def test_closed_torus_is_not_a_sphere():
    with pytest.raises(NonSpherical):
        _complex("abab").to_map()


# sha256 of repr((cmap.rotations, marked)), recorded before the complex
# stopped carrying vertex labels; the benchmark's input maps depend on it
BLOCK_DIGESTS = {
    (2, 1, 2, 1, 2, 0): "1ee119d72f15db95c346f8d9f8bef81b7bf9c5cbb1adb11f566e5533fe1bc080",
    (30, 10, 20, 5, 8, 3): "08c5a90ddb7c42f6ea9d209284af8f4b027429357b2f91cd115828962d6bdfca",
    (4, 3, 2, 0, 1, 3): "21bf6206eaaa9f0f7195b9b8be1e6b17dbfc565cb90d1fbef8f8743d1a552f43",
}


@pytest.mark.parametrize("t", sorted(BLOCK_DIGESTS))
def test_block_graph_matches_golden_digest(t):
    g = block_graph(t)
    got = hashlib.sha256(repr((g.cmap.rotations, g.marked)).encode()).hexdigest()
    assert got == BLOCK_DIGESTS[t]
    # the corner rule maps complex faces one to one onto map faces
    built = doubled(*block_complex(t)).to_map()
    assert sorted(built.face_index) == list(range(built.cmap.num_faces))
