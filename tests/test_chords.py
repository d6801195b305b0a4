"""Ring-family graphs: nested circles, crossings, tangent caps."""

import hashlib

import pytest

from pantslam.chords import drawing_size, family_graph
from pantslam.errors import NegativeParameter, OutOfRange, OverlappingCrossings
from pantslam.special_loops import sigma_of

from conftest import family_corpus, sigma_cd


def test_plain_nested_families():
    g = family_graph((2, 1, 1), (0, 0, 0))
    assert tuple(sigma_of(g)) == (2, 1, 1, 2, 3, 3)


def test_zero_count_family():
    g = family_graph((3, 2, 0), (0, 0, 0))
    assert tuple(sigma_of(g)) == (3, 2, 0, 2, 3, 5)


def test_crossings_reduce_distance():
    shallow = family_graph((2, 2, 2), (1, 1, 1))
    deep = family_graph((2, 2, 2), (2, 2, 2))
    assert tuple(sigma_of(shallow)) == (2, 2, 2, 3, 3, 3)
    assert tuple(sigma_of(deep)) == (2, 2, 2, 2, 2, 2)


def test_crossing_depth_counts_against_both_zones():
    # depth k at one zone interlocks k circles of each flanking family
    g = family_graph((3, 1, 1), (1, 0, 0))
    m1, m2, m3, d1, d2, d3 = sigma_of(g)
    assert (m1, m2, m3) == (3, 1, 1)
    assert d1 == 1


def test_two_empty_families_rejected():
    with pytest.raises(OverlappingCrossings):
        family_graph((0, 0, 1), (0, 0, 0))


def test_depth_beyond_counts_rejected():
    with pytest.raises(OverlappingCrossings):
        family_graph((2, 1, 1), (2, 0, 0))


def test_negative_count_rejected():
    # a negative count, two counts in place of three, a negative depth
    cases = (((-1, 1, 1), (0, 0, 0)), ((1, 1), (0, 0, 0)), ((1, 1, 1), (0, 0, -1)))
    for counts, depths in cases:
        with pytest.raises(NegativeParameter):
            family_graph(counts, depths)


def test_cap_index_out_of_range():
    with pytest.raises(OverlappingCrossings):
        family_graph((1, 1, 1), (0, 0, 0), (3,))


def test_cap_on_empty_family_rejected():
    with pytest.raises(OverlappingCrossings):
        family_graph((0, 1, 1), (0, 0, 0), (0,))


def test_cap_adds_a_tangent_loop():
    plain = family_graph((2, 1, 1), (0, 0, 0))
    capped = family_graph((2, 1, 1), (0, 0, 0), (0,))
    assert capped.cmap.num_edges == plain.cmap.num_edges + 2
    assert capped.cmap.num_vertices == plain.cmap.num_vertices + 1
    # tangency keeps both capacity and the signature unchanged
    assert tuple(sigma_of(capped)) == tuple(sigma_of(plain))


def test_all_caps_build():
    g = family_graph((1, 1, 1), (0, 0, 0), (0, 1, 2))
    assert tuple(sigma_of(g)) == (1, 1, 1, 2, 2, 2)


def test_marked_faces_are_distinct_and_valid():
    g = family_graph((3, 2, 1), (1, 0, 1))
    assert len(set(g.marked)) == 3
    assert all(0 <= f < g.cmap.num_faces for f in g.marked)


@pytest.mark.parametrize("bad", [1.5, True, "1", 0.0])
@pytest.mark.parametrize("field", ["counts", "depths", "caps"])
def test_non_int_parameters_rejected(field, bad):
    args = {"counts": [1, 1, 1], "depths": [0, 0, 0], "caps": [0]}
    args[field][0] = bad
    with pytest.raises(OutOfRange):
        family_graph(args["counts"], args["depths"], args["caps"])


def test_signature_law_on_every_uncapped_spec():
    # counts up to 4 include (4,4,4),(4,4,4): all three families cross
    # pairwise, four deep; uncapped specs are all the drawings
    # family_params asks for, and the ones drawing_size forecasts
    specs = [(c, d) for c, d, caps in family_corpus(4) if not caps]
    assert len(specs) == 1871
    for counts, depths in specs:
        g = family_graph(counts, depths)
        assert tuple(sigma_of(g)) == sigma_cd(counts, depths)
        assert drawing_size(counts, depths) == (g.cmap.num_vertices, g.cmap.num_edges)


# sha256 over repr((cmap.rotations, marked)) of every spec of
# family_corpus(4) in order, recorded while the axis arcs still came from
# a union-find over the curves; the benchmark's oracle corpus and
# construction witnesses depend on these maps
FAMILY_CORPUS_DIGEST = "cf7c34c0ed563001ce07b33214ff28949bf63e9f11b308c8ec40750dff2e895e"


def test_family_graph_matches_golden_digest():
    h = hashlib.sha256()
    specs = family_corpus(4)
    assert len(specs) == 2463
    for spec in specs:
        g = family_graph(*spec)
        h.update(repr((g.cmap.rotations, g.marked)).encode())
    assert h.hexdigest() == FAMILY_CORPUS_DIGEST
