"""Witness construction: the closed-form recipe, its drawing and verification."""

import pytest

from pantslam import constructor
from pantslam.constructor import construct_detailed, family_params
from pantslam.chords import drawing_size
from pantslam.errors import (
    ConstructionFailed,
    LimitExceeded,
    NegativeParameter,
    NotRealizable,
    OutOfRange,
)
from pantslam.ladders import block_graph
from pantslam.special_loops import sigma_of

from conftest import realizable_grid, sigma_cd

# one signature per shape: flat and deep slack, an empty family, equal
# and skewed positive slack; the prefix says whether some count or depth
# is zero ("families") or all are positive, so that ladder blocks could
# draw it too ("blocks")
SHAPES = [
    ((4, 3, 4, 4, 5, 7), "families-flat"),
    ((2, 3, 0, 3, 2, 5), "families-capped"),
    ((2, 7, 6, 8, 6, 7), "families-deep"),
    ((1, 1, 1, 1, 1, 1), "blocks-even"),
    ((5, 4, 4, 6, 6, 5), "blocks-skew"),
]


@pytest.mark.parametrize("tau,shape", SHAPES)
def test_direct_routes(tau, shape):
    result = construct_detailed(tau)
    assert (min(result.counts + result.depths) >= 1) == shape.startswith("blocks")
    assert tuple(sigma_of(result.graph)) == tau


def test_flat_route_parameters():
    result = construct_detailed((4, 3, 4, 4, 5, 7))
    assert result.counts == (4, 3, 4)
    assert result.depths == (3, 3, 0)


def test_deep_route_parameters():
    result = construct_detailed((2, 7, 6, 8, 6, 7))
    assert tuple(sigma_of(result.graph)) == (2, 7, 6, 8, 6, 7)
    assert result.counts == (0, 7, 6)
    assert result.depths == (5, 0, 0)


def test_triple_bound_equality():
    # on the T2 boundary: nu = (3, 1, 1), and one unit of the surplus depth
    # at marked face 1 becomes an extra loop of family 1
    result = construct_detailed((2, 3, 3, 3, 4, 4))
    assert result.counts == (1, 3, 3)
    assert result.depths == (3, 0, 0)
    assert tuple(sigma_of(result.graph)) == (2, 3, 3, 3, 4, 4)


def test_family_params_are_drawable_and_measure_tau():
    # every realizable signature with family sizes up to 8; builds no map
    taus = realizable_grid(8)
    for tau in taus:
        counts, depths = family_params(tau)
        # drawable: nonnegative, one empty family at most, depths within counts
        assert min(counts + depths) >= 0 and counts.count(0) <= 1
        assert all(depths[i] <= min(counts[i - 1], counts[i - 2]) for i in range(3))
        assert sigma_cd(counts, depths) == tau
    assert len(taus) == 33446


def test_witness_no_larger_than_ladder_blocks():
    # every signature ladder blocks can draw, with family sizes up to 4
    positive = 0
    for tau in realizable_grid(4):
        counts, depths = family_params(tau)
        if min(counts + depths) >= 1:
            positive += 1
            blocks = block_graph(tuple(v - 1 for v in counts + depths))
            assert construct_detailed(tau).graph.cmap.num_edges <= blocks.cmap.num_edges, tau
    assert positive == 493


# (tau, V, E) of the witness table in ROADMAP.md; the last one is not
# built here, it takes about 1.7 s
WITNESS_TABLE = [
    ((3, 3, 3, 3, 3, 3), 27, 54),
    ((100, 100, 100, 167, 167, 167), 3669, 7137),
    ((200, 200, 200, 334, 334, 334), 13872, 27342),
    ((50, 50, 50, 51, 51, 51), 7209, 14415),
    ((200, 200, 200, 201, 201, 201), 118809, 237615),
]


def test_drawing_size_forecasts_the_witness_table():
    for tau, v, e in WITNESS_TABLE:
        assert drawing_size(*family_params(tau)) == (v, e), tau
        if v < 20000:
            g = construct_detailed(tau).graph.cmap
            assert (g.num_vertices, g.num_edges) == (v, e), tau


def test_witness_above_the_dart_cap_is_refused(monkeypatch):
    # (3,3,3,3,3,3) has 108 darts: built at a cap of 108, refused below it
    monkeypatch.setattr(constructor, "MAX_WITNESS_DARTS", 108)
    assert construct_detailed((3, 3, 3, 3, 3, 3)).graph.cmap.num_darts == 108
    monkeypatch.setattr(constructor, "MAX_WITNESS_DARTS", 107)
    with pytest.raises(LimitExceeded) as exc:
        construct_detailed((3, 3, 3, 3, 3, 3))
    assert "108 darts, more than the cap of 107" in str(exc.value)


def test_every_signature_up_to_five_verifies():
    taus = realizable_grid(5)
    assert len(taus) == 3890
    for tau in taus:
        g = construct_detailed(tau).graph
        assert tuple(sigma_of(g)) == tau
        # the size forecast made before drawing
        assert drawing_size(*family_params(tau)) == (g.cmap.num_vertices, g.cmap.num_edges)


def test_verification_miss_raises(monkeypatch):
    monkeypatch.setattr(constructor, "sigma_of", lambda g: (0,) * 6)
    with pytest.raises(ConstructionFailed) as exc:
        construct_detailed((2, 3, 3, 3, 4, 4))
    assert "counts=(1, 3, 3) depths=(3, 0, 0)" in str(exc.value)


def test_construct_returns_graph():
    g = construct_detailed((2, 1, 1, 2, 3, 3)).graph
    assert tuple(sigma_of(g)) == (2, 1, 1, 2, 3, 3)


def test_construct_rejects_unrealizable():
    with pytest.raises(NotRealizable) as exc:
        construct_detailed((0, 0, 0, 1, 1, 1))
    assert "Violates(T1, 1)" in str(exc.value)


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_construct_rejects_non_int_entries(bad):
    with pytest.raises(OutOfRange):
        construct_detailed((bad, 1, 1, 1, 1, 1))


def test_construct_rejects_bad_domain():
    with pytest.raises(NegativeParameter):
        construct_detailed((-1, 1, 1, 1, 1, 1))


def test_construction_is_deterministic():
    a = construct_detailed((2, 3, 3, 3, 4, 4))
    b = construct_detailed((2, 3, 3, 3, 4, 4))
    assert (a.counts, a.depths) == (b.counts, b.depths)
    assert a.graph.cmap.rotations == b.graph.cmap.rotations
