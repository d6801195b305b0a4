"""Witness construction: the closed-form recipe, its drawings and verification."""

import pytest

from pantslam import constructor
from pantslam.constructor import construct, construct_detailed, family_params
from pantslam.errors import (
    ConstructionFailed,
    NegativeParameter,
    NotRealizable,
    OutOfRange,
)
from pantslam.ladders import block_signature
from pantslam.special_loops import sigma_of

from conftest import realizable_grid, sigma_cd

# one signature per shape: flat and deep slack, an empty family, equal
# and skewed positive slack; the shape's prefix names the drawing used
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
    assert result.route == shape.split("-")[0]
    assert tuple(sigma_of(result.graph)) == tau


def test_flat_route_parameters():
    result = construct_detailed((4, 3, 4, 4, 5, 7))
    assert result.counts == (4, 3, 4)
    assert result.depths == (3, 3, 0)


def test_deep_route_parameters():
    result = construct_detailed((2, 7, 6, 8, 6, 7))
    assert result.route == "families"
    assert result.counts == (0, 7, 6)
    assert result.depths == (5, 0, 0)


def test_triple_bound_equality():
    # on the T2 boundary: nu = (3, 1, 1), and one unit of the surplus depth
    # at marked face 1 becomes an extra loop of family 1
    result = construct_detailed((2, 3, 3, 3, 4, 4))
    assert result.counts == (1, 3, 3)
    assert result.depths == (3, 0, 0)
    assert tuple(sigma_of(result.graph)) == (2, 3, 3, 3, 4, 4)


def test_family_params_match_block_signature():
    # every realizable signature with family sizes up to 8; builds no map
    blocks = 0
    for tau in realizable_grid(8):
        counts, depths = family_params(tau)
        # drawable: nonnegative, one empty family at most, depths within counts
        assert min(counts + depths) >= 0 and counts.count(0) <= 1
        assert all(depths[i] <= min(counts[i - 1], counts[i - 2]) for i in range(3))
        assert sigma_cd(counts, depths) == tau
        if min(counts + depths) >= 1:
            blocks += 1
            assert block_signature(tuple(v - 1 for v in counts + depths)) == tau
    assert blocks > 10000


def test_every_signature_up_to_five_verifies():
    taus = realizable_grid(5)
    assert len(taus) == 3890
    for tau in taus:
        assert tuple(sigma_of(construct(tau))) == tau


def test_verification_miss_raises(monkeypatch):
    monkeypatch.setattr(constructor, "sigma_of", lambda g: (0,) * 6)
    with pytest.raises(ConstructionFailed) as exc:
        construct_detailed((2, 3, 3, 3, 4, 4))
    assert "counts=(1, 3, 3) depths=(3, 0, 0)" in str(exc.value)


def test_construct_returns_graph():
    g = construct((2, 1, 1, 2, 3, 3))
    assert tuple(sigma_of(g)) == (2, 1, 1, 2, 3, 3)


def test_construct_rejects_unrealizable():
    with pytest.raises(NotRealizable) as exc:
        construct((0, 0, 0, 1, 1, 1))
    assert "Violates(T1, 1)" in str(exc.value)


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_construct_rejects_non_int_entries(bad):
    with pytest.raises(OutOfRange):
        construct_detailed((bad, 1, 1, 1, 1, 1))


def test_construct_rejects_bad_domain():
    with pytest.raises(NegativeParameter):
        construct((-1, 1, 1, 1, 1, 1))


def test_construction_is_deterministic():
    a = construct_detailed((2, 3, 3, 3, 4, 4))
    b = construct_detailed((2, 3, 3, 3, 4, 4))
    assert a.route == b.route
    assert (a.counts, a.depths) == (b.counts, b.depths)
    assert a.graph.cmap.rotations == b.graph.cmap.rotations
