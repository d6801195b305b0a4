"""Witness construction: signature dispatch, search and verification."""

import pytest

from pantslam.constructor import FamilySpec, construct, construct_detailed, search
from pantslam.errors import NegativeParameter, NotRealizable, OutOfRange
from pantslam.special_loops import sigma_of


def test_family_spec_cap_indices():
    spec = FamilySpec((3, 2, 0), (0, 0, 0), (False, True, False))
    assert spec.cap_indices() == (1,)
    assert FamilySpec((1, 1, 1)).cap_indices() == ()


ROUTES = [
    ((4, 3, 4, 4, 5, 7), "families-flat"),
    ((2, 3, 0, 3, 2, 5), "families-capped"),
    ((2, 7, 6, 8, 6, 7), "families-deep"),
    ((1, 1, 1, 1, 1, 1), "blocks-even"),
    ((5, 4, 4, 6, 6, 5), "blocks-skew"),
]


@pytest.mark.parametrize("tau,route", ROUTES)
def test_direct_routes(tau, route):
    result = construct_detailed(tau)
    assert result.route == route
    assert not result.fallback
    assert tuple(sigma_of(result.graph)) == tau


def test_flat_route_parameters():
    result = construct_detailed((4, 3, 4, 4, 5, 7))
    (spec,) = result.params
    assert spec.counts == (4, 3, 4)
    assert spec.depths == (3, 3, 0)


def test_deep_route_parameters():
    result = construct_detailed((2, 7, 6, 8, 6, 7))
    (spec,) = result.params
    assert spec.counts == (0, 7, 6)
    assert spec.depths == (5, 0, 0)


def test_search_fallback_at_triple_bound_equality():
    result = construct_detailed((2, 3, 3, 3, 4, 4))
    assert result.fallback
    assert result.route.startswith("search")
    assert tuple(sigma_of(result.graph)) == (2, 3, 3, 3, 4, 4)


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


def test_search_alone_finds_witness():
    g = search((1, 1, 1, 1, 1, 1))
    assert tuple(sigma_of(g)) == (1, 1, 1, 1, 1, 1)


def test_construction_is_deterministic():
    a = construct_detailed((2, 3, 3, 3, 4, 4))
    b = construct_detailed((2, 3, 3, 3, 4, 4))
    assert a.route == b.route
    assert a.params == b.params
    assert a.graph.cmap.rotations == b.graph.cmap.rotations
