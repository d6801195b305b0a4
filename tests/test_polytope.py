"""Realizability checks and lattice point enumeration."""

import json
from dataclasses import asdict
from itertools import product

import pytest

from pantslam.errors import NegativeParameter, NonPositiveDelta, OutOfRange, PantsError
from pantslam.polytope import (
    _columns,
    check_realizable,
    enumerate_points,
    lamination_space,
    nu_transform,
    validate_tau,
)

from conftest import theta_graph
from helpers import (
    all_relabelings,
    is_downward_closed,
    permute_signature,
    slack_form_ok,
    tau_from_mu_nu,
)


def test_validate_accepts_good_tuple():
    v = validate_tau((4, 1, 1, 1, 4, 5))
    assert tuple(v) == (4, 1, 1, 1, 4, 5)


@pytest.mark.parametrize("bad", [1.5, "1", True])
def test_signature_entries_must_be_ints(bad):
    with pytest.raises(OutOfRange):
        validate_tau((bad, 1, 1, 1, 2, 2))
    with pytest.raises(OutOfRange):
        check_realizable((1, 1, 1, 1, 2, bad))


def test_validate_rejects_zero_distance():
    with pytest.raises(NonPositiveDelta):
        validate_tau((1, 1, 1, 0, 1, 1))


def test_validate_rejects_negative_count():
    with pytest.raises(NegativeParameter):
        validate_tau((-1, 1, 1, 1, 1, 1))


def test_validate_rejects_wrong_length():
    with pytest.raises(PantsError):
        validate_tau((1, 1, 1, 1, 1))


def test_realizable_verdicts():
    assert bool(check_realizable((4, 1, 1, 1, 4, 5)))
    assert str(check_realizable((4, 1, 1, 1, 4, 5))) == "Realizable"
    assert bool(check_realizable((1, 1, 1, 1, 1, 1)))


def test_pair_bound_violation():
    v = check_realizable((0, 0, 0, 1, 1, 1))
    assert not v
    assert (v.condition, v.index) == ("T1", 1)
    assert str(v) == "Violates(T1, 1)"


def test_triple_bound_violation():
    v = check_realizable((5, 5, 5, 8, 10, 10))
    assert not v
    assert (v.condition, v.index) == ("T2", 1)


def test_nu_transform_roundtrip():
    tau = (5, 5, 5, 8, 10, 10)
    nu = nu_transform(tau)
    assert tuple(nu) == (2, 0, 0)
    assert tuple(tau_from_mu_nu(tau[:3], nu)) == tau


def test_slack_form_matches_inequalities():
    for tau in [
        (4, 1, 1, 1, 4, 5),
        (1, 1, 1, 2, 2, 2),
        (0, 0, 0, 1, 1, 1),
        (5, 5, 5, 8, 10, 10),
        (2, 3, 0, 3, 2, 5),
    ]:
        assert slack_form_ok(tau) == bool(check_realizable(tau))


def test_minimal_polytope():
    pl = enumerate_points((1, 1, 1, 1, 1, 1))
    assert sorted(pl.points) == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_single_ring_signature_excludes_double_ring(triple_ring):
    # one ring per face does not allow two disjoint rings around one face
    pl = enumerate_points((1, 1, 1, 2, 2, 2))
    assert (2, 0, 0) not in pl.points
    assert (1, 1, 1) in pl.points
    assert len(pl.points) == 8
    assert lamination_space(triple_ring).points == pl.points


def test_crossed_rings_polytope_count():
    assert len(enumerate_points((4, 1, 1, 1, 4, 5))) == 14


def test_points_respect_componentwise_caps():
    pl = enumerate_points((4, 3, 4, 4, 5, 7))
    mu = (4, 3, 4)
    for pt in pl.points:
        assert all(0 <= pt[i] <= mu[i] for i in range(3))


def test_pair_sums_respect_distances():
    tau = (4, 3, 4, 4, 5, 7)
    pl = enumerate_points(tau)
    for a, b, c in pl.points:
        assert b + c <= tau[3]
        assert c + a <= tau[4]
        assert a + b <= tau[5]


def test_downward_closure():
    for tau in [(1, 1, 1, 1, 1, 1), (4, 1, 1, 1, 4, 5), (2, 3, 3, 3, 4, 4)]:
        assert is_downward_closed(enumerate_points(tau).points)


def test_permutation_covariance():
    tau = (2, 3, 0, 3, 2, 5)
    for perm in [(1, 2, 0), (2, 0, 1), (0, 2, 1)]:
        moved = permute_signature(tau, perm)
        direct = set(enumerate_points(moved).points)
        mapped = {
            tuple(pt[perm[k]] for k in range(3))
            for pt in enumerate_points(tau).points
        }
        assert direct == mapped


def test_permutation_entries_must_be_ints():
    # True would otherwise sort as 1, and 2.0 would reach a tuple index
    for perm in ((True, 0, 2), (0, 1, 2.0)):
        with pytest.raises(OutOfRange):
            permute_signature((2, 3, 0, 3, 2, 5), perm)


def test_all_relabelings_has_six_entries():
    rel = list(all_relabelings((1, 2, 3, 4, 5, 6)))
    assert len(rel) == 6
    assert (1, 2, 3, 4, 5, 6) in [tuple(r) for r in rel]


def test_points_equal_box_filter_in_order():
    # the columns behind enumerate_points against a plain filter of the box
    # of family sizes, on every validated signature in a small box; these
    # include unrealizable ones with x > d2 or y > d1 (the plain z bound
    # would be negative) and x > d3 (no y at all)
    cut = {"x > d2": 0, "y > d1": 0, "x > d3": 0}
    for tau in product(range(4), range(4), range(4), range(1, 6), range(1, 6), range(1, 6)):
        m1, m2, m3, d1, d2, d3 = tau
        box = [
            (x, y, z)
            for x, y, z in product(range(m1 + 1), range(m2 + 1), range(m3 + 1))
            if y + z <= d1 and x + z <= d2 and x + y <= d3
        ]
        assert list(enumerate_points(tau).points) == box, tau
        cols = list(_columns(validate_tau(tau)))
        assert all(tops and min(tops) >= 0 for _, tops in cols)
        assert [(x, y) for x, tops in cols for y in range(len(tops))] == sorted(
            {p[:2] for p in box})
        # neither a column's first top nor its length rises with x
        for key in (lambda tops: tops[0], len):
            seq = [key(tops) for _, tops in cols]
            assert seq == sorted(seq, reverse=True), tau
        cut["x > d2"] += m1 > d2
        cut["y > d1"] += m2 > d1
        cut["x > d3"] += m1 > d3
    assert min(cut.values()) > 0, cut


def test_origin_always_present():
    assert (0, 0, 0) in enumerate_points((0, 0, 0, 9, 9, 9)).points


def test_polytope_json():
    blob = json.dumps(asdict(enumerate_points((1, 1, 1, 1, 1, 1))))
    data = json.loads(blob)
    assert [0, 0, 0] in data["points"]
    assert len(data["points"]) == 4


def test_theta_space_matches_polytope():
    sg = theta_graph()
    assert lamination_space(sg).points == enumerate_points((1, 1, 1, 1, 1, 1)).points
