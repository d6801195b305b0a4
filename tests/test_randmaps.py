"""Randomized sphere maps used as adversarial inputs."""

import random

import pytest

from pantslam.combmap import CombinatorialMap
from pantslam.errors import OutOfRange
from pantslam.exploration import SigmaGraph
from pantslam.randmaps import random_map, random_sigma_graph

from helpers import delete_edge, non_bridge_edges

THETA = [[0, 2, 4], [5, 3, 1]]


def test_random_map_reaches_requested_faces():
    for seed in range(5):
        m = random_map(seed, 8)
        assert m.num_faces == 8
        assert m.num_vertices - m.num_edges + m.num_faces == 2


def test_random_map_deterministic_per_seed():
    a = random_map(7, 8)
    b = random_map(7, 8)
    assert a.rotations == b.rotations
    c = random_map(random.Random(7), 8)
    assert a.rotations == c.rotations


def test_different_seeds_vary():
    rots = {random_map(seed, 9).rotations for seed in range(8)}
    assert len(rots) > 1


def test_random_sigma_graph_shape():
    for seed in range(10):
        g = random_sigma_graph(seed)
        assert 3 <= g.cmap.num_faces <= 12
        assert len(set(g.marked)) == 3
        assert all(0 <= f < g.cmap.num_faces for f in g.marked)


def test_random_sigma_graph_respects_bounds():
    g = random_sigma_graph(11, max_faces=5, min_faces=4)
    assert 4 <= g.cmap.num_faces <= 5


def test_theta_edges_all_removable():
    cm = CombinatorialMap([list(r) for r in THETA])
    assert non_bridge_edges(cm) == [0, 1, 2]


def test_bridge_is_not_removable():
    cm = CombinatorialMap([[0], [1]])
    assert non_bridge_edges(cm) == []


def test_delete_edge_renumbers():
    cm = CombinatorialMap([list(r) for r in THETA])
    d = delete_edge(cm, 0)
    assert d.rotations == ((0, 2), (3, 1))
    assert (d.num_vertices, d.num_edges, d.num_faces) == (2, 2, 2)


def test_delete_edge_merges_two_faces():
    cm = CombinatorialMap([list(r) for r in THETA])
    for k in non_bridge_edges(cm):
        assert delete_edge(cm, k).num_faces == cm.num_faces - 1


def test_delete_bridge_rejected():
    cm = CombinatorialMap([[0], [1]])
    with pytest.raises(OutOfRange):
        delete_edge(cm, 0)


def test_delete_out_of_range_rejected():
    cm = CombinatorialMap([list(r) for r in THETA])
    with pytest.raises(OutOfRange):
        delete_edge(cm, 5)


def test_deletions_keep_maps_valid():
    for seed in range(6):
        m = random_map(seed, 7)
        removable = non_bridge_edges(m)
        for k in removable[:3]:
            d = delete_edge(m, k)
            assert d.num_edges == m.num_edges - 1
            assert d.num_vertices - d.num_edges + d.num_faces == 2


# -- the list-rebuild generator, kept as the differential reference ----------
#
# Every surgery edits plain rotation lists, finding darts by a linear scan,
# and the map is rebuilt after every step, so faces are always read from a
# freshly traced CombinatorialMap.  Slow but obviously faithful.


def _locate(rots, d):
    for v, rot in enumerate(rots):
        for p, x in enumerate(rot):
            if x == d:
                return v, p
    raise AssertionError("dart %d missing" % d)


def _ref_subdivide(rots, k):
    m = sum(len(r) for r in rots) // 2
    v, p = _locate(rots, 2 * k + 1)
    rots[v][p] = 2 * m + 1
    rots.append([2 * k + 1, 2 * m])


def _ref_double(rots, k):
    m = sum(len(r) for r in rots) // 2
    u, p = _locate(rots, 2 * k)
    rots[u].insert(p + 1, 2 * m)
    v, q = _locate(rots, 2 * k + 1)
    rots[v].insert(q, 2 * m + 1)


def _ref_loop(rots, d):
    m = sum(len(r) for r in rots) // 2
    u, p = _locate(rots, d)
    rots[u][p + 1:p + 1] = [2 * m, 2 * m + 1]


def _ref_chord(rots, a, b):
    m = sum(len(r) for r in rots) // 2
    u, p = _locate(rots, a ^ 1)
    rots[u].insert(p + 1, 2 * m)
    v, q = _locate(rots, b ^ 1)
    rots[v].insert(q + 1, 2 * m + 1)


def _ref_pendant(rots, a):
    m = sum(len(r) for r in rots) // 2
    u, p = _locate(rots, a ^ 1)
    rots[u].insert(p + 1, 2 * m)
    rots.append([2 * m + 1])


def reference_random_map(rng, num_faces, neutral_prob=0.3):
    """The generator rebuilt after every step; returns (map, steps)."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    cm = CombinatorialMap([[0, 1]])
    steps = 0
    while cm.num_faces < num_faces:
        rots = [list(r) for r in cm.rotations]
        steps += 1
        nd = cm.num_darts
        if steps <= 500 and rng.random() < neutral_prob:
            if rng.random() < 0.5:
                _ref_subdivide(rots, rng.randrange(cm.num_edges))
            else:
                _ref_pendant(rots, rng.randrange(nd))
        else:
            pick = rng.random()
            if pick < 0.4:
                _ref_double(rots, rng.randrange(cm.num_edges))
            elif pick < 0.7:
                _ref_loop(rots, rng.randrange(nd))
            else:
                face = cm.faces[rng.randrange(cm.num_faces)]
                if len(face) < 2:
                    _ref_loop(rots, rng.randrange(nd))
                else:
                    a, b = rng.sample(face, 2)
                    _ref_chord(rots, a, b)
        cm = CombinatorialMap(rots)
    return cm, steps


def reference_random_sigma_graph(rng, max_faces=12, min_faces=3):
    nf = rng.randint(min_faces, max_faces)
    cm, _ = reference_random_map(rng, nf)
    return SigmaGraph(cm, tuple(rng.sample(range(cm.num_faces), 3)))


@pytest.mark.parametrize("neutral_prob", [0.0, 0.3, 1.0])
def test_random_map_matches_list_rebuild_reference(neutral_prob):
    sizes = (2, 3, 5, 8, 12, 40) if neutral_prob < 1 else (2, 8)
    seeds = range(100) if neutral_prob < 1 else range(3)
    for nf in sizes:
        for seed in seeds:
            expect, _ = reference_random_map(seed, nf, neutral_prob)
            assert random_map(seed, nf, neutral_prob).rotations == expect.rotations, (seed, nf)


def test_large_random_maps_match_reference():
    for seed, nf in ((0, 120), (1, 300), (2, 300)):
        expect, _ = reference_random_map(seed, nf)
        got = random_map(seed, nf)
        assert got.rotations == expect.rotations, seed


def test_random_map_matches_reference_past_the_neutral_steps():
    # all of the first 500 steps are neutral, so faces come only after them
    for seed in (5, 6):
        expect, steps = reference_random_map(seed, 6, 1.0)
        assert steps > 500
        got = random_map(seed, 6, 1.0)
        assert got.rotations == expect.rotations
        assert got.num_vertices > 250
    # neutral moves stop part way through a 0.3 run
    expect, steps = reference_random_map(3, 420)
    assert steps > 500
    assert random_map(3, 420).rotations == expect.rotations


def test_random_sigma_graph_matches_reference_with_int_seeds():
    for seed in range(30):
        expect = reference_random_sigma_graph(random.Random(seed), 60)
        got = random_sigma_graph(seed, 60)
        assert got.cmap.rotations == expect.cmap.rotations
        assert got.marked == expect.marked


def test_random_sigma_graph_matches_reference_with_a_shared_rng():
    ours, theirs = random.Random(17), random.Random(17)
    for _ in range(30):
        expect = reference_random_sigma_graph(theirs, 30, 4)
        got = random_sigma_graph(ours, 30, 4)
        assert got.cmap.rotations == expect.cmap.rotations
        assert got.marked == expect.marked
    assert ours.random() == theirs.random()


def test_random_map_builds_one_map(monkeypatch):
    builds = []
    init = CombinatorialMap.__init__

    def counting(self, rotations):
        builds.append(1)
        init(self, rotations)

    monkeypatch.setattr(CombinatorialMap, "__init__", counting)
    cm = random_map(3, 250)
    assert cm.num_faces == 250
    assert len(builds) == 1


@pytest.mark.parametrize("num_faces", [2.5, 3.0, True, "5", None])
def test_random_map_rejects_non_int_face_count(num_faces):
    with pytest.raises(OutOfRange):
        random_map(1, num_faces)


def test_random_sigma_graph_rejects_max_below_min():
    with pytest.raises(OutOfRange):
        random_sigma_graph(1, max_faces=4, min_faces=5)


def test_random_sigma_graph_rejects_non_int_bounds():
    with pytest.raises(OutOfRange):
        random_sigma_graph(1, max_faces=7.5)
    with pytest.raises(OutOfRange):
        random_sigma_graph(1, min_faces=True)
