"""Acceptance gate: seven shipping criteria, one test per criterion.

Each test asserts exact equality (no tolerances apply to integer data)
and the pinned runtime budget where one exists.  The brute-force check
runs on a process pool; its worker function lives at module level so it
pickles across the fork.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

from pantslam.cli import main
from pantslam.constructor import construct_detailed
from pantslam.errors import LimitExceeded
from pantslam.exploration import loop_sides
from pantslam.ladders import block_graph
from pantslam.oracle import (
    candidate_cycles,
    lamination_space_bruteforce,
    max_disjoint_type,
)
from pantslam.polytope import (
    check_realizable,
    enumerate_points,
    lamination_space,
    nu_transform,
)
from pantslam.randmaps import random_map, random_sigma_graph
from pantslam.special_loops import sigma_of, special_family

from conftest import block_corpus, block_sigma, build_corpus_graph, corpus_jobs, realizable_grid
from helpers import is_downward_closed, pair_meeting_breaches

WORKERS = 8


def _equivalence_job(job):
    kind, params = job
    g = build_corpus_graph(kind, params)
    try:
        cat = candidate_cycles(g)
    except LimitExceeded:
        return (job, "over-limit", "")
    for i in (1, 2, 3):
        if max_disjoint_type(g, i, cat) != len(special_family(g, i)):
            return (job, "mismatch", "packing number %d" % i)
    if set(lamination_space_bruteforce(g, cat)) != set(lamination_space(g).points):
        return (job, "mismatch", "point sets differ")
    return (job, "ok", "")


def test_criterion_1(tmp_path, capsys):
    start = time.perf_counter()
    targets = [(4, 3, 4, 4, 5, 7), (2, 3, 0, 3, 2, 5), (2, 7, 6, 8, 6, 7)]
    for n, tau in enumerate(targets):
        path = tmp_path / ("witness%d.json" % n)
        assert main(["construct", *map(str, tau), str(path)]) == 0
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "sigma = %s" % (tau,) in out
    assert main(["check", "4", "1", "1", "1", "4", "5"]) == 0
    assert "Realizable" in capsys.readouterr().out
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print("criterion 1: PASS (3 signatures rebuilt and re-read, %.2fs)" % elapsed)


def test_criterion_2():
    start = time.perf_counter()
    grid = block_corpus(3)
    assert len(grid) == 571
    for t in grid:
        assert tuple(sigma_of(block_graph(t))) == block_sigma(t)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print("criterion 2: PASS (%d closed-form signatures, %.1fs)" % (len(grid), elapsed))


def test_criterion_3():
    start = time.perf_counter()
    jobs = corpus_jobs()
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=WORKERS, mp_context=ctx) as pool:
        results = list(pool.map(_equivalence_job, jobs, chunksize=4))
    mismatches = [(j, msg) for j, status, msg in results if status == "mismatch"]
    skipped = [j for j, status, _ in results if status == "over-limit"]
    checked = sum(1 for _, status, _ in results if status == "ok")
    elapsed = time.perf_counter() - start
    assert mismatches == []
    # a graph over the search limits would be reported here, not dropped
    assert skipped == []
    assert checked == len(jobs)
    assert elapsed < 120.0
    print(
        "criterion 3: PASS (%d/%d graphs equal on both routes, %.1fs)"
        % (checked, len(jobs), elapsed)
    )


def test_criterion_4():
    violations = []
    for seed in range(200):
        g = random_sigma_graph(seed, max_faces=12)
        tau = sigma_of(g)
        if not check_realizable(tau):
            violations.append((seed, "inequalities", tuple(tau)))
        nu = nu_transform(tau)
        if any(n < 0 for n in nu):
            violations.append((seed, "negative depth", tuple(nu)))
        if sum(1 for m in tau.mu if m == 0) > 1:
            violations.append((seed, "two empty families", tuple(tau.mu)))
    assert violations == []
    print("criterion 4: PASS (200 random graphs, zero violations)")


def test_criterion_5():
    start = time.perf_counter()
    jobs = corpus_jobs()
    violations = []
    for job in jobs:
        g = build_corpus_graph(*job)
        bad = pair_meeting_breaches(g, [special_family(g, i) for i in (1, 2, 3)])
        if bad:
            violations.append((job, bad))
    elapsed = time.perf_counter() - start
    assert violations == []
    print(
        "criterion 5: PASS (crossing law on %d corpus graphs, %.1fs)"
        % (len(jobs), elapsed)
    )


def test_criterion_6():
    start = time.perf_counter()
    taus = realizable_grid(3)
    unverified = []
    for tau in taus:
        res = construct_detailed(tau)
        if tuple(sigma_of(res.graph)) != tau:
            unverified.append(tau)
    elapsed = time.perf_counter() - start
    assert unverified == []
    assert elapsed < 600.0
    print(
        "criterion 6: PASS (%d signatures verified, %.1fs)"
        % (len(taus), elapsed)
    )


def test_criterion_7():
    for seed in range(40):
        cm = random_map(seed, 3 + seed % 8)
        assert cm.num_vertices - cm.num_edges + cm.num_faces == 2

    for seed in range(25):
        g = random_sigma_graph(seed, max_faces=10)
        all_faces = frozenset(range(g.cmap.num_faces))
        for i, m in enumerate(g.marked, 1):
            for k in range(1, max(g._dist_from(m)) + 1):
                used = set()
                for lp in g.boundary_loops(i, k):
                    verts = lp.vertices(g.cmap)
                    assert len(set(verts)) == len(verts)
                    assert used.isdisjoint(lp.edge_set())
                    used |= lp.edge_set()
                    if k == 1:
                        a, b = loop_sides(g, lp)
                        assert a | b == all_faces and a.isdisjoint(b)
        assert is_downward_closed(lamination_space(g).points)

    for tau in realizable_grid(3):
        assert is_downward_closed(enumerate_points(tau).points)
    print("criterion 7: PASS (invariant suite, zero failures)")
