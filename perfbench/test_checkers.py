"""Tests of the benchmark's own checkers.

Each checker must agree with the program on graphs whose signature is
known, and must reject a deliberately corrupted output.  Run with

    PYTHONPATH=src python -m pytest -q perfbench/test_checkers.py
"""

import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checkers  # noqa: E402
import workloads  # noqa: E402
from checkers import CheckFailed  # noqa: E402

from pantslam.chords import family_graph  # noqa: E402
from pantslam.combmap import CombinatorialMap  # noqa: E402
from pantslam.exploration import SigmaGraph  # noqa: E402
from pantslam.ladders import block_graph  # noqa: E402
from pantslam.polytope import lamination_space  # noqa: E402
from pantslam.special_loops import sigma_of  # noqa: E402

THETA = [[0, 2, 4], [5, 3, 1]]


def _known():
    crossed = family_graph(*workloads.CROSSED_RINGS)
    return [
        (THETA, (0, 1, 2), (1, 1, 1, 1, 1, 1)),
        ([list(r) for r in crossed.cmap.rotations], crossed.marked,
         (4, 1, 1, 1, 4, 5)),
    ]


@pytest.mark.parametrize("rotations, marked, tau", _known())
def test_checkers_agree_with_program(rotations, marked, tau):
    g = SigmaGraph(CombinatorialMap(rotations), marked)
    assert tuple(sigma_of(g)) == tau
    faces = checkers.trace_faces(rotations)
    assert [tuple(f) for f in g.cmap.faces] == faces
    assert checkers.marked_distances(rotations, marked) == tau[3:]
    assert checkers.realizable(tau)
    assert checkers.polytope_points(tau) == set(lamination_space(g).points)


def test_face_distances_on_theta():
    faces = checkers.trace_faces(THETA)
    assert len(faces) == 3
    assert checkers.face_distances(THETA, faces, 0) == [0, 1, 1]


@pytest.mark.parametrize("t", [(0, 0, 0, 0, 0, 0), (1, 2, 0, 0, 0, 1),
                               (3, 3, 3, 1, 1, 1), (4, 1, 2, 1, 2, 1),
                               (5, 5, 5, 5, 2, 0)])
def test_block_closed_form_matches_measured_signature(t):
    assert checkers.block_signature(t) == tuple(sigma_of(block_graph(t)))


def test_renumbered_copy_keeps_signature():
    g = block_graph((3, 2, 2, 1, 1, 2))
    rots, marked = workloads.renumbered(Random(5), g.cmap.rotations,
                                        [g.marked[p] for p in (2, 0, 1)])
    copy = SigmaGraph(CombinatorialMap(rots), marked)
    want = checkers.permuted(checkers.block_signature((3, 2, 2, 1, 1, 2)), (2, 0, 1))
    assert tuple(sigma_of(copy)) == want


def test_realizable_grid_has_483_signatures():
    assert len(workloads.realizable_grid(3)) == 483


@pytest.mark.parametrize("rotations", [
    [[0, 2, 4], [1, 3, 5]],      # same cyclic order at both ends: a torus
    [[0, 2, 4], [5, 3, 3]],      # dart 3 used twice, dart 1 missing
    [[0, 1], [2, 3]],            # two separate self-loops
])
def test_trace_faces_rejects_corrupted_maps(rotations):
    with pytest.raises(CheckFailed):
        checkers.trace_faces(rotations)


def test_corrupted_outputs_are_rejected():
    assert checkers.realizable((4, 1, 1, 1, 4, 5))
    assert not checkers.realizable((4, 1, 1, 1, 4, 6))      # T1: 6 > 4 + 1
    assert not checkers.realizable((0, 3, 3, 3, 3, 3))      # T2 at i = 1
    assert checkers.block_signature((2, 1, 1, 1, 0, 0)) != tuple(
        sigma_of(block_graph((2, 1, 1, 1, 0, 1))))
    points = set(lamination_space(family_graph(*workloads.CROSSED_RINGS)).points)
    assert checkers.polytope_points((4, 1, 1, 1, 4, 5)) != points - {(4, 1, 0)}
    faces = checkers.trace_faces(THETA)
    assert checkers.face_distances(THETA, faces, 0) != [0, 1, 2]


def test_corrupted_outputs_fail_the_workload_checks(tmp_path):
    # analyze: a wrong sigma line, then a missing lamination point
    op = workloads.make_analyze_deep(1, str(tmp_path))[0]
    code, text = op.run()
    op.check((code, text))
    bad_sigma = text.replace("sigma = (", "sigma = (9", 1)
    with pytest.raises(CheckFailed):
        op.check((code, bad_sigma))
    lines = text.splitlines()
    dropped = "\n".join(lines[:-1]).replace(
        "points (%d)" % (len(lines) - 3), "points (%d)" % (len(lines) - 4)) + "\n"
    with pytest.raises(CheckFailed):
        op.check((code, dropped))

    # random-check: a distance changed
    out = workloads._collect_random(workloads._random_check_op(7))
    workloads._check_random(out)
    rotations, marked, tau, verdict, points = out
    wrong = tau[:3] + (tau[3] + 1,) + tau[4:]
    with pytest.raises(CheckFailed):
        workloads._check_random((rotations, marked, wrong, verdict, points))

    # oracle: disagreement
    with pytest.raises(CheckFailed):
        workloads._check_oracle((1, "agreement: NO\n"))
    workloads._check_oracle((0, "cycles cataloged: 3\nagreement: yes\n"))
