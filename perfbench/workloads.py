"""The four workloads: inputs made from the seed, ops, and output checks.

Each maker runs during set-up and returns one round of ops; a run repeats
whole rounds.  An op's `run` is timed; `collect` turns its return value
into the output that `check` judges after the measured loop, outside the
timed region.  Every check compares against `checkers` (which never
imports the program) or against a property the method must have, never
against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
from dataclasses import dataclass
from itertools import product
from random import Random
from typing import Any, Callable

import checkers
from checkers import CheckFailed

from pantslam import chords, cli, ladders, polytope, randmaps, special_loops


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    collect: Callable[[Any], Any]
    check: Callable[[Any], None]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`pantslam <argv>` in this process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _write_graph(path: str, rotations, marked) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": [list(r) for r in rotations],
                   "marked_faces": list(marked)}, fh)


def _parse_tuple(text: str, key: str) -> tuple[int, ...]:
    match = re.search(r"^%s = \(([-\d, ]*)\)$" % re.escape(key), text, re.M)
    if match is None:
        raise CheckFailed("no '%s = (...)' line in output" % key)
    return tuple(int(x) for x in match.group(1).split(","))


def _parse_points(text: str) -> set[tuple[int, int, int]]:
    _, _, body = text.partition("lamination points (")
    if not body:
        raise CheckFailed("no lamination points in output")
    count, _, rest = body.partition("):\n")
    pts = [tuple(int(x) for x in line.split()) for line in rest.splitlines()]
    if len(pts) != int(count) or len(set(pts)) != len(pts):
        raise CheckFailed("point list length differs from its header")
    return set(pts)


def renumbered(rng: Random, rotations, marked):
    """An isomorphic copy: vertices, edges and edge directions shuffled.

    Returns the new rotations and marked-face indices.  The signature of
    the copy is that of the original, face by face.
    """
    nedges = sum(len(r) for r in rotations) // 2
    edges = list(range(nedges))
    rng.shuffle(edges)
    flip = [rng.randrange(2) for _ in range(nedges)]

    def image(d: int) -> int:
        return 2 * edges[d >> 1] + ((d & 1) ^ flip[d >> 1])

    order = list(range(len(rotations)))
    rng.shuffle(order)
    new_rots = [None] * len(rotations)
    for v, rot in enumerate(rotations):
        turn = rng.randrange(len(rot))
        new_rots[order[v]] = [image(d) for d in rot[turn:] + rot[:turn]]
    old_faces = checkers.trace_faces(rotations)
    face_of = {d: f for f, orbit in enumerate(checkers.trace_faces(new_rots))
               for d in orbit}
    return new_rots, [face_of[image(old_faces[f][0])] for f in marked]


# -- analyze-deep ------------------------------------------------------------

# Block parameters (l1, l2, l3, n1, n2, n3) with marked faces 20 to 60
# levels apart: three symmetric and two skewed shapes.  An odd number of
# shapes puts the median op inside one shape's timings.
DEEP_BLOCKS = (
    (12, 12, 12, 4, 4, 4),
    (20, 20, 20, 6, 6, 6),
    (28, 28, 28, 9, 9, 9),
    (30, 10, 20, 5, 8, 3),
    (45, 15, 14, 3, 4, 2),
)


def make_analyze_deep(seed: int, workdir: str) -> list[Op]:
    rng = Random(seed)
    ops = []
    for n, t in enumerate(DEEP_BLOCKS):
        g = ladders.block_graph(t)
        perm = tuple(rng.sample(range(3), 3))
        rots, marked = renumbered(rng, g.cmap.rotations,
                                  [g.marked[p] for p in perm])
        path = os.path.join(workdir, "deep%d.json" % n)
        _write_graph(path, rots, marked)
        expect = checkers.permuted(checkers.block_signature(t), perm)

        def check(out, expect=expect):
            code, text = out
            if code != 0:
                raise CheckFailed("analyze exited %d" % code)
            if _parse_tuple(text, "sigma") != expect:
                raise CheckFailed("sigma differs from the closed form %s" % (expect,))
            if _parse_points(text) != checkers.polytope_points(expect):
                raise CheckFailed("points differ from the polytope of %s" % (expect,))

        ops.append(Op("analyze %s perm %s" % (t, perm),
                      lambda p=path: run_cli(["analyze", p]),
                      lambda out: out, check))
    rng.shuffle(ops)
    return ops


# -- random-check ------------------------------------------------------------

RANDOM_FACES = 250
RANDOM_GRAPHS = 21


def _random_check_op(gen_seed: int):
    g = randmaps.random_sigma_graph(Random(gen_seed), max_faces=RANDOM_FACES,
                                    min_faces=RANDOM_FACES)
    tau = special_loops.sigma_of(g)
    verdict = polytope.check_realizable(tau)
    return g, tau, verdict, polytope.enumerate_points(tau)


def _collect_random(ret):
    g, tau, verdict, poly = ret
    return (tuple(map(tuple, g.cmap.rotations)), tuple(g.marked), tuple(tau),
            bool(verdict), tuple(poly.points))


def _check_random(out) -> None:
    rotations, marked, tau, verdict, points = out
    if not (checkers.realizable(tau) and verdict):
        raise CheckFailed("signature %s violates T1/T2" % (tau,))
    if sum(1 for m in tau[:3] if m == 0) > 1:
        raise CheckFailed("two empty families in %s" % (tau,))
    if checkers.marked_distances(rotations, marked) != tau[3:]:
        raise CheckFailed("distances of %s differ from the BFS" % (tau,))
    if len(checkers.trace_faces(rotations)) != RANDOM_FACES:
        raise CheckFailed("map does not have %d faces" % RANDOM_FACES)
    if len(set(points)) != len(points) or set(points) != checkers.polytope_points(tau):
        raise CheckFailed("points differ from the polytope of %s" % (tau,))


def make_random_check(seed: int, workdir: str) -> list[Op]:
    rng = Random(seed)
    ops = []
    for _ in range(RANDOM_GRAPHS):
        gen_seed = rng.randrange(2 ** 32)
        ops.append(Op("random %d" % gen_seed,
                      lambda s=gen_seed: _random_check_op(s),
                      _collect_random, _check_random))
    return ops


# -- construct-grid ----------------------------------------------------------

GRID_CAP = 3


def realizable_grid(cap: int) -> list[tuple[int, ...]]:
    """Every signature with family sizes <= cap that satisfies T1 and T2."""
    return [mu + delta
            for mu in product(range(cap + 1), repeat=3)
            for delta in product(range(1, 2 * cap + 1), repeat=3)
            if checkers.realizable(mu + delta)]


def make_construct_grid(seed: int, workdir: str) -> list[Op]:
    taus = realizable_grid(GRID_CAP)
    Random(seed).shuffle(taus)
    ops = []
    for tau in taus:
        path = os.path.join(workdir, "witness_%s.json" % "_".join(map(str, tau)))

        def collect(out, path=path):
            with open(path, encoding="utf-8") as fh:
                return out + (fh.read(),)

        def check(out, tau=tau, path=path):
            code, text, written = out
            if code != 0:
                raise CheckFailed("construct %s exited %d" % (tau, code))
            if "verified: sigma = %s" % (tau,) not in text:
                raise CheckFailed("construct %s did not report it verified" % (tau,))
            data = json.loads(written)
            got = checkers.marked_distances(data["vertices"], data["marked_faces"])
            if got != tau[3:]:
                raise CheckFailed("witness for %s has distances %s" % (tau, got))
            copy = path[:-len(".json")] + "_check.json"
            with open(copy, "w", encoding="utf-8") as fh:
                fh.write(written)
            code, text = run_cli(["analyze", copy])
            if code != 0 or _parse_tuple(text, "sigma") != tau:
                raise CheckFailed("re-analysing the witness for %s disagrees" % (tau,))

        ops.append(Op("construct %s" % (tau,),
                      lambda tau=tau, path=path: run_cli(
                          ["construct", *map(str, tau), path]),
                      collect, check))
    return ops


# -- oracle-corpus -----------------------------------------------------------

# Fixed part: two block graphs of leg length 2 that the oracle takes seconds
# on, and a theta graph whose three paths have 1,000 edges each.  The seeded
# part is drawn from the ring-family specs with every count <= 2, none of
# which reaches the oracle's cycle or step limit.
ORACLE_BLOCKS = ((2, 2, 2, 1, 1, 1), (2, 1, 2, 1, 2, 0))
ORACLE_SAMPLE = 150
LONG_THETA_EDGES = 1000
CROSSED_RINGS = ((4, 1, 1), (1, 1, 0), ())
TRIPLE_RING = ((1, 1, 1), (0, 0, 0), ())


def family_specs(limit: int) -> list[tuple]:
    """Ring-family specs (counts, depths, caps) with counts <= limit."""
    out = []
    for counts in product(range(limit + 1), repeat=3):
        if sum(1 for c in counts if c == 0) > 1:
            continue
        for depths in product(range(limit + 1), repeat=3):
            if any(depths[(i + 2) % 3] > min(counts[i], counts[(i + 1) % 3])
                   for i in range(3)):
                continue
            out.append((counts, depths, ()))
            if depths == (0, 0, 0):
                for caps in product((0, 1), repeat=3):
                    idx = tuple(i for i in range(3) if caps[i])
                    if idx and all(counts[i] >= 1 for i in idx):
                        out.append((counts, depths, idx))
    return out


def theta_rotations(path_edges: int) -> list[list[int]]:
    """Two vertices joined by three paths of `path_edges` edges each."""
    last = 3 * path_edges - 1
    rots = [[0, 2 * path_edges, 4 * path_edges],
            [2 * last + 1, 2 * (2 * path_edges - 1) + 1, 2 * (path_edges - 1) + 1]]
    for p in range(3):
        for j in range(1, path_edges):
            e = p * path_edges + j
            rots.append([2 * e, 2 * (e - 1) + 1])
    return rots


def _check_oracle(out) -> None:
    code, text = out
    if code != 0 or "agreement: yes" not in text.splitlines():
        raise CheckFailed("oracle exited %d without agreement" % code)


def make_oracle_corpus(seed: int, workdir: str) -> list[Op]:
    specs = [s for s in family_specs(2) if s != TRIPLE_RING]
    graphs = [("theta", theta_rotations(1), (0, 1, 2)),
              ("long theta", theta_rotations(LONG_THETA_EDGES), (0, 1, 2))]
    for t in ORACLE_BLOCKS:
        g = ladders.block_graph(t)
        graphs.append(("block %s" % (t,), g.cmap.rotations, g.marked))
    for spec in [CROSSED_RINGS, TRIPLE_RING] + Random(seed).sample(specs, ORACLE_SAMPLE):
        g = chords.family_graph(*spec)
        graphs.append(("family %s" % (spec,), g.cmap.rotations, g.marked))
    ops = []
    for n, (label, rots, marked) in enumerate(graphs):
        path = os.path.join(workdir, "oracle%d.json" % n)
        _write_graph(path, rots, marked)
        ops.append(Op("oracle " + label, lambda p=path: run_cli(["oracle", p]),
                      lambda out: out, _check_oracle))
    return ops


WORKLOADS = {
    "analyze-deep": make_analyze_deep,
    "random-check": make_random_check,
    "construct-grid": make_construct_grid,
    "oracle-corpus": make_oracle_corpus,
}
