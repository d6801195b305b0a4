"""Command-line front end.

Verbs: analyze, check, construct, roundtrip, render, oracle.  Exit codes
are scriptable: 0 for success or a positive verdict, 1 for a negative
domain result (not realizable, sweep mismatch, oracle disagreement),
2 for unreadable or malformed input, an exhausted resource (a search
limit, a size cap, or memory) or a closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import product
from typing import Optional, Sequence, Union

from .combmap import CombinatorialMap
from .constructor import MAX_WITNESS_DARTS, construct_detailed
from .errors import (BadFaceIndex, ConstructionFailed, LimitExceeded, MalformedRotation,
                     NotRealizable, OutOfRange, PantsError)
from .exploration import SigmaGraph
from .oracle import CYCLE_LIMIT, candidate_cycles, lamination_space_bruteforce
from .polytope import _columns, check_realizable, enumerate_points, nu_transform
from .render import render_svg
from .special_loops import sigma_of, special_family

# the sweep builds and verifies one witness per realizable signature: 8,745
# of them for --max-mu 6, a few seconds; at 10 it would be 99,365
MAX_ROUNDTRIP_MU = 6
# a witness file takes 7 bytes per dart besides its digits, its vertices
# having four darts each: 13.9 bytes per dart at construct's cap of 10^7
# darts, so every witness construct writes can be read back
MAX_GRAPH_BYTES = 14 * MAX_WITNESS_DARTS


def _load_json(path: str):
    """Parsed contents of a graph file.

    A file of more than MAX_GRAPH_BYTES bytes is refused with LimitExceeded
    before it is read: parsing it and building its map could end in the
    kernel's out-of-memory kill rather than in MemoryError.  Text that is
    not UTF-8, holds a number too long to convert, or is nested too deeply
    to parse, is bad input.
    """
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > MAX_GRAPH_BYTES:
            raise LimitExceeded("%s has %d bytes, more than the cap of %d"
                                % (path, size, MAX_GRAPH_BYTES))
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise PantsError("%s is not UTF-8 text: %s" % (path, exc.reason)) from None
        except RecursionError:
            raise PantsError("%s is nested too deeply to parse" % path) from None
        except json.JSONDecodeError:
            raise
        except ValueError as exc:
            raise PantsError("%s: %s" % (path, exc)) from None


def cmd_analyze(args: argparse.Namespace) -> int:
    sg = _graph_of(_load_json(args.path))
    tau = sigma_of(sg)
    cols = list(_columns(tau))
    count = sum(sum(tops, len(tops)) for _, tops in cols) - args.exclude_origin
    # a block graph's points can run to gigabytes of text, written here to
    # sys.stdout slice by slice.  The lines of (x, y) are one string, "x y "
    # joined over ["", "0\n", ..., "top\n"], a slice of one list.  A
    # column's rows come from two C-level maps, at most about 2^15 points
    # at a time, and their slices are kept while the tops repeat: the
    # interpreter steps once per column of a deep block graph, and a long
    # column is never held whole.  (Joining whole columns over a table of
    # "y z\n" lines was slower on long columns, whose lines no longer stay
    # in cache.)
    sys.stdout.write("sigma = %s\nnu = %s\nlamination points (%d):\n"
                     % (tuple(tau), tuple(nu_transform(tau)), count))
    tops0 = cols[0][1]
    zs = [""] + ["%d\n" % z for z in range(tops0[0] + 1)]
    ys = ["%d " % y for y in range(len(tops0))]
    # no column's cap, tops[0], exceeds the first one's
    step = max(1, (1 << 15) // (tops0[0] + 1))
    last = None
    for x, tops in cols:
        prefix = "%d " % x
        for lo in range(0, len(tops), step):
            part = tops[lo:lo + step]
            if part != last:
                last = part
                table = [zs[:top + 2] for top in part]
            texts = list(map(str.join, map(prefix.__add__, ys[lo:lo + step]), table))
            if args.exclude_origin and x == lo == 0:
                texts[0] = texts[0][len("0 0 0\n"):]
            sys.stdout.write("".join(texts))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    verdict = check_realizable(args.tau)
    print("Realizable" if verdict else "%s violated at i=%d" % (verdict.condition, verdict.index))
    return 0 if verdict else 1


def _witness_text(sg: SigmaGraph) -> str:
    """sg's "vertices" and "marked_faces" as json.dumps(.., indent=1, sort_keys=True) + "\\n"."""
    # a valid map has no empty rotation, so no list takes json's [] form
    rows = ",\n  ".join(["[\n   " + ",\n   ".join(map(str, r)) + "\n  ]"
                         for r in sg.cmap.rotations])
    marks = ",\n  ".join(map(str, sg.marked))
    return '{\n "marked_faces": [\n  %s\n ],\n "vertices": [\n  %s\n ]\n}\n' % (marks, rows)


def _graph_of(data, marked: bool = True) -> Union[SigmaGraph, CombinatorialMap]:
    """The marked graph a parsed graph file holds, or its bare map when not
    marked: "vertices" lists the rotations and "marked_faces" the marked
    faces, as `_witness_text` writes them."""
    if not isinstance(data, dict):
        raise MalformedRotation("a %s must be a dict, got %s"
                                % ("graph" if marked else "map", type(data).__name__))
    faces = data.get("marked_faces")
    if marked and not isinstance(faces, list):
        raise BadFaceIndex("marked_faces must be a list of face indices")
    rots = data.get("vertices")
    if not isinstance(rots, list) or not all(isinstance(r, list) for r in rots):
        raise MalformedRotation("vertices must be a list of dart lists")
    cmap = CombinatorialMap(rots)
    return SigmaGraph(cmap, faces) if marked else cmap


def cmd_construct(args: argparse.Namespace) -> int:
    # construct_detailed returns only a witness that measures tau
    res = construct_detailed(args.tau)
    # not json.dumps: with indent, json encodes dart by dart in pure Python
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(_witness_text(res.graph))
    print("params: counts=%s depths=%s" % (res.counts, res.depths))
    print("verified: sigma = %s" % (tuple(args.tau),))
    print("wrote %s" % args.out)
    return 0


def _realizable_box(max_mu: int) -> list[tuple[int, ...]]:
    """Realizable signatures with family sizes at most max_mu; each distance
    runs over its T1 interval, so only T2 can reject a candidate."""
    out = []
    for mu in product(range(max_mu + 1), repeat=3):
        spans = [range(max(mu[j], mu[k], 1), mu[j] + mu[k] + 1)
                 for j, k in ((1, 2), (2, 0), (0, 1))]
        out.extend(mu + delta for delta in product(*spans) if check_realizable(mu + delta))
    return out


def cmd_roundtrip(args: argparse.Namespace) -> int:
    if not 0 <= args.max_mu <= MAX_ROUNDTRIP_MU:
        raise OutOfRange("--max-mu must be 0 to %d, got %d" % (MAX_ROUNDTRIP_MU, args.max_mu))
    taus = _realizable_box(args.max_mu)
    if not taus:
        print("swept 0 realizable signatures (empty sweep)")
        return 0
    bad = 0
    for tau in taus:
        try:
            construct_detailed(tau)
            verdict = "ok"
        except PantsError as exc:
            verdict = "MISMATCH " + type(exc).__name__
            bad += 1
        print("tau=%s %s" % (tau, verdict))
    print("swept %d realizable signatures: %d ok, %d mismatches"
          % (len(taus), len(taus) - bad, bad))
    return 1 if bad else 0


def cmd_render(args: argparse.Namespace) -> int:
    data = _load_json(args.path)
    marked = isinstance(data, dict) and "marked_faces" in data
    g = _graph_of(data, marked)
    # the families are found only once render_svg has checked the drawing's size
    svg = render_svg(g, (special_family(g, i) for i in (1, 2, 3) if marked))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print("wrote %s" % args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.cycle_limit < 1:
        raise OutOfRange("--cycle-limit must be at least 1, got %d" % args.cycle_limit)
    sg = _graph_of(_load_json(args.path))
    cat = candidate_cycles(sg, args.cycle_limit)
    brute_pts = lamination_space_bruteforce(sg, cat)
    # packing number i is the largest x_i among the achievable triples
    brute_m = tuple(max(p[i] for p in brute_pts) for i in range(3))
    tau = sigma_of(sg)
    pipe_pts = frozenset(enumerate_points(tau).points)
    print("minimal cycles by type: %d %d %d"
          % tuple(len(cat.minimal_masks(i)) for i in (1, 2, 3)))
    print("packing numbers: bruteforce %s pipeline %s" % (brute_m, tau.mu))
    print("lamination points: bruteforce %d pipeline %d"
          % (len(brute_pts), len(pipe_pts)))
    agree = brute_m == tau.mu and brute_pts == pipe_pts
    print("agreement: %s" % ("yes" if agree else "NO"))
    return 0 if agree else 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    ap = argparse.ArgumentParser(
        prog="pantslam",
        description="Marked planar maps: analysis, realizability, construction.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="print sigma, nu and lamination points")
    p.set_defaults(run=cmd_analyze)
    p.add_argument("path")
    p.add_argument("--exclude-origin", action="store_true")

    p = sub.add_parser("check", help="test realizability of six integers")
    p.set_defaults(run=cmd_check)
    p.add_argument("tau", type=int, nargs=6)

    p = sub.add_parser("construct", help="build a witness map for a signature")
    p.set_defaults(run=cmd_construct)
    p.add_argument("tau", type=int, nargs=6)
    p.add_argument("out", help="output graph JSON path")

    p = sub.add_parser("roundtrip", help="sweep all realizable signatures")
    p.set_defaults(run=cmd_roundtrip)
    p.add_argument("--max-mu", type=int, default=2,
                   help="largest family size swept, 0 to %d (default %%(default)d)"
                        % MAX_ROUNDTRIP_MU)

    p = sub.add_parser("render", help="draw a graph JSON file to SVG")
    p.set_defaults(run=cmd_render)
    p.add_argument("path")
    p.add_argument("out")

    p = sub.add_parser("oracle", help="compare brute force against the pipeline")
    p.set_defaults(run=cmd_oracle)
    p.add_argument("path")
    p.add_argument("--cycle-limit", type=int, default=CYCLE_LIMIT,
                   help="most cycles the pruned search may keep before it "
                        "stops with exit 2 (default %(default)d)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
            code = args.run(args)
        except BrokenPipeError:
            raise
        except SystemExit:  # argparse's: flush --help's text while a closed pipe is caught
            sys.stdout.flush()
            raise
        except (PantsError, OSError, json.JSONDecodeError, MemoryError) as exc:
            print("%s: %s" % (type(exc).__name__,
                              "out of memory" if isinstance(exc, MemoryError) else exc))
            code = 1 if isinstance(exc, (NotRealizable, ConstructionFailed)) else 2
        sys.stdout.flush()  # a closed stdout fails here at the latest
    except BrokenPipeError:
        # the reader has gone: write nothing more, and send what the process's
        # own stdout still buffers to devnull, so its final flush stays quiet
        if sys.stdout is sys.__stdout__:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
