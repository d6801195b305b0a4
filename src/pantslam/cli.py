"""Command-line front end.

Verbs: analyze, check, construct, roundtrip, render, oracle.  Exit codes
are scriptable: 0 for success or a positive verdict, 1 for a negative
domain result (not realizable, sweep mismatch, oracle disagreement),
2 for unreadable or malformed input or an exhausted resource (a search
limit, a size cap, or memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import product
from typing import Optional, Sequence, Union

from .combmap import CombinatorialMap
from .constructor import construct_detailed
from .errors import (BadFaceIndex, ConstructionFailed, MalformedRotation, NotRealizable,
                     OutOfRange, PantsError)
from .exploration import SigmaGraph
from .oracle import candidate_cycles, lamination_space_bruteforce
from .polytope import _columns, check_realizable, enumerate_points, nu_transform
from .render import render_svg
from .special_loops import sigma_of, special_family

# the sweep builds and verifies one witness per realizable signature: 8,745
# of them for --max-mu 6, a few seconds; at 10 it would be 99,365
MAX_ROUNDTRIP_MU = 6


def _load_json(path: str):
    """Parsed contents of a graph file.

    Text that is not UTF-8, holds a number too long to convert, or is
    nested too deeply to parse, is bad input.
    """
    with open(path, "r", encoding="utf-8") as fh:
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


def cmd_analyze(path: str, exclude_origin: bool = False) -> int:
    sg = _graph_of(_load_json(path))
    tau = sigma_of(sg)
    cols = list(_columns(tau))
    count = sum(sum(tops, len(tops)) for _, tops in cols) - exclude_origin
    # a block graph's points can run to gigabytes of text, written here in
    # chunks of about 1 MiB.  The lines of (x, y) are one string, "x y "
    # joined over ["", "0\n", ..., "top\n"], a slice of one list.  A
    # column's rows come from two C-level maps, at most about 2^15 points
    # at a time, and their slices are kept while the tops repeat: the
    # interpreter steps once per column of a deep block graph, and a long
    # column is never held whole.  (Joining whole columns over a table of
    # "y z\n" lines was slower on long columns, whose lines no longer stay
    # in cache.)
    chunk = ["sigma = %s\nnu = %s\nlamination points (%d):\n"
             % (tuple(tau), tuple(nu_transform(tau)), count)]
    size = 0
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
            if exclude_origin and x == lo == 0:
                texts[0] = texts[0][len("0 0 0\n"):]
            chunk += texts
            size += sum(map(len, texts))
            if size >= 1 << 20:
                sys.stdout.write("".join(chunk))
                chunk, size = [], 0
    sys.stdout.write("".join(chunk))
    return 0


def cmd_check(tau: Sequence[int]) -> int:
    verdict = check_realizable(tau)
    if verdict:
        print("Realizable")
        return 0
    print("%s violated at i=%d" % (verdict.condition, verdict.index))
    return 1


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


def cmd_construct(tau: Sequence[int], out_path: str) -> int:
    # construct_detailed returns only a witness that measures tau
    res = construct_detailed(tau)
    print("params: counts=%s depths=%s" % (res.counts, res.depths))
    print("verified: sigma = %s" % (tuple(tau),))
    # not json.dumps: with indent, json encodes dart by dart in pure Python
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(_witness_text(res.graph))
    print("wrote %s" % out_path)
    return 0


def _roundtrip_one(tau: tuple[int, ...]) -> str:
    """The row verdict: ok once a witness verifies, else MISMATCH and its error."""
    try:
        construct_detailed(tau)
    except PantsError as exc:
        return "MISMATCH " + type(exc).__name__
    return "ok"


def _realizable_box(max_mu: int) -> list[tuple[int, ...]]:
    """Realizable signatures with family sizes at most max_mu; each distance
    runs over its T1 interval, so only T2 can reject a candidate."""
    out = []
    for mu in product(range(max_mu + 1), repeat=3):
        spans = [range(max(mu[j], mu[k], 1), mu[j] + mu[k] + 1)
                 for j, k in ((1, 2), (2, 0), (0, 1))]
        out.extend(mu + delta for delta in product(*spans) if check_realizable(mu + delta))
    return out


def cmd_roundtrip(max_mu: int) -> int:
    if not 0 <= max_mu <= MAX_ROUNDTRIP_MU:
        raise OutOfRange("--max-mu must be 0 to %d, got %d" % (MAX_ROUNDTRIP_MU, max_mu))
    taus = _realizable_box(max_mu)
    if not taus:
        print("swept 0 realizable signatures (empty sweep)")
        return 0
    bad = 0
    for tau in taus:
        verdict = _roundtrip_one(tau)
        if verdict != "ok":
            bad += 1
        print("tau=%s %s" % (tau, verdict))
    print("swept %d realizable signatures: %d ok, %d mismatches"
          % (len(taus), len(taus) - bad, bad))
    return 1 if bad else 0


def cmd_render(path: str, out_svg: str) -> int:
    data = _load_json(path)
    g = _graph_of(data, isinstance(data, dict) and "marked_faces" in data)
    if isinstance(g, SigmaGraph):
        svg = render_svg(g, highlight=[special_family(g, i) for i in (1, 2, 3)])
    else:
        svg = render_svg(g)
    with open(out_svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print("wrote %s" % out_svg)
    return 0


def cmd_oracle(path: str, cycle_limit: Optional[int] = None) -> int:
    if cycle_limit is not None and cycle_limit < 1:
        raise OutOfRange("--cycle-limit must be at least 1, got %d" % cycle_limit)
    sg = _graph_of(_load_json(path))
    kwargs = {} if cycle_limit is None else {"cycle_limit": cycle_limit}
    cat = candidate_cycles(sg, **kwargs)
    brute_pts = lamination_space_bruteforce(sg, cat)
    # packing number i is the largest x_i among the achievable triples
    brute_m = tuple(max(p[i] for p in brute_pts) for i in range(3))
    tau = sigma_of(sg)
    pipe_m = tau.mu
    pipe_pts = frozenset(enumerate_points(tau).points)
    print("minimal cycles by type: %d %d %d"
          % tuple(len(cat.minimal_masks(i)) for i in (1, 2, 3)))
    print("packing numbers: bruteforce %s pipeline %s" % (brute_m, pipe_m))
    print("lamination points: bruteforce %d pipeline %d"
          % (len(brute_pts), len(pipe_pts)))
    if brute_m == pipe_m and brute_pts == pipe_pts:
        print("agreement: yes")
        return 0
    print("agreement: NO")
    return 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after."""
    ap = argparse.ArgumentParser(
        prog="pantslam",
        description="Marked planar maps: analysis, realizability, construction.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="print sigma, nu and lamination points")
    p.add_argument("path")
    p.add_argument("--exclude-origin", action="store_true")

    p = sub.add_parser("check", help="test realizability of six integers")
    p.add_argument("tau", type=int, nargs=6)

    p = sub.add_parser("construct", help="build a witness map for a signature")
    p.add_argument("tau", type=int, nargs=6)
    p.add_argument("out", help="output graph JSON path")

    p = sub.add_parser("roundtrip", help="sweep all realizable signatures")
    p.add_argument("--max-mu", type=int, default=2,
                   help="largest family size swept, 0 to %d (default 2)"
                        % MAX_ROUNDTRIP_MU)

    p = sub.add_parser("render", help="draw a graph JSON file to SVG")
    p.add_argument("path")
    p.add_argument("out")

    p = sub.add_parser("oracle", help="compare brute force against the pipeline")
    p.add_argument("path")
    p.add_argument("--cycle-limit", type=int, default=None,
                   help="most cycles the pruned search may keep before it "
                        "stops with exit 2 (default 100000)")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "analyze":
            return cmd_analyze(args.path, args.exclude_origin)
        if args.verb == "check":
            return cmd_check(tuple(args.tau))
        if args.verb == "construct":
            return cmd_construct(tuple(args.tau), args.out)
        if args.verb == "roundtrip":
            return cmd_roundtrip(args.max_mu)
        if args.verb == "render":
            return cmd_render(args.path, args.out)
        if args.verb == "oracle":
            return cmd_oracle(args.path, args.cycle_limit)
        raise AssertionError(args.verb)
    except (NotRealizable, ConstructionFailed) as exc:
        print("%s: %s" % (type(exc).__name__, exc))
        return 1
    except MemoryError:
        print("MemoryError: out of memory")
        return 2
    except (PantsError, OSError, json.JSONDecodeError) as exc:
        print("%s: %s" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
