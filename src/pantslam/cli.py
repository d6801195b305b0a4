"""Command-line front end.

Verbs: analyze, check, construct, roundtrip, render, oracle.  Exit codes
are scriptable: 0 for success or a positive verdict, 1 for a negative
domain result (not realizable, sweep mismatch, oracle disagreement),
2 for unreadable or malformed input or an exhausted resource (a search
limit, or memory).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import product
from typing import Optional, Sequence

from .combmap import CombinatorialMap
from .constructor import construct_detailed
from .errors import ConstructionFailed, LimitExceeded, NotRealizable, OutOfRange, PantsError
from .exploration import SigmaGraph
from .oracle import candidate_cycles, lamination_space_bruteforce
from .polytope import _point_runs, check_realizable, enumerate_points, nu_transform
from .render import render_svg
from .special_loops import sigma_of, special_family

__all__ = ["main"]


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


def _load_graph(path: str) -> SigmaGraph:
    return SigmaGraph.from_dict(_load_json(path))


def cmd_analyze(path: str, exclude_origin: bool = False) -> int:
    sg = _load_graph(path)
    tau = sigma_of(sg)
    # a block graph's points can run to gigabytes of text, written here in
    # chunks of about 1 MiB; the runs, about m3 times fewer, are kept, as a
    # second pass of the generator would cost more
    runs = list(_point_runs(tau))
    # the first run is (0, 0), so skipping the origin starts it at z = 1
    lo = int(exclude_origin)
    count = sum(top + 1 for _, _, top in runs) - lo
    chunk = ["sigma = %s\nnu = %s\nlamination points (%d):\n"
             % (tuple(tau), tuple(nu_transform(tau)), count)]
    size = 0
    zstr = ["%d\n" % z for z in range(tau.m3 + 1)]
    for x, y, top in runs:
        if lo <= top:
            prefix = "%d %d " % (x, y)
            run = prefix + prefix.join(zstr[lo:top + 1])
            chunk.append(run)
            size += len(run)
            if size >= 1 << 20:
                sys.stdout.write("".join(chunk))
                chunk, size = [], 0
        lo = 0
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
    """The text of json.dumps(sg.to_dict(), indent=1, sort_keys=True) + "\\n"."""
    # a valid map has no empty rotation, so no list takes json's [] form
    rows = ",\n  ".join(["[\n   " + ",\n   ".join(map(str, r)) + "\n  ]"
                         for r in sg.cmap.rotations])
    marks = ",\n  ".join(map(str, sg.marked))
    return '{\n "marked_faces": [\n  %s\n ],\n "vertices": [\n  %s\n ]\n}\n' % (marks, rows)


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
    out = []
    for mu in product(range(max_mu + 1), repeat=3):
        hi = 2 * max_mu
        for delta in product(range(1, hi + 1), repeat=3):
            tau = mu + delta
            if check_realizable(tau):
                out.append(tau)
    return out


def cmd_roundtrip(max_mu: int) -> int:
    if max_mu < 0:
        raise OutOfRange("--max-mu must be at least 0, got %d" % max_mu)
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
    if isinstance(data, dict) and "marked_faces" in data:
        sg = SigmaGraph.from_dict(data)
        groups = [special_family(sg, i).loops for i in (1, 2, 3)]
        svg = render_svg(sg, highlight=groups)
    else:
        svg = render_svg(CombinatorialMap.from_dict(data))
    with open(out_svg, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print("wrote %s" % out_svg)
    return 0


def cmd_oracle(path: str, cycle_limit: Optional[int] = None) -> int:
    if cycle_limit is not None and cycle_limit < 1:
        raise OutOfRange("--cycle-limit must be at least 1, got %d" % cycle_limit)
    sg = _load_graph(path)
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
    p.add_argument("--max-mu", type=int, default=2)

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
    except LimitExceeded as exc:
        print("LimitExceeded: %s" % exc)
        return 2
    except MemoryError:
        print("MemoryError: out of memory")
        return 2
    except (PantsError, OSError, json.JSONDecodeError) as exc:
        print("%s: %s" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
