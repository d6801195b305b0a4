"""Command-line front end.

Verbs: analyze, check, construct, roundtrip, render, oracle.  Exit codes
are scriptable: 0 for success or a positive verdict, 1 for a negative
domain result (not realizable, sweep mismatch, oracle disagreement),
2 for unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product
from typing import Optional, Sequence

from .combmap import CombinatorialMap
from .constructor import construct_detailed
from .errors import ConstructionFailed, LimitExceeded, NotRealizable, PantsError
from .exploration import SigmaGraph
from .oracle import all_simple_cycles, lamination_space_bruteforce, max_disjoint_type
from .polytope import check_realizable, enumerate_points, nu_transform
from .render import render_svg
from .special_loops import sigma_of, special_family

__all__ = ["main"]


def _load_json(path: str):
    """Parsed contents of a graph file; nesting too deep to parse is bad input."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise PantsError("%s is nested too deeply to parse" % path) from None


def _load_graph(path: str) -> SigmaGraph:
    return SigmaGraph.from_dict(_load_json(path))


def cmd_analyze(path: str, exclude_origin: bool = False) -> int:
    sg = _load_graph(path)
    tau = sigma_of(sg)
    points = enumerate_points(tau).points
    if exclude_origin:
        points = tuple(p for p in points if p != (0, 0, 0))
    lines = [
        "sigma = %s" % (tuple(tau),),
        "nu = %s" % (tuple(nu_transform(tau)),),
        "lamination points (%d):" % len(points),
    ]
    lines.extend("%d %d %d" % p for p in points)
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_check(tau: Sequence[int]) -> int:
    verdict = check_realizable(tau)
    if verdict:
        print("Realizable")
        return 0
    print("%s violated at i=%d" % (verdict.condition, verdict.index))
    return 1


def cmd_construct(tau: Sequence[int], out_path: str) -> int:
    res = construct_detailed(tau)
    got = tuple(sigma_of(res.graph))
    print("route: %s" % res.route)
    print("params: counts=%s depths=%s" % (res.counts, res.depths))
    print("verified: sigma = %s" % (got,))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(res.graph.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % out_path)
    return 0


def _roundtrip_one(tau: tuple[int, ...]) -> tuple[str, bool]:
    try:
        res = construct_detailed(tau)
    except PantsError as exc:
        return type(exc).__name__, False
    return res.route, tuple(sigma_of(res.graph)) == tuple(tau)


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
    taus = _realizable_box(max_mu)
    if not taus:
        print("swept 0 realizable signatures (empty sweep)")
        return 0
    bad = 0
    for tau in taus:
        route, ok = _roundtrip_one(tau)
        if not ok:
            bad += 1
        print("tau=%s route=%s %s" % (tau, route, "ok" if ok else "MISMATCH"))
    print("swept %d realizable signatures: %d ok, %d mismatches"
          % (len(taus), len(taus) - bad, bad))
    return 1 if bad else 0


def cmd_render(path: str, out_svg: str) -> int:
    data = _load_json(path)
    if "marked_faces" in data:
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
    sg = _load_graph(path)
    kwargs = {} if cycle_limit is None else {"cycle_limit": cycle_limit}
    cat = all_simple_cycles(sg, **kwargs)
    brute_m = tuple(max_disjoint_type(sg, i, cat) for i in (1, 2, 3))
    tau = sigma_of(sg)
    pipe_m = tau.mu
    brute_pts = lamination_space_bruteforce(sg, cat)
    pipe_pts = frozenset(enumerate_points(tau).points)
    print("cycles cataloged: %d" % len(cat))
    print("packing numbers: bruteforce %s pipeline %s" % (brute_m, pipe_m))
    print("lamination points: bruteforce %d pipeline %d"
          % (len(brute_pts), len(pipe_pts)))
    if brute_m == pipe_m and brute_pts == pipe_pts:
        print("agreement: yes")
        return 0
    print("agreement: NO")
    return 1


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--cycle-limit", type=int, default=None)
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
    except (PantsError, OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        print("%s: %s" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
