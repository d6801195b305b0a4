"""One workload in one single-threaded process; started by run.py.

Set-up (imports, inputs) is timed from the moment the parent started
this process (`--t0`, a CLOCK_MONOTONIC reading) to the first timed op,
with the reference kernel sampled every SETUP_SAMPLE_S seconds from the
first line of `main` on.  With `--probe` the process stops there.
Otherwise it runs whole rounds of ops for about `--seconds` while the
kernel is sampled every SAMPLE_S seconds, checks every distinct output
after the loop, and prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import kernel
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The kernel is timed this often, from a timer signal, during the measured
# loop; an op's scale uses the samples inside it and the nearest on each side.
SAMPLE_S = 0.25
# Set-up lasts a few tenths of a second, so it is sampled more often.
SETUP_SAMPLE_S = 0.05

# per-layer metric -> (span name, "self" time in ms per op or "calls" per op)
LAYER_METRICS = {
    "combmap.build_ms": ("combmap.build", "self"),
    "combmap.builds": ("combmap.build", "calls"),
    "randmaps.random_map_ms": ("randmaps.random_map", "self"),
    "exploration.distance_ms": ("exploration.distance", "self"),
    "exploration.boundary_ms": ("exploration.boundary", "self"),
    "exploration.boundary_calls": ("exploration.boundary", "calls"),
    "exploration.flood_ms": ("exploration.flood", "self"),
    "exploration.floods": ("exploration.flood", "calls"),
    "special_loops.family_ms": ("special_loops.family", "self"),
    "special_loops.family_calls": ("special_loops.family", "calls"),
    "polytope.points_ms": ("polytope.points", "self"),
    "ladders.block_graph_ms": ("ladders.block_graph", "self"),
    "ladders.block_graphs": ("ladders.block_graph", "calls"),
    "chords.family_graph_ms": ("chords.family_graph", "self"),
    "chords.family_graphs": ("chords.family_graph", "calls"),
    "facecomplex.to_map_ms": ("facecomplex.to_map", "self"),
    "constructor.construct_ms": ("constructor.construct", "self"),
    "constructor.verify_ms": ("constructor.verify", "self"),
    "constructor.candidates": ("constructor.verify", "calls"),
    "constructor.fallbacks": ("constructor.search", "calls"),
    "oracle.enumerate_ms": ("oracle.enumerate", "self"),
    "oracle.classify_calls": ("oracle.classify", "calls"),
    "oracle.packing_ms": ("oracle.packing", "self"),
    "cli.self_ms": (tracer.ROOT, "self"),
}


def _count(key, size):
    def on_result(tr, result):
        tr.counts[key] += size(result)
    return on_result


def install_tracing(tr: tracer.Tracer) -> None:
    from pantslam import (chords, constructor, exploration, facecomplex, ladders,
                          oracle, polytope, randmaps, special_loops)
    from pantslam.combmap import CombinatorialMap

    tracer.install(
        tr,
        functions=[
            (randmaps, "random_map", "randmaps.random_map", None),
            (exploration, "loop_sides", "exploration.flood", None),
            (special_loops, "special_family", "special_loops.family", None),
            (polytope, "enumerate_points", "polytope.points", None),
            (ladders, "block_graph", "ladders.block_graph", None),
            (chords, "family_graph", "chords.family_graph", None),
            (constructor, "construct_detailed", "constructor.construct", None),
            (constructor, "_verified", "constructor.verify",
             _count("witnesses", lambda r: r is not None)),
            (constructor, "_search_detailed", "constructor.search", None),
            (oracle, "all_simple_cycles", "oracle.enumerate",
             _count("cycles", len)),
            (oracle, "max_disjoint_type", "oracle.packing", None),
            (oracle, "lamination_space_bruteforce", "oracle.packing", None),
        ],
        methods=[
            (CombinatorialMap, "__init__", "combmap.build", None),
            (exploration.SigmaGraph, "_dist_from", "exploration.distance", None),
            (exploration.SigmaGraph, "boundary_loops", "exploration.boundary", None),
            (exploration.SigmaGraph, "classify", "oracle.classify", None),
            (facecomplex.FaceComplex, "to_map", "facecomplex.to_map", None),
        ],
    )


def measure(ops, seconds: float, sampler, tr):
    """Run whole rounds of ops; returns one record per op attempted.

    A record is (op index, raw seconds, scale, failure or None, first span,
    span stop, counts after).  Another round starts only while the rounds
    so far plus one more fit in `seconds`; there is always one round.
    """
    runners = [op.run if tr is None else tr.wrap(tracer.ROOT, op.run) for op in ops]
    timed = []
    outputs = {}
    rounds = 0
    with sampler:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for i, run in enumerate(runners):
                span0 = tr.span_count() if tr else 0
                failure = None
                t0 = time.perf_counter()
                try:
                    ret = run()
                except Exception as exc:  # a failed op is counted, not fatal
                    failure = type(exc).__name__
                t1 = time.perf_counter()
                timed.append((i, t0, t1, failure,
                              span0, tr.span_count() if tr else 0,
                              dict(tr.counts) if tr else None))
                if failure is None:
                    out = ops[i].collect(ret)
                    key = (i, hashlib.sha1(repr(out).encode()).hexdigest())
                    outputs.setdefault(key, out)
            rounds += 1
            if rounds == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            if (now - start) + (now - round_start) > seconds:
                break
        wall = time.perf_counter() - start
    records = [(i, *sampler.measured(t0, t1), *rest) for i, t0, t1, *rest in timed]
    return records, outputs, rounds, wall, peak_rss_mb


def layer_metrics(tr: tracer.Tracer, records) -> dict:
    self_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    before: dict = {}
    done = 0
    for _, _, scale, failure, first, stop, after in records:
        if failure is None:
            done += 1
            own, n = tr.self_times(first, stop)
            for layer, sec in own.items():
                self_ms[layer] = self_ms.get(layer, 0.0) + 1000 * sec * scale
            for layer, c in n.items():
                calls[layer] = calls.get(layer, 0) + c
            for key, c in after.items():
                counts[key] = counts.get(key, 0) + c - before.get(key, 0)
        before = after
    metrics = {}
    for name, (layer, kind) in LAYER_METRICS.items():
        if kind == "self":
            metrics[name] = (self_ms.get(layer, 0.0) / done, "ms")
        else:
            metrics[name] = (calls.get(layer, 0) / done, "count")
    metrics["oracle.cycles"] = (counts.get("cycles", 0) / done, "count")
    candidates = calls.get("constructor.verify", 0)
    metrics["constructor.hit_ratio"] = (
        counts.get("witnesses", 0) / candidates if candidates else 0.0, "ratio")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    setup_start = time.perf_counter() - (time.monotonic() - args.t0)

    work_root = HERE / "work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=work_root)
    try:
        graph = kernel.build_graph()
        with kernel.SpeedSampler(graph, SETUP_SAMPLE_S) as setup_sampler:
            sys.path.insert(0, str(ROOT / "src"))
            import workloads

            ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
            setup_end = time.perf_counter()
        raw, scale = setup_sampler.measured(setup_start, setup_end)
        setup = {"setup_raw_s": raw, "setup_s": raw * scale}
        if args.probe:
            print(json.dumps(setup))
            return 0
        tr = None
        if args.trace:
            tr = tracer.Tracer()
            install_tracing(tr)
        sampler = kernel.SpeedSampler(graph, SAMPLE_S,
                                      on_sample=tr.exclude if tr else None)
        records, outputs, rounds, wall, peak_rss_mb = measure(
            ops, args.seconds, sampler, tr)

        problems = []
        for (i, _), out in outputs.items():
            try:
                ops[i].check(out)
            except Exception as exc:  # any error in a check marks the run wrong
                problems.append("%s: %s: %s" % (ops[i].label, type(exc).__name__, exc))

        done = [(raw, scale) for _, raw, scale, failure, *_ in records if failure is None]
        raw_s = [raw for raw, _ in done]
        scaled_s = [raw * s for raw, s in done]
        failures = {}
        for i, _, _, failure, *_ in records:
            if failure is not None:
                failures.setdefault(ops[i].label, failure)
        result = dict(
            setup,
            attempted=len(records),
            failed=len(records) - len(done),
            failures=failures,
            correct=not problems,
            problems=problems[:20],
            rounds=rounds,
            ops_per_round=len(ops),
            measured_s=wall,
            kernel_ms={"median": 1000 * statistics.median(sampler.kernels),
                       "samples": len(sampler.kernels)},
            raw={"op_ms": 1000 * statistics.median(raw_s),
                 "ops_per_s": len(raw_s) / sum(raw_s)},
            scaled={"op_ms": 1000 * statistics.median(scaled_s),
                    "ops_per_s": len(scaled_s) / sum(scaled_s)},
            peak_rss_mb=peak_rss_mb,
        )
        if tr is not None:
            result["layers"] = layer_metrics(tr, records)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
