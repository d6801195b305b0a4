"""Benchmark entry point: one workload per call, each in its own process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics (setup_s, op_ms, ops_per_s, peak_rss_mb); with
--trace 1 it holds the per-layer metrics of a traced run.  The line
before it records the run's provenance (commit, CPU count, line count
of src/) and its raw and kernel-scaled times; the same record is written
to perfbench/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("analyze-deep", "random-check", "construct-grid", "oracle-corpus")
# Set-up is also timed in this many extra processes that stop at the first
# op, half before and half after the measuring one; setup_s is the median.
SETUP_PROBES = 6
TIMEOUT_S = 170.0


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def _spawn(args, extra, deadline) -> dict:
    """Run worker.py to its end and return the JSON object it printed last."""
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(time.monotonic()), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pantslam" / "__init__.py").is_file():
        print("run.py: no pantslam package under %s" % SRC, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    for tree in (SRC, HERE):
        compileall.compile_dir(str(tree), quiet=1)

    probes = 0 if args.trace else SETUP_PROBES
    setups = [_spawn(args, ["--probe"], deadline) for _ in range(probes // 2)]
    res = _spawn(args, [], deadline)
    setups += [res] + [_spawn(args, ["--probe"], deadline)
                       for _ in range(probes - probes // 2)]

    raw, scaled = dict(res["raw"]), dict(res["scaled"])
    raw["setup_s"] = statistics.median(p["setup_raw_s"] for p in setups)
    scaled["setup_s"] = statistics.median(p["setup_s"] for p in setups)
    if args.trace:
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in res["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": scaled["setup_s"], "unit": "s"},
            "op_ms": {"value": scaled["op_ms"], "unit": "ms"},
            "ops_per_s": {"value": scaled["ops_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "commit": _commit(), "nproc": os.cpu_count(), "src_lines": _src_lines(),
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"], "problems": res["problems"],
        "rounds": res["rounds"], "ops_per_round": res["ops_per_round"],
        "measured_s": res["measured_s"], "kernel_ms": res["kernel_ms"],
        "raw": raw, "scaled": scaled,
        "setup_samples_raw_s": [p["setup_raw_s"] for p in setups],
    }
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = "%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace)
    (results / name).write_text(json.dumps({"info": info, "result": summary},
                                           indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
