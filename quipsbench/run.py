#!/usr/bin/env python3
"""Benchmark for quips: one workload, one seed, one run.

    python3 quipsbench/run.py --workload flat --seed 1 --seconds 10 --trace 0

Run from the repository root.  The library is imported from ./src, so no
build or install is needed.  Every metric is printed by name with its unit;
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end metrics (timings untraced); with --trace 1 they are the
per-layer metrics and the tracing overhead.  Exits 1 if any operation failed
or any output was wrong, 2 if the library is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NPROC = len(os.sched_getaffinity(0))
# one closed-loop client; BLAS may use every core it is given, but no more
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["flat", "train", "partitioned"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small sizes, for the benchmark's own tests")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "quips", "__init__.py")):
        print(f"quips library not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]

    import numpy as np
    import quips

    from quipsbench.metrics import END_TO_END, LAYER
    from quipsbench.workloads import SMOKE, FULL, run_workload

    if not quips.__file__.startswith(src):
        print(f"imported quips from {quips.__file__}, not {src}", file=sys.stderr)
        return 2

    out_dir = os.path.join(os.getcwd(), ".bench_build", "quipsbench")
    workdir = os.path.join(out_dir, f"{args.workload}-{os.getpid()}")
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               workdir, smoke=args.smoke)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sizes = (SMOKE if args.smoke else FULL)[args.workload]
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} smoke={args.smoke}")
    print(f"nproc={NPROC} python={platform.python_version()} numpy={np.__version__} "
          f"blas={blas.get('name')} {blas.get('version')} "
          f"blas_threads={os.environ['OPENBLAS_NUM_THREADS']}")
    print("sizes " + json.dumps(sizes, sort_keys=True))
    print("load: one closed-loop client, single queries of top-10; file I/O is "
          "served from the page cache (files are written, then read back)")
    print("info " + json.dumps(outcome.info, sort_keys=True))

    if args.trace:
        table = [(name, unit) for name, unit, *_ in LAYER]
        values = outcome.layer
        spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        os.makedirs(out_dir, exist_ok=True)
        outcome.tracer.write(spans)
        print(f"spans written to {os.path.relpath(spans)}")
    else:
        table = [(name, unit) for name, unit, *_ in END_TO_END]
        values = outcome.end_to_end
    for name, unit in table:
        print(f"{name} = {values[name]:.6g} {unit}")
    if not args.trace:
        n = outcome.info["queries_timed"]
        print(f"query_p99_ms = {outcome.end_to_end['query_p99_ms']:.6g} ms "
              f"({n} samples, {n // 100} beyond it; not bounded)")
    share = outcome.failed / max(outcome.attempted, 1)
    print(f"failed_share = {share:.6g} share ({outcome.failed} of {outcome.attempted})")
    for what in outcome.failures[:20]:
        print(f"FAILED: {what}")

    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in table}
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
