#!/usr/bin/env python3
"""Desk-scale precision/recall benchmark over all methods.

Runs the fixed-bit grid (every method at the same bit budget) and the
fixed-time grid (hashing baselines granted a bit multiplier as a latency
surrogate) on a synthetic varying-norm dataset, then writes CSV curves and a
JSON summary per regime.

    python3 scripts/run_benchmark.py --n 10000 --d 64 --out-dir results/
"""

import argparse
import os

from quips.evalbench import (ExperimentConfig, run_fixed_bit, run_fixed_time,
                             write_report)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--d", type=int, default=64)
    ap.add_argument("--spread", type=float, default=10.0)
    ap.add_argument("--n-queries", type=int, default=1000)
    ap.add_argument("--bits", type=int, nargs="+", default=[64])
    ap.add_argument("--c", type=int, default=256)
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--methods", nargs="+",
                    default=["quip-cov-x", "quip-cov-q", "quip-opt",
                             "simple-lsh", "signed-alsh", "l2-alsh"])
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    cfg = ExperimentConfig(n=args.n, d=args.d, spread=args.spread,
                           n_queries=args.n_queries, methods=tuple(args.methods),
                           bits=tuple(args.bits), C=args.c, iters=args.iters,
                           seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for regime, runner in (("fixed-bit", run_fixed_bit),
                           ("fixed-time", run_fixed_time)):
        report = runner(cfg)
        prefix = os.path.join(args.out_dir, regime)
        write_report(report, prefix + ".csv", prefix + ".json")
        print(f"{regime}:")
        for key, entry in report["curves"].items():
            p = entry["curve"].precision_at_recall(0.5)
            print(f"  {key:<18} bits={entry['bits']:<4} "
                  f"P@R0.5={p:.3f}  train {entry['train_s']:.2f} s  "
                  f"{entry['query_ms']:.2f} ms/query")


if __name__ == "__main__":
    main()
