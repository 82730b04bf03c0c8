#!/usr/bin/env python3
"""Estimator-quality report for a trained index on synthetic data.

Trains one index per covariance source, then prints the unbiasedness check
(mean signed error vs its standard error), the per-subspace losses, and the
concentration report (empirical failure rate vs the variance bound).

    python3 scripts/run_theory_checks.py --n 2000 --d 32 --k 4 --c 16
"""

import argparse
import json

from quips.evalbench import (ExperimentConfig, build_quip_pipeline, concentration_check,
                             concentration_threshold, unbiasedness_check)
from quips.train import TrainConfig
from quips.vecstore import generate_synthetic


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--d", type=int, default=32)
    ap.add_argument("--k", type=int, default=4)
    ap.add_argument("--c", type=int, default=16)
    ap.add_argument("--n-queries", type=int, default=200)
    ap.add_argument("--spread", type=float, default=10.0)
    ap.add_argument("--epsilon", type=float, default=0.2)
    ap.add_argument("--a-percentile", type=float, default=70.0)
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    db = generate_synthetic(args.n, args.d, args.spread, args.seed)
    qs = generate_synthetic(args.n_queries, args.d, args.spread, args.seed + 1)
    a = concentration_threshold(qs.data, db.data, args.a_percentile)
    # identity preprocessing, so the raw rows are the ones the index encodes
    cfg = ExperimentConfig(seed=args.seed, preprocess="identity", ridge=1e-6,
                           iters=TrainConfig().T)

    for method in ("quip-cov-x", "quip-cov-q"):
        index = build_quip_pipeline(method, db, qs, args.k, args.c, cfg)
        print(f"== covariance source: {index.cov.source}")
        bias = unbiasedness_check(index, qs, db.data, args.samples, args.seed)
        print(f"  mean signed error {bias['mean_error']:+.3e} "
              f"(SE {bias['standard_error']:.3e}, "
              f"within 3 SE: {bias['within_3se']})")
        rep = concentration_check(index, qs, db.data, a=a, epsilon=args.epsilon)
        print(json.dumps(rep.to_dict(), indent=2))
        ok = rep.empirical_failure_rate <= min(1.0, rep.variance_bound)
        print(f"  failure rate within bound: {ok}")


if __name__ == "__main__":
    main()
