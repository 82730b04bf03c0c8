"""Command-line entry point.

Subcommands: synth, train, encode, search, eval, theory-check, hybrid-train.
Exit codes: 0 success, 1 usage error, 2 data error, 3 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import evalbench
from .index import build_index, load_index, save_index, search_batch
from .train import TrainConfig
from .vecstore import DataError, apply_preprocess, generate_synthetic, load_vectors, save_fvecs


class InvariantViolation(RuntimeError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quips")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate a synthetic vector file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--spread", type=float, default=10.0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("train", help="train a codebook and build an index")
    sp.add_argument("--method", required=True,
                    choices=["quip-cov-x", "quip-cov-q", "quip-opt"])
    sp.add_argument("--data", required=True)
    sp.add_argument("--queries", help="example queries (cov-q / opt)")
    sp.add_argument("--format", default="fvecs", choices=["fvecs", "csv"])
    sp.add_argument("--k", type=int, default=8)
    sp.add_argument("--c", type=int, default=256)
    sp.add_argument("--iters", type=int, default=30)
    sp.add_argument("--lambda", dest="lam", type=float, default=0.01)
    sp.add_argument("--j", type=int, default=1000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--preprocess", default="permutation",
                    choices=["identity", "permutation", "hadamard_rotation"])
    sp.add_argument("--ridge", type=float, default=1e-6)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("encode", help="re-encode vectors with an index's codebook")
    sp.add_argument("--index", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--format", default="fvecs", choices=["fvecs", "csv"])
    sp.add_argument("--out", help="defaults to overwriting --index")

    sp = sub.add_parser("search", help="top-N search over an index")
    sp.add_argument("--index", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--format", default="fvecs", choices=["fvecs", "csv"])
    sp.add_argument("--topn", type=int, default=10)
    sp.add_argument("--out", required=True)

    sp = sub.add_parser("eval", help="fixed-bit / fixed-time method grids")
    sp.add_argument("--config", required=True)
    sp.add_argument("--regime", default="fixed-bit",
                    choices=["fixed-bit", "fixed-time"])
    sp.add_argument("--out-prefix", default="report")

    sp = sub.add_parser("theory-check", help="estimator concentration report")
    sp.add_argument("--index", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--queries", required=True)
    sp.add_argument("--format", default="fvecs", choices=["fvecs", "csv"])
    sp.add_argument("--a-percentile", type=float, default=70.0)
    sp.add_argument("--epsilon", type=float, default=0.2)

    sp = sub.add_parser("hybrid-train", help="partitioned index")
    sp.add_argument("--data", required=True)
    sp.add_argument("--queries")
    sp.add_argument("--format", default="fvecs", choices=["fvecs", "csv"])
    sp.add_argument("--partitions", type=int, required=True)
    sp.add_argument("--probe", type=int, default=10)
    sp.add_argument("--topn", type=int, default=10)
    sp.add_argument("--k", type=int, default=8)
    sp.add_argument("--c", type=int, default=256)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    return p


def _run(args) -> int:
    if args.command == "synth":
        save_fvecs(generate_synthetic(args.n, args.d, args.spread, args.seed),
                   args.out)
        print(f"wrote {args.n} x {args.d} vectors to {args.out}")
    elif args.command == "train":
        db = load_vectors(args.data, args.format)
        qs = load_vectors(args.queries, args.format) if args.queries else None
        cfg = evalbench.ExperimentConfig(iters=args.iters, lam=args.lam, J=args.j,
                                         seed=args.seed, preprocess=args.preprocess,
                                         ridge=args.ridge)
        save_index(evalbench.build_quip_pipeline(args.method, db, qs, args.k, args.c, cfg),
                   args.out)
        print(f"trained {args.method}: n={db.n} K={args.k} C={args.c} -> {args.out}")
    elif args.command == "encode":
        from .index import encode_database
        index = load_index(args.index)
        data = load_vectors(args.data, args.format)
        dp = apply_preprocess(data, index.preprocess)
        codes = encode_database(dp, index.codebook, index.cov, index.layout)
        new = build_index(dp, index.codebook, codes, index.preprocess, index.cov)
        out = args.out or args.index
        save_index(new, out)
        print(f"encoded {data.n} vectors -> {out}")
    elif args.command == "search":
        index = load_index(args.index)
        qs = load_vectors(args.queries, args.format)
        if qs.d != index.layout.original_d:
            raise DataError(f"{args.queries}: queries have {qs.d} dims, "
                            f"the index wants {index.layout.original_d}")
        ids, scores = search_batch(index, qs.data, args.topn)
        with open(args.out, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["query", "rank", "id", "score"])
            for j in range(qs.n):
                for r, (i, s) in enumerate(zip(ids[j], scores[j])):
                    w.writerow([j, r, int(i), f"{s:.9g}"])
        print(f"searched {qs.n} queries -> {args.out}")
    elif args.command == "eval":
        cfg = evalbench.ExperimentConfig.from_json(args.config)
        if args.regime == "fixed-bit":
            report = evalbench.run_fixed_bit(cfg)
        else:
            report = evalbench.run_fixed_time(cfg)
        evalbench.write_report(report, args.out_prefix + ".csv",
                               args.out_prefix + ".json")
        print(f"wrote {args.out_prefix}.csv and {args.out_prefix}.json")
    elif args.command == "theory-check":
        index = load_index(args.index)
        data = load_vectors(args.data, args.format)
        qs = load_vectors(args.queries, args.format)
        dp = apply_preprocess(data, index.preprocess)
        qp = apply_preprocess(qs, index.preprocess)
        exact = qp.data @ dp.data.T
        a = float(np.percentile(exact, args.a_percentile))
        if a <= 0:
            raise DataError("a-percentile of dot products is not positive")
        report = evalbench.concentration_check(index, qp, dp.data, a, args.epsilon)
        print(json.dumps(report.to_dict(), indent=2))
        if report.empirical_failure_rate > min(1.0, report.variance_bound) + 1e-12:
            raise InvariantViolation("empirical failure rate exceeds the variance bound")
    elif args.command == "hybrid-train":
        from .hybrid import build_hybrid, hybrid_search
        if args.queries and not 1 <= args.probe <= args.partitions:
            raise ValueError(f"need 1 <= --probe <= --partitions; got --probe {args.probe}, "
                             f"--partitions {args.partitions}")
        if args.queries and args.topn < 1:
            raise ValueError(f"need --topn >= 1; got {args.topn}")
        db = load_vectors(args.data, args.format)
        spec, dbp, _, cov = evalbench.prepare_training(
            "quip-cov-x", db, None, args.k,
            evalbench.ExperimentConfig(seed=args.seed, preprocess="permutation", ridge=1e-6))
        cfg = TrainConfig(K=args.k, C=args.c, seed=args.seed)
        pindex = build_hybrid(dbp, args.partitions, cov, cfg, spec, args.seed)
        # the CLI loads ids as row numbers, so the ids are each partition's rows;
        # savez given a path would append ".npz" to it, given a file it does not
        with open(args.out, "wb") as f:
            np.savez(f, centers=pindex.centers, members=pindex.ids, offsets=pindex.offsets)
        if args.queries:
            qs = load_vectors(args.queries, args.format)
            res, scanned = hybrid_search(pindex, qs.data[0], args.topn, args.probe)
            print(f"probe={args.probe}: scanned {scanned}/{db.n} candidates "
                  f"for query 0; top id {int(res.ids[0])}")
        print(f"partitioned {db.n} vectors into {args.partitions} -> {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return _run(args)
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except (DataError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
