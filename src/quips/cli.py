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
from .index import build_index, encode_database, load_index, save_index, search_batch
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


def _load_for(d: int, path: str, fmt: str):
    """The vectors in path, which must be d wide: as wide as the index's raw rows."""
    vs = load_vectors(path, fmt)
    if vs.d != d:
        raise DataError(f"{path}: {vs.d} dims, the index wants {d}")
    return vs


def _run(args) -> int:
    # numpy's generators take non-negative seeds only
    if getattr(args, "seed", 0) < 0:
        raise ValueError(f"need --seed >= 0; got --seed {args.seed}")
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
        index = load_index(args.index)
        data = _load_for(index.layout.original_d, args.data, args.format)
        dp = apply_preprocess(data, index.preprocess)
        codes = encode_database(dp, index.codebook, index.cov, index.layout)
        new = build_index(dp, index.codebook, codes, index.preprocess, index.cov)
        out = args.out or args.index
        save_index(new, out)
        print(f"encoded {data.n} vectors -> {out}")
    elif args.command == "search":
        index = load_index(args.index)
        qs = _load_for(index.layout.original_d, args.queries, args.format)
        ids, scores = search_batch(index, qs.data, args.topn)
        with open(args.out, "w", newline="") as f:  # Python scalars format fastest
            w = csv.writer(f)
            w.writerow(["query", "rank", "id", "score"])
            w.writerows([j, r, i, f"{s:.9g}"]
                        for j, row in enumerate(zip(ids.tolist(), scores.tolist()))
                        for r, (i, s) in enumerate(zip(*row)))
        print(f"searched {qs.n} queries -> {args.out}")
    elif args.command == "eval":
        cfg = evalbench.ExperimentConfig.from_json(args.config)
        run = evalbench.run_fixed_bit if args.regime == "fixed-bit" else evalbench.run_fixed_time
        summary = evalbench.write_report(run(cfg), args.out_prefix + ".csv",
                                         args.out_prefix + ".json")
        for key, entry in summary["methods"].items():
            print(f"  {key:<18} bits={entry['bits']:<4} "
                  f"P@R0.5={entry['precision_at_recall_0.5']:.3f}  "
                  f"train {entry['train_s']:.2f} s  {entry['query_ms']:.2f} ms/query")
        print(f"wrote {args.out_prefix}.csv and {args.out_prefix}.json")
    elif args.command == "theory-check":
        index = load_index(args.index)
        data, qs = (_load_for(index.layout.original_d, path, args.format)
                    for path in (args.data, args.queries))
        if data.n != index.n:
            raise DataError(f"{args.data}: {data.n} rows, the index holds {index.n}")
        dp, qp = (apply_preprocess(vs, index.preprocess) for vs in (data, qs))
        a = evalbench.concentration_threshold(qp.data, dp.data, args.a_percentile)
        report = evalbench.concentration_check(index, qp, dp.data, a, args.epsilon)
        # reported, not checked: the freeze rule's re-encode and quip-opt's
        # gradient step move centroids off the cell mean that unbiasedness needs
        bias = evalbench.unbiasedness_check(index, qp, dp.data, samples=100_000)
        print(json.dumps({**report.to_dict(), "unbiasedness": bias}, indent=2))
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
        # the partitioner's own check, made before the codebook is trained
        if not 1 <= args.partitions <= db.n:
            raise ValueError(f"need 1 <= P <= n; got P={args.partitions}, n={db.n}")
        qs = _load_for(db.d, args.queries, args.format) if args.queries else None
        flat = evalbench.build_quip_pipeline("quip-cov-x", db, None, args.k, args.c,
                                             evalbench.ExperimentConfig(iters=30, seed=args.seed))
        pindex = build_hybrid(apply_preprocess(db, flat.preprocess), args.partitions, flat.cov,
                              None, flat.preprocess, args.seed,
                              shared_codebook=flat.codebook, shared_codes=flat.codes)
        # the CLI loads ids as row numbers, so the ids are each partition's rows;
        # savez given a path would append ".npz" to it, given a file it does not
        with open(args.out, "wb") as f:
            np.savez(f, centers=pindex.centers, members=pindex.ids.astype(np.int64),
                     offsets=pindex.offsets)
        if qs is not None:
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
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
