"""Benchmark harness: ground truth, precision-recall curves, fixed-bit and
fixed-time method grids, and the estimator-quality checks (unbiasedness,
per-subspace losses, concentration bound)."""

from __future__ import annotations

import csv
import functools
import json
import time
from dataclasses import dataclass

import numpy as np

from . import lsh
from .covariance import SubspaceCovariances, estimate_subspace_covariances, regularize
from .index import (QuipIndex, build_index, exact_top_n, search_batch,
                    stack_lookup_tables, table_scores)
from .train import TrainConfig, train_quip, train_quip_opt
from .vecstore import (DataError, DenseVectorSet, PreprocessSpec, apply_preprocess,
                       make_chunk_layout, make_preprocess, pad_to)

QUIP_METHODS = ("quip-cov-x", "quip-cov-q", "quip-opt")
LSH_METHODS = ("simple-lsh", "signed-alsh", "l2-alsh")


@dataclass
class ExperimentConfig:
    n: int = 10000
    d: int = 64
    spread: float = 10.0
    n_queries: int = 1000
    example_query_fraction: float = 0.5
    methods: tuple = QUIP_METHODS + ("simple-lsh",)
    bits: tuple = (64,)
    C: int = 256
    topN: int = 10
    iters: int = 10
    lam: float = 0.01
    J: int = 1000
    fixed_time_multiplier: int = 3
    seed: int = 0
    data_path: str | None = None
    query_path: str | None = None
    data_format: str = "fvecs"
    preprocess: str = "permutation"
    ridge: float = 1e-6

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        """Defaults overridden by a JSON object; a value whose type differs
        from its default's, or out of range, is a ValueError."""
        with open(path) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object; got {type(raw).__name__}")
        cfg = cls()
        for key, val in raw.items():
            if not hasattr(cfg, key):
                raise ValueError(f"unknown config key {key!r}")
            want = _JSON_TYPES[type(getattr(cfg, key))]
            if isinstance(val, bool) or not isinstance(val, want):
                raise ValueError(f"config key {key!r} must be "
                                 f"{' or '.join(t.__name__ for t in want)}; got {val!r}")
            if key in _AT_LEAST and val < _AT_LEAST[key]:
                raise ValueError(f"config key {key!r} must be >= {_AT_LEAST[key]}; "
                                 f"got {val!r}")
            setattr(cfg, key, tuple(val) if isinstance(val, list) else val)
        return cfg


# JSON types accepted for a config key, by the type of its default
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), tuple: (list,),
               type(None): (str, type(None))}
_AT_LEAST = {"n": 1, "d": 1, "C": 1, "topN": 1, "iters": 1, "lam": 0}


@dataclass(frozen=True)
class PRCurve:
    """Averaged precision/recall per candidate-list prefix length."""

    lengths: np.ndarray  # (M,) int
    precision: np.ndarray
    recall: np.ndarray

    def precision_at_recall(self, target: float) -> float:
        """Precision at the first prefix reaching the target recall."""
        idx = np.flatnonzero(self.recall >= target)
        if idx.size == 0:
            return 0.0
        return float(self.precision[idx[0]])


@dataclass(frozen=True)
class TheoryCheckReport:
    a: float
    epsilon: float
    empirical_failure_rate: float
    variance_bound: float
    subspace_losses: np.ndarray
    q_max: float
    delta: float

    def to_dict(self) -> dict:
        return {
            "a": self.a, "epsilon": self.epsilon,
            "empirical_failure_rate": self.empirical_failure_rate,
            "variance_bound": self.variance_bound,
            "subspace_losses": [float(x) for x in self.subspace_losses],
            "q_max": self.q_max, "delta": self.delta,
        }


def ground_truth(database: DenseVectorSet, queries: DenseVectorSet, topN: int) -> np.ndarray:
    """Exact top-N ids per query."""
    if database.n == 0 or queries.n == 0:
        raise ValueError("empty input")
    out = np.empty((queries.n, min(topN, database.n)), dtype=np.int64)
    for j in range(queries.n):
        out[j] = exact_top_n(database, queries.data[j], topN).ids
    return out


def precision_recall(ranked: np.ndarray, truth: np.ndarray, topN: int) -> PRCurve:
    """Prefix-sweep curve averaged over queries.

    ranked: (|Q|, M) candidate ids in rank order; truth: (|Q|, topN) exact ids.
    """
    if truth.size == 0:
        raise ValueError("empty truth sets")
    nq, M = ranked.shape
    hits = np.zeros((nq, M), dtype=bool)  # integer counts: the same bits as float
    for j in range(nq):
        hits[j] = np.isin(ranked[j], truth[j])
    cum = np.cumsum(hits, axis=1)
    lengths = np.arange(1, M + 1)
    precision = (cum / lengths).mean(axis=0)
    recall = (cum / truth.shape[1]).mean(axis=0)
    return PRCurve(lengths=lengths, precision=precision, recall=recall)


# ---------------------------------------------------------------------------
# method pipelines


def _load_or_synth(cfg: ExperimentConfig) -> tuple[DenseVectorSet, DenseVectorSet]:
    from .vecstore import generate_synthetic, load_vectors
    if cfg.data_path:
        db = load_vectors(cfg.data_path, cfg.data_format)
        qs = load_vectors(cfg.query_path, cfg.data_format)
    else:
        db = generate_synthetic(cfg.n, cfg.d, cfg.spread, cfg.seed)
        qs = generate_synthetic(cfg.n_queries, cfg.d, cfg.spread, cfg.seed + 1)
    return db, qs


def split_queries(queries: DenseVectorSet, fraction: float,
                  seed: int) -> tuple[DenseVectorSet, DenseVectorSet]:
    """Disjoint (example, evaluation) query split."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(queries.n)
    cut = int(round(queries.n * fraction))
    ex, ev = perm[:cut], perm[cut:]
    return (DenseVectorSet(data=queries.data[ex], ids=queries.ids[ex]),
            DenseVectorSet(data=queries.data[ev], ids=queries.ids[ev]))


def prepare_training(method: str, database: DenseVectorSet,
                     example_queries: DenseVectorSet | None, K: int,
                     cfg: ExperimentConfig) -> tuple[PreprocessSpec, DenseVectorSet,
                                                     DenseVectorSet | None,
                                                     SubspaceCovariances]:
    """Preprocess the inputs and estimate the method's regularized covariance.

    Returns (spec, preprocessed database, preprocessed example queries or
    None, covariance).  quip-cov-x takes its covariance from the database and
    does not use example queries; every other method needs them.
    """
    layout = make_chunk_layout(database.d, K)
    spec, layout = make_preprocess(cfg.preprocess, cfg.seed, layout)
    dbp = apply_preprocess(database, spec)
    if method == "quip-cov-x":
        cov = estimate_subspace_covariances(dbp, layout, source="database")
        return spec, dbp, None, regularize(cov, cfg.ridge)
    if example_queries is None:
        raise DataError(f"{method} requires example queries")
    qsp = apply_preprocess(example_queries, spec)
    cov = estimate_subspace_covariances(qsp, layout, source="example_queries")
    return spec, dbp, qsp, regularize(cov, cfg.ridge)


def build_quip_pipeline(method: str, database: DenseVectorSet,
                        example_queries: DenseVectorSet | None, K: int, C: int,
                        cfg: ExperimentConfig) -> QuipIndex:
    """Train one QUIP variant end to end and freeze it into an index."""
    spec, dbp, qsp, cov = prepare_training(method, database, example_queries, K, cfg)
    tc = TrainConfig(K=K, C=C, T=cfg.iters, seed=cfg.seed, lam=cfg.lam, J=cfg.J)
    if method == "quip-opt":
        cb, codes, _ = train_quip_opt(dbp, qsp, cov, tc)
    else:
        cb, codes, _ = train_quip(dbp, cov, tc)
    return build_index(dbp, cb, codes, spec, cov)


def quip_rankings(index: QuipIndex, queries: DenseVectorSet) -> np.ndarray:
    """Full descending-score id ranking per query."""
    return search_batch(index, queries.data, index.n)[0]


def lsh_rankings(method: str, database: DenseVectorSet, queries: DenseVectorSet,
                 b_bits: int, seed: int) -> np.ndarray:
    return _lsh_ranker(method, database, b_bits, seed)(queries)


def _lsh_ranker(method: str, database: DenseVectorSet, b_bits: int, seed: int):
    """Hash the database once; the returned function ranks a query set."""
    params = lsh.AlshParams(b_bits=b_bits, seed=seed)
    max_norm = float(np.max(np.linalg.norm(database.data, axis=1)))
    scheme = method.replace("-", "_")
    if method == "l2-alsh":
        db_aug = lsh.augment_set(database.data, "l2_alsh", "database", params, max_norm)
        n_hashes = max(b_bits // 8, 1)  # one byte of budget per integer hash
        db_buckets = lsh.l2_encode(db_aug, n_hashes, params.r_lsh, seed)

        def rank_buckets(queries: DenseVectorSet) -> np.ndarray:
            q_aug = lsh.augment_set(queries.data, "l2_alsh", "query", params, max_norm)
            q_buckets = lsh.l2_encode(q_aug, n_hashes, params.r_lsh, seed)
            out = np.empty((queries.n, database.n), dtype=np.int64)
            for j in range(queries.n):
                out[j] = lsh.bucket_match_search(db_buckets, q_buckets[j],
                                                 database.ids, database.n).ids
            return out
        return rank_buckets
    db_aug = lsh.augment_set(database.data, scheme, "database", params, max_norm)
    codes = lsh.srp_encode(db_aug, b_bits, seed, ids=database.ids, scheme=scheme)

    def rank_hamming(queries: DenseVectorSet) -> np.ndarray:
        q_aug = lsh.augment_set(queries.data, scheme, "query", params, max_norm)
        qcodes = lsh.srp_encode(q_aug, b_bits, seed, scheme=scheme)
        out = np.empty((queries.n, database.n), dtype=np.int64)
        for j in range(queries.n):
            qc = lsh.BinaryCodeSet(packed=qcodes.packed[j : j + 1], b_bits=b_bits,
                                   scheme=scheme, ids=np.zeros(1, dtype=np.int64))
            out[j] = lsh.hamming_search(codes, qc, database.n).ids
        return out
    return rank_hamming


def _method_curve(method: str, bits: int, db: DenseVectorSet,
                  ex_q: DenseVectorSet, ev_q: DenseVectorSet,
                  truth: np.ndarray, cfg: ExperimentConfig) -> tuple[PRCurve, float, float]:
    """The method's precision-recall curve, its train/encode seconds and ms per query."""
    t0 = time.perf_counter()
    if method in QUIP_METHODS:
        code_bits = int(np.log2(cfg.C))
        if bits % code_bits:
            raise ValueError(f"bit budget {bits} not divisible by {code_bits} (C={cfg.C})")
        index = build_quip_pipeline(method, db, ex_q, bits // code_bits, cfg.C, cfg)
        rank = functools.partial(quip_rankings, index)
    elif method in LSH_METHODS:
        rank = _lsh_ranker(method, db, bits, cfg.seed)
    else:
        raise ValueError(f"unknown method {method!r}")
    t1 = time.perf_counter()
    ranked = rank(ev_q)
    query_ms = (time.perf_counter() - t1) * 1000.0 / ev_q.n
    return precision_recall(ranked, truth, cfg.topN), t1 - t0, query_ms


def run_fixed_bit(cfg: ExperimentConfig, lsh_multiplier: int = 1) -> dict:
    """Evaluate every configured method at every bit budget on one dataset.

    LSH methods get lsh_multiplier x the bits (the fixed-time surrogate).
    """
    db, qs = _load_or_synth(cfg)
    ex_q, ev_q = split_queries(qs, cfg.example_query_fraction, cfg.seed + 17)
    truth = ground_truth(db, ev_q, cfg.topN)
    report: dict = {"config": {"n": db.n, "d": db.d, "topN": cfg.topN,
                               "lsh_multiplier": lsh_multiplier},
                    "curves": {}}
    for bits in cfg.bits:
        for method in cfg.methods:
            eff_bits = bits * lsh_multiplier if method in LSH_METHODS else bits
            curve, train_s, query_ms = _method_curve(method, eff_bits, db, ex_q, ev_q,
                                                     truth, cfg)
            report["curves"][f"{method}@{bits}"] = {
                "method": method, "bits": int(eff_bits), "budget": int(bits),
                "train_s": train_s, "query_ms": query_ms, "curve": curve,
            }
    return report


def run_fixed_time(cfg: ExperimentConfig) -> dict:
    return run_fixed_bit(cfg, lsh_multiplier=cfg.fixed_time_multiplier)


def write_report(report: dict, csv_path: str, json_path: str) -> None:
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "bits", "budget", "prefix", "recall", "precision"])
        for entry in report["curves"].values():
            curve = entry["curve"]
            for i in range(len(curve.lengths)):
                w.writerow([entry["method"], entry["bits"], entry["budget"],
                            int(curve.lengths[i]), f"{curve.recall[i]:.6f}",
                            f"{curve.precision[i]:.6f}"])
    summary = {"config": report["config"], "methods": {}}
    for key, entry in report["curves"].items():
        summary["methods"][key] = {
            "bits": entry["bits"], "train_s": entry["train_s"],
            "query_ms": entry["query_ms"],
            "precision_at_recall_0.5": entry["curve"].precision_at_recall(0.5),
        }
    with open(json_path, "w") as f:
        json.dump(summary, f, indent=2)


# ---------------------------------------------------------------------------
# estimator-quality checks


def _pair_errors(index: QuipIndex, queries: DenseVectorSet,
                 db_data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exact, approx) score matrices over all (query, row) pairs.

    db_data must be the preprocessed database rows backing the index.
    """
    qp = pad_to(queries.data, index.layout.d_padded)
    exact = qp @ pad_to(db_data, index.layout.d_padded).T
    approx = table_scores(stack_lookup_tables(qp, index.codebook), index.codes.codes)
    return exact, approx


def unbiasedness_check(index: QuipIndex, queries: DenseVectorSet,
                       db_data: np.ndarray, samples: int,
                       seed: int = 0) -> dict:
    """Mean signed error over sampled (q, x) pairs, with its standard error."""
    exact, approx = _pair_errors(index, queries, db_data)
    err = (exact - approx).ravel()
    rng = np.random.default_rng(seed)
    picked = err[rng.integers(0, err.size, size=samples)]
    mean = float(picked.mean())
    se = float(picked.std(ddof=1) / np.sqrt(samples))
    return {"mean_error": mean, "standard_error": se,
            "within_3se": abs(mean) <= 3.0 * se}


def subspace_losses(index: QuipIndex, queries: DenseVectorSet,
                    db_data: np.ndarray) -> np.ndarray:
    """Per-subspace expected squared inner-product quantization error."""
    layout = index.layout
    qp = pad_to(queries.data, layout.d_padded)
    dbp = pad_to(db_data, layout.d_padded)
    cents = np.asarray(index.codebook.centroids, dtype=np.float64)
    out = np.empty(layout.K)
    for k in range(layout.K):
        resid = layout.block(dbp, k) - cents[k][index.codes.codes[:, k]]
        z = layout.block(qp, k) @ resid.T  # (|Q|, n)
        out[k] = float(np.mean(np.sum(z ** 2, axis=1)))
    return out


def concentration_check(index: QuipIndex, queries: DenseVectorSet,
                        db_data: np.ndarray, a: float,
                        epsilon: float) -> TheoryCheckReport:
    """Empirical rate of large-dot-product pairs whose approximation misses the
    relative-epsilon band, against the variance-based upper bound."""
    if a <= 0 or epsilon <= 0:
        raise ValueError("a and epsilon must be positive")
    layout = index.layout
    exact, approx = _pair_errors(index, queries, db_data)
    big = exact > a
    lo, hi = exact * (1.0 - epsilon), exact * (1.0 + epsilon)
    fails = big & ((approx < lo) | (approx > hi))
    rate = float(fails.sum()) / exact.size
    losses = subspace_losses(index, queries, db_data)
    n = index.n
    bound = (layout.K ** 3) * float(losses.max()) / (n * a * a * epsilon * epsilon)
    qp = pad_to(queries.data, layout.d_padded)
    q_max = max(float(np.max(np.linalg.norm(layout.block(qp, k), axis=1)))
                for k in range(layout.K))
    dbp = pad_to(db_data, layout.d_padded)
    cents = np.asarray(index.codebook.centroids, dtype=np.float64)
    delta = max(float(np.max(np.linalg.norm(
        layout.block(dbp, k) - cents[k][index.codes.codes[:, k]], axis=1)))
        for k in range(layout.K))
    return TheoryCheckReport(a=a, epsilon=epsilon, empirical_failure_rate=rate,
                             variance_bound=bound, subspace_losses=losses,
                             q_max=q_max, delta=delta)
