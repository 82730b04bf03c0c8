"""Benchmark harness: ground truth, precision-recall curves, fixed-bit and
fixed-time method grids, and the estimator-quality checks (unbiasedness,
per-subspace losses, concentration bound)."""

from __future__ import annotations

import csv
import json
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass

import numpy as np

from . import lsh
from .covariance import SubspaceCovariances, estimate_subspace_covariances, regularize
from .index import (QuipIndex, _float32_codebook, _rank_rows, build_index, build_lookup_table,
                    encode_database, search_batch, table_scores)
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
            if key in _AT_LEAST and not val >= _AT_LEAST[key]:
                raise ValueError(f"config key {key!r} must be >= {_AT_LEAST[key]}; "
                                 f"got {val!r}")
            setattr(cfg, key, tuple(val) if isinstance(val, list) else val)
        if not 0 <= cfg.example_query_fraction <= 1:
            raise ValueError("config key 'example_query_fraction' must lie in [0, 1]; "
                             f"got {cfg.example_query_fraction!r}")
        if not all(type(b) is int and b >= 1 for b in cfg.bits):
            raise ValueError(f"config key 'bits' must list ints >= 1; got {list(cfg.bits)!r}")
        if (cfg.data_path is None) != (cfg.query_path is None):
            raise ValueError("config keys 'data_path' and 'query_path' must be set together")
        return cfg


# JSON types accepted for a config key, by the type of its default
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), tuple: (list,),
               type(None): (str, type(None))}
_AT_LEAST = {"n": 1, "d": 1, "n_queries": 1, "C": 2, "topN": 1, "iters": 1, "lam": 0,
             "fixed_time_multiplier": 1, "seed": 0}


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
        return {**asdict(self), "subspace_losses": [float(x) for x in self.subspace_losses]}


def ground_truth(database: DenseVectorSet, queries: DenseVectorSet, topN: int) -> np.ndarray:
    """Exact top-N ids per query, by one GEMM per block of queries: the scores
    may round otherwise than exact_top_n's GEMV, the ids are its ids."""
    if database.n == 0 or queries.n == 0:
        raise ValueError("empty input")
    tops = _rank_rows(pad_to(queries.data, database.d), database.ids,
                      lambda block: block @ database.data.T, topN)
    return np.fromiter((t.ids for t in tops), (np.int64, min(topN, database.n)), queries.n)


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
    """Train one QUIP variant end to end and freeze it into an index.  By the
    freeze rule the index holds encode_database against its stored float32
    codebook, not training's codes, so quips encode of its rows changes none."""
    spec, dbp, qsp, cov = prepare_training(method, database, example_queries, K, cfg)
    tc = TrainConfig(K=K, C=C, T=cfg.iters, seed=cfg.seed, lam=cfg.lam, J=cfg.J)
    if method == "quip-opt":
        cb = train_quip_opt(dbp, qsp, cov, tc)[0]
    else:
        cb = train_quip(dbp, cov, tc)[0]
    cb = _float32_codebook(cb)
    return build_index(dbp, cb, encode_database(dbp, cb, cov, cb.layout), spec, cov)


def lsh_rankings(method: str, database: DenseVectorSet, queries: DenseVectorSet,
                 b_bits: int, seed: int) -> np.ndarray:
    return _lsh_ranker(method, database, b_bits, seed)(queries)


def _lsh_ranker(method: str, database: DenseVectorSet, b_bits: int, seed: int):
    """Hash the database once; the returned function ranks every row for each query."""
    params = lsh.AlshParams()
    max_norm = float(np.max(np.linalg.norm(database.data, axis=1)))
    scheme = method.replace("-", "_")
    n_hashes = max(b_bits // 8, 1)  # L2 ALSH: one byte of budget per integer hash

    def encode(data: np.ndarray, side: str) -> np.ndarray:
        aug = lsh.augment_set(data, scheme, side, params, max_norm)
        if method == "l2-alsh":
            return lsh.l2_encode(aug, n_hashes, params.r_lsh, seed)
        return lsh.srp_encode(aug, b_bits, seed).packed

    db_codes = encode(database.data, "database")

    def scores_of(block: np.ndarray) -> np.ndarray:
        if method == "l2-alsh":
            return lsh.bucket_match_search(db_codes, block)
        dists = lsh.hamming_search(lsh.BinaryCodeSet(db_codes, b_bits),
                                   lsh.BinaryCodeSet(block, b_bits))
        return np.negative(dists, out=dists)

    def rank(queries: DenseVectorSet) -> np.ndarray:
        tops = _rank_rows(encode(queries.data, "query"), database.ids, scores_of, database.n)
        return np.fromiter((t.ids for t in tops), (np.int64, database.n), queries.n)
    return rank


def _method_curve(method: str, bits: int, db: DenseVectorSet,
                  ex_q: DenseVectorSet, ev_q: DenseVectorSet,
                  truth: np.ndarray, cfg: ExperimentConfig) -> tuple[PRCurve, float, float]:
    """The method's precision-recall curve, its train/encode seconds and ms per query."""
    t0 = time.perf_counter()
    if method in QUIP_METHODS:
        code_bits = int(np.ceil(np.log2(cfg.C)))  # as QuipIndex.bits_per_vector counts
        if bits % code_bits:
            raise ValueError(f"bit budget {bits} not divisible by {code_bits} (C={cfg.C})")
        index = build_quip_pipeline(method, db, ex_q, bits // code_bits, cfg.C, cfg)

        def rank(queries: DenseVectorSet) -> np.ndarray:
            return search_batch(index, queries.data, index.n)[0]
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
    if ev_q.n == 0:
        raise ValueError("config key 'example_query_fraction' leaves no evaluation query")
    needy = [m for m in cfg.methods if m in ("quip-cov-q", "quip-opt")]
    if ex_q.n == 0 and needy:
        raise ValueError("config keys 'example_query_fraction' and 'n_queries' leave no "
                         f"example query, which {needy[0]} needs "
                         f"({cfg.example_query_fraction} x {qs.n} queries rounds to 0)")
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


def write_report(report: dict, csv_path: str, json_path: str) -> dict:
    """Write the curves as CSV and the per-method summary as JSON; return the summary."""
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
    return summary


# ---------------------------------------------------------------------------
# estimator-quality checks


def _pair_errors(index: QuipIndex, queries: DenseVectorSet,
                 db_data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exact, approx) score matrices over all (query, row) pairs.

    db_data must be the preprocessed database rows backing the index; the
    approximate scores are one (K, C, |Q|) table's scan of the codes.
    """
    qp = pad_to(queries.data, index.layout.d_padded)
    exact = qp @ pad_to(db_data, index.layout.d_padded).T
    approx = table_scores(build_lookup_table(qp, index.codebook), index.codes.codes)
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


def _residuals(index: QuipIndex, db_data: np.ndarray) -> Iterator[np.ndarray]:
    """Per subspace in turn, the (n, l) database blocks minus their centroids."""
    layout = index.layout
    dbp = pad_to(db_data, layout.d_padded)
    cents = np.asarray(index.codebook.centroids, dtype=np.float64)
    return (layout.block(dbp, k) - cents[k][index.codes.codes[:, k]] for k in range(layout.K))


def subspace_losses(index: QuipIndex, queries: DenseVectorSet,
                    db_data: np.ndarray) -> np.ndarray:
    """Per-subspace expected squared inner-product quantization error."""
    qp = pad_to(queries.data, index.layout.d_padded)
    return np.array([np.mean(np.sum((index.layout.block(qp, k) @ r.T) ** 2, axis=1))
                     for k, r in enumerate(_residuals(index, db_data))])


def concentration_threshold(queries: np.ndarray, db_data: np.ndarray,
                            percentile: float) -> float:
    """The concentration check's a: that percentile of the positive q . x."""
    exact = queries @ db_data.T
    positive = exact[exact > 0]
    if positive.size == 0:
        raise DataError("no (query, row) pair has a positive dot product")
    return float(np.percentile(positive, percentile))


def concentration_check(index: QuipIndex, queries: DenseVectorSet,
                        db_data: np.ndarray, a: float,
                        epsilon: float) -> TheoryCheckReport:
    """Empirical rate of large-dot-product pairs whose approximation misses the
    relative-epsilon band, against the variance-based upper bound: a union
    bound over the K subspaces, with Chebyshev for each at epsilon*a/K, gives
    K^3 max_k loss_k / (n a^2 epsilon^2), where loss_k / n is subspace k's
    mean squared error per (query, row) pair.  a and epsilon must be finite
    and positive, and n a^2 epsilon^2 must not underflow to 0."""
    if not (0 < a < np.inf and 0 < epsilon < np.inf):  # NaN fails too
        raise ValueError(f"a and epsilon must be finite and positive; got a={a}, "
                         f"epsilon={epsilon}")
    scale = index.n * a * a * epsilon * epsilon
    if scale == 0:
        raise ValueError(f"epsilon={epsilon} is too small: n a^2 epsilon^2 underflows to 0 "
                         f"(a={a}, n={index.n})")
    layout = index.layout
    exact, approx = _pair_errors(index, queries, db_data)
    lo, hi = exact * (1.0 - epsilon), exact * (1.0 + epsilon)
    fails = (exact > a) & ((approx < lo) | (approx > hi))
    rate = float(fails.sum()) / exact.size
    losses = subspace_losses(index, queries, db_data)
    bound = layout.K ** 3 * float(losses.max()) / scale
    qp = pad_to(queries.data, layout.d_padded)
    q_max = max(float(np.max(np.linalg.norm(layout.block(qp, k), axis=1)))
                for k in range(layout.K))
    delta = max(float(np.max(np.linalg.norm(r, axis=1))) for r in _residuals(index, db_data))
    return TheoryCheckReport(a=a, epsilon=epsilon, empirical_failure_rate=rate,
                             variance_bound=bound, subspace_losses=losses,
                             q_max=q_max, delta=delta)
