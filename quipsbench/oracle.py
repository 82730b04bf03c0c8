"""Correctness checks computed by the benchmark's own code.

* ``recompute_top_n`` re-derives a flat top-N from an index's stored
  codebook and codes: float64 lookup table, sum over ascending subspace k,
  order by score descending then id ascending.
* ``exact_top_n_ids`` is the exact ground truth, by blocked float64 matmul.
* ``same_result`` compares two results bit for bit.
"""

from __future__ import annotations

import numpy as np


def _preprocess(q: np.ndarray, kind: str, seed: int, d_padded: int) -> np.ndarray:
    out = np.zeros(d_padded)
    out[: q.shape[0]] = q
    if kind == "identity":
        return out
    if kind == "permutation":
        return out[np.random.default_rng(seed).permutation(d_padded)]
    raise ValueError(f"oracle does not implement preprocess {kind!r}")


def recompute_top_n(index, q: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-N (ids, scores) of one raw query, from index.codebook and index.codes."""
    spec, layout = index.preprocess, index.layout
    qp = _preprocess(np.asarray(q, dtype=np.float64), spec.kind, spec.seed,
                     spec.d_padded)
    codes = np.asarray(index.codes.codes)
    scores = np.zeros(codes.shape[0])
    for k in range(layout.K):
        cents = np.asarray(index.codebook.centroids[k], dtype=np.float64)
        table = qp[k * layout.l:(k + 1) * layout.l] @ cents.T
        scores += table[codes[:, k]]
    order = np.lexsort((index.ids, -scores))[:N]
    return index.ids[order], scores[order]


def same_result(a_ids, a_scores, b_ids, b_scores) -> bool:
    return (np.array_equal(np.asarray(a_ids), np.asarray(b_ids))
            and np.array_equal(np.asarray(a_scores), np.asarray(b_scores)))


def well_formed(ids: np.ndarray, scores: np.ndarray, N: int) -> bool:
    """N distinct ids, scores non-increasing."""
    return (len(ids) == N and len(np.unique(ids)) == N
            and bool(np.all(np.diff(scores) <= 0)))


def exact_top_n_ids(data: np.ndarray, ids: np.ndarray, queries: np.ndarray,
                    N: int, block: int | None = None) -> np.ndarray:
    """Exact top-N ids per query (score descending, id ascending), in blocks of
    queries small enough (~4M scores) to stay far below the program's own
    peak memory."""
    block = block or max(1, 4_000_000 // data.shape[0])
    out = np.empty((queries.shape[0], N), dtype=np.int64)
    for lo in range(0, queries.shape[0], block):
        scores = queries[lo:lo + block] @ data.T
        cand = np.argpartition(-scores, N - 1, axis=1)[:, :N]
        for r in range(scores.shape[0]):
            # widen to every row tied with the N-th best before ordering
            cut = scores[r, cand[r]].min()
            rows = np.flatnonzero(scores[r] >= cut)
            order = np.lexsort((ids[rows], -scores[r, rows]))[:N]
            out[lo + r] = ids[rows[order]]
    return out


def recall(results: list[np.ndarray], truth: np.ndarray) -> tuple[float, int]:
    """Mean |result & truth| / |truth| over queries, and the total hit count."""
    hits = [len(np.intersect1d(r, t)) for r, t in zip(results, truth)]
    return float(np.sum(hits)) / truth.size, int(np.sum(hits))
