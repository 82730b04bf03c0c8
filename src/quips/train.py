"""Codebook learning.

Two trainers share one loop:
  * train_quip - per-subspace Lloyd iteration under the Mahalanobis metric given
    by a non-centered second-moment matrix (database- or query-estimated).
  * train_quip_opt - the same quadratic objective plus a hinge penalty on
    top-1 order inversions mined from a sample of example queries; each
    iteration also mines constraints, adds the penalty to the assignment, and
    follows the cell-mean stationary point with one gradient step on the hinge
    term.  Without constraints it is train_quip.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .covariance import SubspaceCovariances
from .vecstore import ChunkLayout, DenseVectorSet, pad_to


@dataclass(frozen=True)
class Codebook:
    """K x C x l centroid tensor; centroids[k][c] quantizes block k."""

    layout: ChunkLayout
    centroids: np.ndarray  # (K, C, l) float64

    @property
    def C(self) -> int:
        return self.centroids.shape[1]


@dataclass(frozen=True)
class CodeMatrix:
    """One centroid index per (vector, subspace)."""

    codes: np.ndarray  # (n, K) ints: int32 from training, code_dtype(C) in an index

    @property
    def n(self) -> int:
        return self.codes.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Training settings; out-of-range values raise ValueError."""

    K: int = 8
    C: int = 256
    T: int = 30
    seed: int = 0
    lam: float = 0.01
    J: int = 1000
    convergence_tol: float = 1e-9

    def __post_init__(self):
        for name, least in (("K", 1), ("C", 1), ("T", 1), ("J", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"need {name} >= {least}; got {getattr(self, name)}")
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"need a finite lam >= 0; got {self.lam}")
        if not self.convergence_tol >= 0:
            raise ValueError(f"need convergence_tol >= 0; got {self.convergence_tol}")

    def eta(self, t: int) -> float:
        """Gradient step size at iteration t."""
        return 1.0 / (1.0 + t)


@dataclass(frozen=True)
class ConstraintTriplet:
    """An order inversion: exact score favors pos, quantized score favors neg.

    Indices are row positions in the query / database sets they were mined from.
    """

    query_id: int
    pos_id: int
    neg_id: int


# Assignment walks the database in row tiles of about this many (row, centroid)
# costs (128 rows at C=256), so a tile's costs stay in L2 and no (n, C) array
# is ever built.  At l <= 8 a tile's GEMM is at most 65,536 x 4 multiply-adds,
# which OpenBLAS runs on its calling thread, so the subspaces that
# _per_subspace runs on several threads do not contend for BLAS's own threads.
_TILE_COSTS = 1 << 15
# Constraint mining scores this many queries per GEMM and per table scan.
_MINE_QUERIES = 64


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _per_subspace(fn, K: int) -> list:
    """[fn(0), ..., fn(K-1)], computed on min(cores, K) threads.

    Each fn(k) must read and write only subspace k's data, so the results
    are the serial loop's bit for bit.  With one core it is that loop on the
    calling thread.  Otherwise the threads are made for this call and gone
    when it returns, so nested calls and forked children need no care; the
    lowest failing k's error is raised once every started fn(k) has returned.
    """
    workers = min(_usable_cores(), K)
    if workers <= 1:
        return [fn(k) for k in range(K)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers, thread_name_prefix="quips") as pool:
        return list(pool.map(fn, range(K)))


def _assign_tile_rows(C: int) -> int:
    """Rows per assignment tile against C centroids."""
    return max(2, _TILE_COSTS // max(C, 1))


def _row_tiles(n: int, size: int) -> list[tuple[int, int]]:
    """[lo, hi) ranges of `size` rows covering range(n).

    A one-row remainder joins the previous tile: a one-row product goes
    through BLAS gemv, which rounds differently from a GEMM.  On OpenBLAS the
    rows of a GEMM over a row block have matched the whole product's rows at
    every inner width up to 32 tried (tests/test_train.py pins the library's
    shapes), so tiled kernels reproduce whole-matrix results bit for bit
    there; at width 64 with few columns they can differ in the last bit.
    """
    bounds = list(range(0, n, size)) + [n]
    if n > 1 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _assign_codes(blocks: np.ndarray, centroids: np.ndarray, sigma: np.ndarray,
                  rows: np.ndarray | None = None,
                  penalty: np.ndarray | None = None) -> np.ndarray:
    """argmin_c of (x - U_c)^T Sigma (x - U_c) less the per-row constant
    x^T Sigma x, one row tile at a time; ties go to the lowest c.

    Sigma U_c and U_c^T Sigma U_c are computed once, so a row costs O(C*l).
    Each tile is one GEMM against -2 Sigma U (scaling by a power of two is
    exact, so the costs equal quad - 2 x Sigma U bit for bit) plus quad, in
    one reused buffer; quad is added from a tile-shaped copy, about twice as
    fast as broadcasting it.  penalty[i] is added to the costs of row
    rows[i] (rows ascending and unique).
    """
    if blocks.shape[1] != centroids.shape[1]:
        raise ValueError("block width does not match centroid width")
    su = centroids @ sigma  # (C, l)
    quad = np.einsum("cl,cl->c", su, centroids)  # U_c^T Sigma U_c
    weights = (-2.0 * su).T
    n, C = blocks.shape[0], centroids.shape[0]
    size = _assign_tile_rows(C)
    codes = np.empty(n, dtype=np.int32)
    buf = np.empty((min(n, size + 1), C))
    quad_rows = np.broadcast_to(quad, buf.shape).copy()
    for lo, hi in _row_tiles(n, size):
        costs = np.matmul(blocks[lo:hi], weights, out=buf[:hi - lo])
        costs += quad_rows[:hi - lo]
        if rows is not None:
            a, b = np.searchsorted(rows, (lo, hi))
            costs[rows[a:b] - lo] += penalty[a:b]
        codes[lo:hi] = np.argmin(costs, axis=1)
    return codes


def mahalanobis_assign(blocks: np.ndarray, centroids: np.ndarray,
                       sigma: np.ndarray) -> np.ndarray:
    """argmin_c (x - U_c)^T Sigma (x - U_c) per row; ties go to the lowest c."""
    return _assign_codes(blocks, centroids, sigma)


def _cell_stats(blocks: np.ndarray, codes: np.ndarray,
                C: int) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's row count n_c, shape (C,), and row sum S_c, shape (C, l).

    A weighted bincount adds each column's rows in ascending row order, so
    the sums equal a sequential accumulation bit for bit.
    """
    counts = np.bincount(codes, minlength=C)
    sums = np.stack([np.bincount(codes, weights=col, minlength=C) for col in blocks.T],
                    axis=1)
    return counts, sums


def _cell_means(counts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """S_c / n_c per nonempty cell, zero elsewhere, and the empty cells."""
    empty = np.flatnonzero(counts == 0).tolist()
    nz = counts > 0
    centroids = np.zeros_like(sums)
    centroids[nz] = sums[nz] / counts[nz, None]
    return centroids, empty


def update_centroids(blocks: np.ndarray, codes: np.ndarray,
                     C: int) -> tuple[np.ndarray, list[int]]:
    """Euclidean mean per nonempty cell; empty cells reported, not filled."""
    return _cell_means(*_cell_stats(blocks, codes, C))


def _maha_sq(blocks: np.ndarray, centroids: np.ndarray, codes: np.ndarray,
             sigma: np.ndarray) -> np.ndarray:
    """(x - u_x)^T Sigma (x - u_x) per row, summing the l*l terms in (l, m) order.

    The residuals are laid out column-major, so einsum's inner loop runs
    along the rows; the per-row sums are those of the row-major layout.
    """
    diff = np.asfortranarray(blocks - centroids[codes])
    return np.einsum("nl,lm,nm->n", diff, sigma, diff)


def subspace_objective(blocks: np.ndarray, centroids: np.ndarray,
                       codes: np.ndarray, sigma: np.ndarray) -> float:
    """sum_x (x - u_x)^T Sigma (x - u_x) for one subspace."""
    return float(np.sum(_maha_sq(blocks, centroids, codes, sigma)))


# At or below this share of X = sum_x x^T Sigma x, _cell_objective recomputes
# the objective from the residuals.  The cell-statistics formula cancels down
# from X: its rounding has measured up to 6 ulps of X, so above the guard it
# is at most about 1e-11 of the value, far under the default convergence_tol,
# while below it an exact codebook would read a few ulps of X and not 0.0,
# and the zero-objective stop would not fire.  Codebooks of real data sit far
# above it (0.3-0.4 of X per subspace on the benchmark's workloads).
_CANCEL_SHARE = 1e-4


def _cell_objective(xsx: float, counts: np.ndarray, sums: np.ndarray,
                    centroids: np.ndarray, sigma: np.ndarray, blocks: np.ndarray,
                    codes: np.ndarray) -> float:
    """subspace_objective(blocks, centroids, codes, sigma) from the cells'
    statistics (codes' counts and sums): X - 2 sum_c S_c^T Sigma u_c
    + sum_c n_c u_c^T Sigma u_c, with xsx = X, in O(C l^2).

    Empty cells add nothing.  At or below _CANCEL_SHARE * X the residual sum
    itself is returned.
    """
    su = centroids @ sigma
    value = (xsx - 2.0 * float(np.vdot(sums, su))
             + float(counts @ np.einsum("cl,cl->c", su, centroids)))
    if value <= _CANCEL_SHARE * xsx:
        return subspace_objective(blocks, centroids, codes, sigma)
    return value


def _init_centroids(blocks: np.ndarray, C: int, seed: int, k: int) -> np.ndarray:
    rng = np.random.default_rng([seed, k])
    idx = rng.choice(blocks.shape[0], size=C, replace=False)
    return blocks[idx].copy()


def _reseed_empty(centroids: np.ndarray, empty: list[int], blocks: np.ndarray,
                  codes: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Move each empty cell's centroid onto the member farthest from its own.

    Empty cells contribute nothing to the objective, so this is cost-neutral.
    """
    if not empty:
        return centroids
    dist = _maha_sq(blocks, centroids, codes, sigma)
    centroids[empty] = blocks[np.argsort(-dist, kind="stable")[:len(empty)]]
    return centroids


def _blocks_of(data: np.ndarray, layout: ChunkLayout) -> np.ndarray:
    """The K blocks of the padded rows as one C-contiguous (K, n, l) tensor:
    one allocation, and block k is a contiguous (n, l) view."""
    padded = pad_to(data, layout.d_padded)
    return np.ascontiguousarray(
        padded.reshape(len(padded), layout.K, layout.l).transpose(1, 0, 2))


# ---------------------------------------------------------------------------
# constrained variant


def find_violated_constraints(codebook: Codebook, codes: CodeMatrix,
                              database: DenseVectorSet, queries: DenseVectorSet,
                              layout: ChunkLayout, J: int, seed: int,
                              top1: dict[int, np.ndarray] | None = None
                              ) -> list[ConstraintTriplet]:
    """Mine up to J top-1 order inversions, one per query, in seeded query order.

    For each query, pos is the exact argmax over the database; neg is the
    database row with the highest quantized score among those that beat pos's
    quantized score, the first such row on a tie.  Queries go in blocks of
    _MINE_QUERIES: one GEMM gives a block's exact scores and the index's
    scorer (one (K, C, B) table, one scan) its quantized scores, so no
    (|Q|, n) array is built; blocks stop once J inversions are found.  Both
    sets' rows must be layout.d_padded wide, as preprocessing leaves them.  top1 memoizes each
    block's exact argmax by block start; a training run passes one dict to
    every round, since its database, queries and seed do not change.
    """
    from .index import build_lookup_table, table_scores

    for name, vs in (("database", database), ("queries", queries)):
        if vs.d != layout.d_padded:
            raise ValueError(f"{name} rows are {vs.d} wide; mining needs "
                             f"layout.d_padded = {layout.d_padded}")
    db, qd = database.data, queries.data
    top1 = {} if top1 is None else top1
    order = np.random.default_rng([seed, 104729]).permutation(queries.n)
    out: list[ConstraintTriplet] = []
    for lo, hi in _row_tiles(len(order), _MINE_QUERIES):
        if len(out) >= J:
            break
        block = qd[order[lo:hi]]
        if lo not in top1:
            top1[lo] = np.argmax(block @ db.T, axis=1)
        best = top1[lo]
        scores = table_scores(build_lookup_table(block, codebook), codes.codes)
        # the first row at a query's quantized maximum is its strongest violator
        # whenever that maximum beats pos's score
        rows = np.arange(len(block))
        neg = scores.argmax(axis=1)
        hit = np.flatnonzero(scores[rows, neg] > scores[rows, best])[:J - len(out)]
        out += [ConstraintTriplet(query_id=int(order[lo + i]), pos_id=int(best[i]),
                                  neg_id=int(neg[i])) for i in hit]
    return out


def _triplet_rows(triplets: list[ConstraintTriplet]) -> np.ndarray:
    """Database rows [neg_0, pos_0, neg_1, pos_1, ...]."""
    return np.array([(t.neg_id, t.pos_id) for t in triplets], dtype=np.intp).reshape(-1)


def _add_signed(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """out[rows[2j]] += values[j], then out[rows[2j+1]] -= values[j], for
    ascending j: np.add.at adds in index order, so this equals that loop."""
    np.add.at(out, rows, np.stack([values, -values], axis=1).reshape(-1, out.shape[1]))


def constrained_assign(blocks: np.ndarray, centroids: np.ndarray, sigma: np.ndarray,
                       triplets: list[ConstraintTriplet], lam: float,
                       query_block: np.ndarray) -> np.ndarray:
    """Mahalanobis assignment plus the hinge-derived per-vector penalty.

    Vectors appearing in no triplet get exactly the unpenalized assignment.
    query_block holds the mined queries' components in this subspace.  The
    penalty has one row per distinct vector named in a triplet, accumulated
    in triplet order; each q_j . U_c is its own (C, l) @ (l,) product in one
    broadcast matmul, since one GEMM over the queries would round differently.
    """
    if not triplets or lam == 0.0:
        return mahalanobis_assign(blocks, centroids, sigma)
    rows, slot = np.unique(_triplet_rows(triplets), return_inverse=True)
    qtu = np.matmul(centroids, query_block[:len(triplets), :, None])[..., 0]
    penalty = np.zeros((len(rows), centroids.shape[0]))
    _add_signed(penalty, slot, lam * qtu)
    return _assign_codes(blocks, centroids, sigma, rows, penalty)


def _hinge_gradient(centroids: np.ndarray, codes: np.ndarray,
                    triplets: list[ConstraintTriplet], lam: float,
                    query_block: np.ndarray) -> np.ndarray:
    """Hinge subgradient for every centroid of one subspace, shape (C, l):
    lam sum_j q_j (1[neg_j in c] - 1[pos_j in c]), accumulated in triplet order.
    """
    grad = np.zeros(centroids.shape)
    _add_signed(grad, codes[_triplet_rows(triplets)],
                lam * query_block[:len(triplets)])
    return grad


def centroid_gradient(c: int, centroids: np.ndarray, codes: np.ndarray,
                      blocks: np.ndarray, sigma: np.ndarray,
                      triplets: list[ConstraintTriplet], lam: float,
                      query_block: np.ndarray) -> np.ndarray:
    """Gradient of the penalized objective w.r.t. centroid c in one subspace:
    2 Sigma sum_{x in cell c} (U_c - x) + lam sum_j q_j (1[neg_j in c] - 1[pos_j in c]).
    """
    members = blocks[codes == c]
    grad = np.zeros(blocks.shape[1])
    if len(members):
        grad = 2.0 * (sigma @ (len(members) * centroids[c] - members.sum(axis=0)))
    return grad + _hinge_gradient(centroids, codes, triplets, lam, query_block)[c]


def penalized_objective(cents: np.ndarray, codes: np.ndarray,
                        db_blocks: np.ndarray, cov: SubspaceCovariances,
                        triplets: list[ConstraintTriplet],
                        q_blocks: np.ndarray, lam: float) -> float:
    """Quadratic quantization error plus the hinge penalty over mined triplets;
    cents, db_blocks and q_blocks are indexed by subspace first."""
    K = len(cents)
    obj = sum(_per_subspace(lambda k: subspace_objective(
        db_blocks[k], cents[k], codes[:, k], cov.matrices[k]), K))
    qid, pos, neg = np.array([(t.query_id, t.pos_id, t.neg_id) for t in triplets],
                             dtype=np.intp).reshape(-1, 3).T
    # each triplet's margin adds its K partial dot products in ascending k; a
    # stacked (1, l) @ (l, 1) matmul gives each the bits of its own q @ diff
    margins = np.zeros(len(triplets))
    for k in range(K):
        diff = cents[k][codes[neg, k]] - cents[k][codes[pos, k]]
        margins += np.matmul(q_blocks[k][qid][:, None, :], diff[:, :, None])[:, 0, 0]
    for margin in margins.tolist():
        obj += lam * max(margin, 0.0)
    return obj


# ---------------------------------------------------------------------------
# training


def train_quip(database: DenseVectorSet, cov: SubspaceCovariances,
               cfg: TrainConfig) -> tuple[Codebook, CodeMatrix, list[dict]]:
    """Lloyd alternation per subspace; the variant is set by cov.source."""
    return _train(database, None, cov, cfg)


def train_quip_opt(database: DenseVectorSet, example_queries: DenseVectorSet,
                   cov: SubspaceCovariances,
                   cfg: TrainConfig) -> tuple[Codebook, CodeMatrix, list[dict]]:
    """train_quip plus, each iteration, mined inversions and the hinge term.

    Takes preprocessed rows, layout.d_padded wide, as mining requires.  At
    lam=0 or J=0 it mines nothing and returns train_quip's results bit for bit.
    """
    return _train(database, example_queries, cov, cfg)


def _train(database: DenseVectorSet, queries: DenseVectorSet | None,
           cov: SubspaceCovariances,
           cfg: TrainConfig) -> tuple[Codebook, CodeMatrix, list[dict]]:
    """One loop for both trainers; queries=None, lam=0 or J=0 mines nothing.

    Each iteration mines (if it mines at all), assigns, takes cell means with
    empty cells reseeded and, given triplets, steps down the hinge
    subgradient, halving the step once if the objective rose.  It stops on
    unchanged codes with no triplets, a relative decrease below
    cfg.convergence_tol, or a zero objective.
    """
    layout = cov.layout
    n, K, sigma = database.n, layout.K, cov.matrices
    if n < cfg.C:
        raise ValueError(f"need n >= C; got n={n}, C={cfg.C}")
    blocks = _blocks_of(database.data, layout)
    cents = np.stack([_init_centroids(blocks[k], cfg.C, cfg.seed, k) for k in range(K)])
    codes = np.zeros((n, K), dtype=np.int32)
    triplets: list[ConstraintTriplet] = []
    q_all = mined = blocks[:, :0]
    top1: dict[int, np.ndarray] = {}
    mine = queries is not None and cfg.lam > 0 and cfg.J > 0
    if mine:
        q_all = _blocks_of(queries.data, layout)
        # seed the code state so the first round of mining sees real assignments
        codes[:] = np.stack(_per_subspace(
            lambda k: mahalanobis_assign(blocks[k], cents[k], sigma[k]), K), axis=1)
    trace: list[dict] = []
    prev_obj = 0.0
    xsx: list[float | None] = [None] * K  # sum_x x^T Sigma x per subspace, once a run

    def step(k):
        """Subspace k's codes, reseeded cell means and, with no triplets, its
        objective before and after the update (else penalized_objective's),
        both from the cell statistics that give the means."""
        bk = blocks[k]
        ck = constrained_assign(bk, cents[k], sigma[k], triplets, cfg.lam, mined[k])
        counts, sums = _cell_stats(bk, ck, cfg.C)
        mk = _reseed_empty(*_cell_means(counts, sums), bk, ck, sigma[k])
        if triplets:
            return ck, mk, 0.0, 0.0
        if xsx[k] is None:
            xsx[k] = float(np.einsum("nl,nl->", bk @ sigma[k], bk))
        return ck, mk, *(_cell_objective(xsx[k], counts, sums, u, sigma[k], bk, ck)
                         for u in (cents[k], mk))

    for t in range(cfg.T):
        prev_codes = codes.copy()
        if mine:
            triplets = find_violated_constraints(
                Codebook(layout=layout, centroids=cents), CodeMatrix(codes=codes),
                database, queries, layout, cfg.J, cfg.seed, top1)
            # mined query components, aligned with the triplet list
            qids = np.array([tr.query_id for tr in triplets], dtype=np.intp)
            mined = np.take(q_all, qids, axis=1)
        codes_k, means_k, before_k, after_k = zip(*_per_subspace(step, K))
        codes[:], means = np.stack(codes_k, axis=1), np.stack(means_k)
        # with no triplets penalized_objective is each sum: k ascending, no hinge
        before, obj = sum(before_k), sum(after_k)
        if triplets:
            before = penalized_objective(cents, codes, blocks, cov, triplets, q_all, cfg.lam)
        trace.append({"iteration": t, "phase": "assign", "objective": before,
                      "n_constraints": len(triplets)})
        # without the hinge term the update does not depend on the step
        cents = means
        if triplets:
            grad = np.stack([_hinge_gradient(means[k], codes[:, k], triplets, cfg.lam,
                                             mined[k]) for k in range(K)])
            cents = means - cfg.eta(t) * grad
            obj = penalized_objective(cents, codes, blocks, cov, triplets, q_all, cfg.lam)
        if triplets and obj > before:
            cents = means - cfg.eta(t) / 2.0 * grad
            obj = penalized_objective(cents, codes, blocks, cov, triplets, q_all, cfg.lam)
        trace.append({"iteration": t, "phase": "update", "objective": obj,
                      "n_constraints": 0})
        if ((t > 0 and not triplets and np.array_equal(codes, prev_codes))
                or (prev_obj > 0 and (prev_obj - obj) / prev_obj < cfg.convergence_tol)
                or obj == 0.0):
            break
        prev_obj = obj
    return Codebook(layout=layout, centroids=cents), CodeMatrix(codes=codes), trace
