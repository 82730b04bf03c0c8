"""One slow, obvious QUIP: the model the library is checked against.

Each function stands for one concept of the library and is written the
plain way: whole matrices and straight loops in numpy, with no row tiles,
no threads and no call to the library kernel it stands for.  It uses the
library's dataclasses and makes the seeded draws the library makes (the
preprocessing table, the initial centroids, the mining order, k-means++'s
choices and the hash projections), so where the arithmetic is the same its
results equal the library's bit for bit.  preprocess(), pipeline() and
search() compose the pieces the way evalbench.build_quip_pipeline and
index.search_batch do, and tests/test_reference.py compares the two end to
end.

Not collected by pytest (the name has no test_ prefix); test modules import
it from their own directory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quips.lsh import AlshParams
from quips.train import ConstraintTriplet
from quips.vecstore import DenseVectorSet


def make_set(data, ids=None) -> DenseVectorSet:
    """The rows as float64, with ids 0..n-1 unless given."""
    data = np.asarray(data, dtype=np.float64)
    if ids is None:
        ids = np.arange(len(data), dtype=np.int64)
    return DenseVectorSet(data=data, ids=np.asarray(ids, dtype=np.int64))


def fvecs_bytes(data: np.ndarray) -> bytes:
    """The .fvecs file of the rows, one row at a time: the int32 width d,
    then the row's d float32 values, all little-endian."""
    header = np.array([data.shape[1]], dtype="<i4").tobytes()
    return b"".join(header + row.astype("<f4").tobytes() for row in data)


# ---------------------------------------------------------------------------
# padding and preprocessing


def padded_width(d: int, K: int, kind: str) -> int:
    """The width of K blocks of ceil(d / K) columns, widened by the Hadamard
    rotation to the next power of 2 (which K must divide)."""
    width = K * -(-d // K)
    if kind == "hadamard_rotation":
        width = 1 << (width - 1).bit_length()
        assert width % K == 0, "K must divide a power of 2"
    return width


def preprocess_table(kind: str, seed: int, d_padded: int) -> np.ndarray:
    """The transform's table, drawn from seed: 0..d_padded-1, a column
    permutation, or the rotation's +-1 signs."""
    if kind == "identity":
        return np.arange(d_padded)
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return rng.permutation(d_padded)
    return rng.choice([-1.0, 1.0], size=d_padded)


def sylvester(d: int) -> np.ndarray:
    """The d x d Sylvester Hadamard matrix, d a power of 2."""
    H = np.ones((1, 1))
    while len(H) < d:
        H = np.block([[H, H], [H, -H]])
    return H


def pad(rows: np.ndarray, d_padded: int) -> np.ndarray:
    """The rows with zero columns appended out to d_padded."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    out = np.zeros((len(rows), d_padded))
    out[:, :rows.shape[1]] = rows
    return out


def preprocess(rows: np.ndarray, kind: str, table: np.ndarray) -> np.ndarray:
    """Pad the rows to len(table) columns, then permute their columns or
    rotate them by the signed, normalized Sylvester matrix."""
    x = pad(rows, len(table))
    if kind == "identity":
        return x
    if kind == "permutation":
        return x[:, table]
    return (x * table) @ sylvester(len(table)) / np.sqrt(len(table))


# ---------------------------------------------------------------------------
# covariance and Lloyd steps


def blocks_of(rows: np.ndarray, K: int) -> list[np.ndarray]:
    """The K column blocks of the rows, each a contiguous copy."""
    l = rows.shape[1] // K
    return [np.ascontiguousarray(rows[:, k * l:(k + 1) * l]) for k in range(K)]


def covariance(rows: np.ndarray, K: int, ridge: float) -> np.ndarray:
    """(K, l, l): each block's second moment (1/n) sum x x^T, not centered,
    made symmetric, plus ridge * trace / l on its diagonal."""
    n, l = len(rows), rows.shape[1] // K
    mats = np.empty((K, l, l))
    for k in range(K):
        blk = rows[:, k * l:(k + 1) * l]
        m = blk.T @ blk / n
        m = (m + m.T) / 2.0
        mats[k] = m + np.eye(l) * (ridge * np.trace(m) / l)
    return mats


def assign(blocks: np.ndarray, centroids: np.ndarray, sigma: np.ndarray,
           penalty: np.ndarray | None = None) -> np.ndarray:
    """argmin_c over the whole (n, C) cost matrix of (x - u_c)^T Sigma (x - u_c)
    less x^T Sigma x, that is u_c^T Sigma u_c - 2 x^T Sigma u_c, plus an
    optional (n, C) penalty; ties go to the lowest c."""
    su = centroids @ sigma
    costs = blocks @ su.T
    costs *= -2.0
    costs += np.einsum("cl,cl->c", su, centroids)
    if penalty is not None:
        costs += penalty
    return np.argmin(costs, axis=1).astype(np.int32)


def update(blocks: np.ndarray, codes: np.ndarray, C: int) -> tuple[np.ndarray, list[int]]:
    """Each nonempty cell's mean, its rows added in row order by np.add.at;
    empty cells stay zero and are listed."""
    counts = np.bincount(codes, minlength=C)
    sums = np.zeros((C, blocks.shape[1]))
    np.add.at(sums, codes, blocks)
    means = np.zeros_like(sums)
    full = counts > 0
    means[full] = sums[full] / counts[full, None]
    return means, [c for c in range(C) if counts[c] == 0]


def row_costs(blocks: np.ndarray, centroids: np.ndarray, codes: np.ndarray,
              sigma: np.ndarray) -> np.ndarray:
    """(x - u_x)^T Sigma (x - u_x) of every row, its l * l terms in (l, m) order."""
    diff = blocks - centroids[codes]
    return np.einsum("nl,lm,nm->n", diff, sigma, diff)


def objective(blocks: np.ndarray, centroids: np.ndarray, codes: np.ndarray,
              sigma: np.ndarray) -> float:
    """One subspace's quantization objective: the sum of its row costs."""
    return float(np.sum(row_costs(blocks, centroids, codes, sigma)))


def reseed(centroids: np.ndarray, empty: list[int], blocks: np.ndarray, codes: np.ndarray,
           sigma: np.ndarray) -> np.ndarray:
    """Empty cells take the rows farthest from their own centroids, the
    farthest first and the lowest row on a tie."""
    if empty:
        far = np.argsort(-row_costs(blocks, centroids, codes, sigma), kind="stable")
        centroids[empty] = blocks[far[:len(empty)]]
    return centroids


# ---------------------------------------------------------------------------
# quip-opt: mining, penalty and hinge step


def mine(centroids: np.ndarray, codes: np.ndarray, database: np.ndarray,
         queries: np.ndarray, J: int, seed: int) -> list[ConstraintTriplet]:
    """Up to J top-1 order inversions, at most one per query, the queries in
    seeded order: pos is the row with the largest exact score (from the whole
    exact matrix), and neg the first row at the largest quantized score, if
    that score is above pos's.  Rows are preprocessed and padded."""
    exact = queries @ database.T
    out = []
    for j in np.random.default_rng([seed, 104729]).permutation(len(queries)):
        if len(out) >= J:
            break
        pos = int(np.argmax(exact[j]))
        scores = scan(table(queries[j], centroids), codes)
        above = np.flatnonzero(scores > scores[pos])
        if above.size:
            out.append(ConstraintTriplet(int(j), pos, int(above[np.argmax(scores[above])])))
    return out


def penalty(n: int, centroids: np.ndarray, triplets: list[ConstraintTriplet], lam: float,
            query_block: np.ndarray) -> np.ndarray:
    """The (n, C) hinge penalty of one subspace: for triplet j in order,
    lam q_j . u_c added to its neg row and taken from its pos row."""
    out = np.zeros((n, len(centroids)))
    for j, t in enumerate(triplets):
        qtu = query_block[j] @ centroids.T
        out[t.neg_id] += lam * qtu
        out[t.pos_id] -= lam * qtu
    return out


def hinge_gradient(centroids: np.ndarray, codes: np.ndarray,
                   triplets: list[ConstraintTriplet], lam: float,
                   query_block: np.ndarray) -> np.ndarray:
    """The hinge term's gradient for every centroid of one subspace: for
    triplet j in order, lam q_j added at neg's cell and taken at pos's."""
    grad = np.zeros(centroids.shape)
    for j, t in enumerate(triplets):
        grad[codes[t.neg_id]] += lam * query_block[j]
        grad[codes[t.pos_id]] -= lam * query_block[j]
    return grad


def penalized_objective(centroids, codes: np.ndarray, blocks, sigma: np.ndarray,
                        triplets: list[ConstraintTriplet], q_blocks, lam: float) -> float:
    """The objectives summed in ascending k, then lam max(margin, 0) per
    triplet in order; a margin adds q_k . (u_neg - u_pos) in ascending k."""
    K = len(centroids)
    obj = sum(objective(blocks[k], centroids[k], codes[:, k], sigma[k]) for k in range(K))
    for t in triplets:
        margin = 0.0
        for k in range(K):
            diff = centroids[k][codes[t.neg_id, k]] - centroids[k][codes[t.pos_id, k]]
            margin += float(q_blocks[k][t.query_id] @ diff)
        obj += lam * max(margin, 0.0)
    return obj


def train(rows: np.ndarray, sigma: np.ndarray, C: int, T: int, seed: int,
          queries: np.ndarray | None, lam: float, J: int) -> np.ndarray:
    """The (K, C, l) centroids of up to T Lloyd iterations per subspace.

    Each subspace starts from C distinct rows drawn with seed [seed, k].
    Given queries, lam > 0 and J > 0 it is quip-opt: the codes start as the
    plain assignment, and each iteration first mines inversions against the
    current centroids and codes, assigns with their penalty and, after the
    cell means, steps down the hinge gradient by 1 / (1 + t), or half that
    if the full step raised the penalized objective.  Training stops on
    unchanged codes with no inversions (after the first iteration), on a
    relative fall of the objective below 1e-9 (TrainConfig's default
    convergence_tol), or on a zero objective.
    """
    K = len(sigma)
    n = len(rows)
    blocks = blocks_of(rows, K)
    cents = np.stack([blocks[k][np.random.default_rng([seed, k]).choice(n, size=C, replace=False)]
                      for k in range(K)])
    codes = np.zeros((n, K), dtype=np.int32)
    opt = queries is not None and lam > 0 and J > 0
    if opt:
        q_blocks = blocks_of(queries, K)
        codes = np.stack([assign(blocks[k], cents[k], sigma[k]) for k in range(K)], axis=1)
    triplets: list[ConstraintTriplet] = []
    prev_obj = 0.0
    for t in range(T):
        prev_codes = codes
        if opt:
            triplets = mine(cents, codes, rows, queries, J, seed)
            mined = [q_blocks[k][[tr.query_id for tr in triplets]] for k in range(K)]
        new_codes, means = [], []
        for k in range(K):
            pen = penalty(n, cents[k], triplets, lam, mined[k]) if triplets else None
            new_codes.append(assign(blocks[k], cents[k], sigma[k], pen))
            means.append(reseed(*update(blocks[k], new_codes[k], C), blocks[k], new_codes[k],
                                sigma[k]))
        codes, means = np.stack(new_codes, axis=1), np.stack(means)
        if triplets:
            before = penalized_objective(cents, codes, blocks, sigma, triplets, q_blocks, lam)
            grad = np.stack([hinge_gradient(means[k], codes[:, k], triplets, lam, mined[k])
                             for k in range(K)])
            eta = 1.0 / (1.0 + t)
            cents = means - eta * grad
            obj = penalized_objective(cents, codes, blocks, sigma, triplets, q_blocks, lam)
            if obj > before:
                cents = means - eta / 2.0 * grad
                obj = penalized_objective(cents, codes, blocks, sigma, triplets, q_blocks, lam)
        else:
            cents = means
            obj = sum(objective(blocks[k], cents[k], codes[:, k], sigma[k]) for k in range(K))
        if ((t > 0 and not triplets and np.array_equal(codes, prev_codes))
                or (prev_obj > 0 and (prev_obj - obj) / prev_obj < 1e-9) or obj == 0.0):
            break
        prev_obj = obj
    return cents


# ---------------------------------------------------------------------------
# encoding and search


def encode(rows: np.ndarray, centroids: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(n, K) int32 codes of preprocessed rows: assign() run on each block
    against the codebook as float64."""
    cents = np.asarray(centroids, dtype=np.float64)
    return np.stack([assign(blk, cents[k], sigma[k])
                     for k, blk in enumerate(blocks_of(rows, len(cents)))], axis=1)


def table(q: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The (K, C) lookup table of one preprocessed query: one (l,) @ (l, C)
    product of the query's block k, held contiguously, per subspace."""
    K, C, l = centroids.shape
    out = np.empty((K, C))
    for k in range(K):
        out[k] = (np.ascontiguousarray(q[k * l:(k + 1) * l])
                  @ np.asarray(centroids[k], dtype=np.float64).T)
    return out


def scan(tab: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Every code row's quantized score: from 0.0, its K table entries added
    in ascending k."""
    scores = np.zeros(len(codes))
    for k in range(len(tab)):
        scores += tab[k][codes[:, k]]
    return scores


def top_n(ids: np.ndarray, scores: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, scores) of the N best rows: one full sort by score descending,
    then id ascending."""
    order = np.lexsort((ids, -scores))[:N]
    return ids[order], scores[order]


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class Quip:
    """A trained, frozen reference index."""

    centroids: np.ndarray  # (K, C, l) float32
    codes: np.ndarray  # (n, K) int32, encode() against the float32 centroids
    ids: np.ndarray


def pipeline(method: str, rows: np.ndarray, queries: np.ndarray | None, ids: np.ndarray,
             K: int, C: int, T: int, seed: int, lam: float, J: int, ridge: float) -> Quip:
    """build_quip_pipeline from preprocess()'s rows and example queries:
    the method's covariance (the rows' for quip-cov-x, else the queries')
    with its ridge, training, the centroids cast to float32, and every row
    encoded against them (the freeze rule)."""
    sigma = covariance(rows if method == "quip-cov-x" else queries, K, ridge)
    cents = train(rows, sigma, C, T, seed, queries if method == "quip-opt" else None, lam, J)
    cents = cents.astype(np.float32)
    return Quip(cents, encode(rows, cents, sigma), ids)


def search(quip: Quip, queries: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """search_batch of preprocess()'s queries: each tabled, scanned over
    every row and sorted; (B, min(N, n)) ids and scores."""
    tops = [top_n(quip.ids, scan(table(q, quip.centroids), quip.codes), N) for q in queries]
    return np.stack([i for i, _ in tops]), np.stack([s for _, s in tops])


# ---------------------------------------------------------------------------
# the partitioned index


def kmeanspp(data: np.ndarray, P: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: each next center drawn with probability
    proportional to its row's squared distance to the nearest center so far
    (uniformly once every distance is 0)."""
    n = len(data)
    centers = np.empty((P, data.shape[1]))
    centers[0] = data[rng.integers(n)]
    d2 = np.sum((data - centers[0]) ** 2, axis=1)
    for p in range(1, P):
        total = d2.sum()
        if total <= 0:
            centers[p] = data[rng.integers(n)]
            continue
        centers[p] = data[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((data - centers[p]) ** 2, axis=1))
    return centers


def partition(data: np.ndarray, P: int, seed: int,
              iters: int = 25) -> tuple[np.ndarray, list[np.ndarray], int]:
    """Euclidean k-means from kmeanspp(default_rng(seed)): each iteration
    takes the whole (n, P) matrix of |x|^2 - (2x) . c + |c|^2, its argmin,
    moves into each empty cluster the member of the largest that lies
    farthest from its center, and stops once nothing moves; otherwise the
    centers become update()'s means.  Returns the centers, each cluster's
    rows ascending, and the number of empty clusters filled."""
    n = len(data)
    centers = kmeanspp(data, P, np.random.default_rng(seed))
    norms = np.sum(data ** 2, axis=1, keepdims=True)
    assigned = np.full(n, -1)
    filled = 0
    for _ in range(iters):
        d2 = norms - (2.0 * data) @ centers.T + np.sum(centers ** 2, axis=1)
        new = np.argmin(d2, axis=1)
        counts = np.bincount(new, minlength=P)
        for p in np.flatnonzero(counts == 0):
            big = np.argmax(counts)
            members = np.flatnonzero(new == big)
            new[members[np.argmax(d2[members, big])]] = p
            counts[big] -= 1
            counts[p] += 1
            filled += 1
        if np.array_equal(new, assigned):
            break
        assigned = new
        centers = update(data, assigned, P)[0]
    return centers, [np.flatnonzero(assigned == p) for p in range(P)], filled


def probe(q: np.ndarray, centers: np.ndarray, n_probe: int) -> np.ndarray:
    """The n_probe partitions with the largest q . center, ties by ascending index."""
    return np.lexsort((np.arange(len(centers)), -(centers @ q)))[:n_probe]


def probe_search(qp: np.ndarray, centers: np.ndarray, members: list[np.ndarray],
                 codes: np.ndarray, ids: np.ndarray, centroids: np.ndarray, N: int,
                 n_probe: int) -> tuple[np.ndarray, np.ndarray, int]:
    """hybrid_search of a preprocessed query: the probed partitions' rows in
    probe order, scanned with one table and sorted; (ids, scores, rows scanned)."""
    rows = np.concatenate([members[p] for p in probe(qp, centers, n_probe)])
    return *top_n(ids[rows], scan(table(qp, centroids), codes[rows]), N), len(rows)


# ---------------------------------------------------------------------------
# hashing baselines


def augment(v: np.ndarray, scheme: str, side: str, params: AlshParams,
            max_norm: float) -> np.ndarray:
    """One row's asymmetric augmentation, its norm from np.linalg.norm and np.dot."""
    if side == "query":
        if scheme == "simple_lsh":
            return np.concatenate([v / np.linalg.norm(v), [0.0]])
        return np.concatenate([v, np.full(params.m, 0.5 if scheme == "l2_alsh" else 0.0)])
    if scheme == "simple_lsh":
        x = v / max_norm
        return np.concatenate([x, [np.sqrt(max(1.0 - float(np.dot(x, x)), 0.0))]])
    x = params.U0 * v / max_norm
    powers = np.linalg.norm(x) ** (2.0 ** np.arange(1, params.m + 1))
    return np.concatenate([x, powers if scheme == "l2_alsh" else 0.5 - powers])


def l2_hash(v: np.ndarray, projection: np.ndarray, offset: float, r_lsh: float) -> int:
    """floor((P . v + b) / r); floor, not truncation, for negative projections."""
    return int(np.floor((float(projection @ v) + offset) / r_lsh))


def lsh_ranking(method: str, db: DenseVectorSet, qs: DenseVectorSet, bits: int,
                seed: int) -> np.ndarray:
    """Every query's ranking of all rows by a per-row hash comparison, by
    one full sort by score and id.  l2-alsh scores a row by how many of its
    bits // 8 bucket hashes (l2_hash) match the query's; the sign-bit
    schemes by minus the Hamming distance of bits sign bits P_i . v >= 0.
    The projections are drawn from seed as the library draws them."""
    params, scheme = AlshParams(), method.replace("-", "_")
    max_norm = float(np.max(np.linalg.norm(db.data, axis=1)))
    d_aug, q_aug = (np.stack([augment(v, scheme, side, params, max_norm) for v in vs.data])
                    for vs, side in ((db, "database"), (qs, "query")))
    rng = np.random.default_rng(seed)
    if method == "l2-alsh":
        n_hashes = max(bits // 8, 1)
        proj = rng.standard_normal((n_hashes, d_aug.shape[1]))
        offsets = rng.uniform(0.0, params.r_lsh, size=n_hashes)
        d_codes, q_codes = (np.array([[l2_hash(v, proj[h], offsets[h], params.r_lsh)
                                       for h in range(n_hashes)] for v in aug])
                            for aug in (d_aug, q_aug))
        scores = [(qc == d_codes).sum(axis=1) for qc in q_codes]
    else:
        proj = rng.standard_normal((bits, d_aug.shape[1]))
        d_bits, q_bits = (aug @ proj.T >= 0.0 for aug in (d_aug, q_aug))
        scores = [-(qb != d_bits).sum(axis=1) for qb in q_bits]
    return np.stack([db.ids[np.lexsort((db.ids, -s))] for s in scores])
