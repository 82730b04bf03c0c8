"""Coarse k-means partitioning with a quantized scan inside each probed partition.

Partitions are learned with plain Euclidean k-means and stored as one
QuipIndex in partition order (the inverted-file layout): a partition is a
row slice, and every partition shares the index's one codebook, trained
beforehand (quips hybrid-train trains it with evalbench.build_quip_pipeline).
index._search does the probing and scanning for hybrid_search.
"""

from __future__ import annotations

import numpy as np

from .covariance import SubspaceCovariances
from .index import (QuipIndex, TopNResult, _float32_codebook, _narrow_codes, _narrow_ids,
                    _search, encode_database)
# Bound here too so that quipsbench's tracer, which looks functions up by
# layer, finds them in this namespace: assign_query_partitions is timed as
# the hybrid layer's partition choice, and search_top_n is checked by its
# binding test.
from .index import assign_query_partitions, search_top_n  # noqa: F401
from .train import Codebook, CodeMatrix, TrainConfig, mahalanobis_assign, update_centroids
from .vecstore import DenseVectorSet, PreprocessSpec


def _kmeanspp_init(data: np.ndarray, P: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding; far better local minima than uniform sampling.

    Each center's squared distances are added column by column into reused
    length-n buffers, so no (n, d) temporary exists.  The columns are those of
    one Fortran-ordered view of the rows, which is no copy for the rows that
    permutation preprocessing gives.  There the distances have the bits of
    np.sum((data - c) ** 2, axis=1); on C-ordered rows they may differ from it
    in the last bit.
    """
    n, d = data.shape
    cols = np.asfortranarray(data)
    centers = np.empty((P, d))
    d2, dist, diff = np.empty(n), np.empty(n), np.empty(n)

    def sq_dist(c: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0.0)
        for j in range(d):
            np.subtract(cols[:, j], c[j], out=diff)
            np.multiply(diff, diff, out=diff)
            out += diff
        return out

    centers[0] = data[rng.integers(n)]
    sq_dist(centers[0], d2)
    for p in range(1, P):
        total = d2.sum()
        if total <= 0:
            centers[p] = data[rng.integers(n)]
            continue
        centers[p] = data[rng.choice(n, p=d2 / total)]
        np.minimum(d2, sq_dist(centers[p], dist), out=d2)
    return centers


def train_partitioner(database: DenseVectorSet, P: int, seed: int,
                      iters: int = 25) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seeded Lloyd k-means; empty clusters are repaired by splitting the largest.

    It is the codebook trainer's Lloyd step with Sigma = I: rows are assigned
    by train.mahalanobis_assign (row tiles, ties to the lowest index) and
    centers are train.update_centroids' means, summed in ascending row order.
    The tiled costs leave out |x|^2 and may round differently from the
    whole-matrix |x|^2 - 2x.c + |c|^2, but the argmins, and so the centers,
    have matched that form bit for bit on every (n, d, P) checked: (300, 6, 7),
    (2000, 64, 20), (1000, 17, 50), (50, 3, 50) and (5000, 64, 100), C- and
    Fortran-ordered (tests/test_hybrid.py), and the benchmark's
    (50000, 64, 100).  Needs 1 <= P <= n and iters >= 1.
    """
    n = database.n
    if not 1 <= P <= n:
        raise ValueError(f"need 1 <= P <= n; got P={P}, n={n}")
    if iters < 1:
        raise ValueError(f"need iters >= 1; got {iters}")
    data = database.data
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(data, P, rng)
    identity = np.eye(data.shape[1])
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(iters):
        new_assign = mahalanobis_assign(data, centers, identity)
        counts = np.bincount(new_assign, minlength=P)
        # moving one row out of the largest cluster never empties it
        for p in np.flatnonzero(counts == 0):
            big = np.argmax(counts)
            members = np.flatnonzero(new_assign == big)
            far = np.sum((data[members] - centers[big]) ** 2, axis=1)
            new_assign[members[np.argmax(far)]] = p
            counts[big] -= 1
            counts[p] += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = update_centroids(data, assign, P)[0]
    return centers, _members(assign, np.bincount(assign, minlength=P))


def _members(assign: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Row indices of each cluster, ascending, from one stable sort."""
    return np.split(np.argsort(assign, kind="stable"), np.cumsum(counts)[:-1])


def build_hybrid(database: DenseVectorSet, P: int, cov: SubspaceCovariances,
                 cfg: TrainConfig | None, preprocess: PreprocessSpec, seed: int,
                 shared_codebook: Codebook,
                 shared_codes: CodeMatrix | None = None) -> QuipIndex:
    """Partition the rows of a trained codebook, so probe=P reproduces a
    flat scan over the same codes; it trains no codebook.

    The codebook is shared_codebook, frozen to float32.  The codes are
    shared_codes, or else the freeze rule's encode_database against that
    float32 codebook; they are gathered into partition order in one fancy
    index.  Codes are held as code_dtype(C) and ids as id_dtype(ids), as in
    build_index.  cfg is not read; it stays for callers that pass it by
    position.
    """
    centers, membership = train_partitioner(database, P, seed)
    rows = np.concatenate(membership)
    offsets = np.cumsum([0] + [len(m) for m in membership], dtype=np.int64)
    codebook = _float32_codebook(shared_codebook)
    if shared_codes is None:
        shared_codes = encode_database(database, codebook, cov, codebook.layout)
    codes = _narrow_codes(shared_codes.codes[rows], codebook.C)
    return QuipIndex(codebook=codebook, codes=CodeMatrix(codes=codes),
                     preprocess=preprocess, layout=codebook.layout,
                     ids=_narrow_ids(database.ids[rows]), cov=cov, offsets=offsets,
                     centers=centers)


def hybrid_search(pindex: QuipIndex, q: np.ndarray, N: int,
                  probe: int) -> tuple[TopNResult, int]:
    """Top-N of a raw query over its probe partitions, plus the candidate
    count scanned.  probe=P equals search_top_n bit for bit.  A query of
    another width than the database's or with a non-finite entry is a
    ValueError.
    """
    return next(_search(pindex, np.atleast_2d(q), N, probe))
