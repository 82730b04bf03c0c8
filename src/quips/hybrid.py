"""Coarse k-means partitioning with a quantized scan inside each probed partition.

Partitions are learned with plain Euclidean k-means; at query time the probe
partitions with the largest dot product between query and partition center are
scanned and one top-N selection runs over the union of their scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import SubspaceCovariances
from .index import (QueryLookupTable, QuipIndex, TopNResult, _rank_top_n, build_index,
                    build_lookup_table, encode_database, table_scores)
# search_top_n is unused here but stays bound: quipsbench's tracer test checks
# that it is wrapped in this namespace too.
from .index import search_top_n  # noqa: F401
from .train import Codebook, CodeMatrix, TrainConfig, train_quip
from .vecstore import DenseVectorSet, PreprocessSpec, apply_preprocess_rows, pad_to


@dataclass(frozen=True)
class PartitionIndex:
    centers: np.ndarray  # (P, d) float64
    membership: list[np.ndarray]  # per-partition row indices into the database
    subindexes: list[QuipIndex]

    @property
    def P(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return sum(len(m) for m in self.membership)


def _kmeanspp_init(data: np.ndarray, P: int, rng: np.random.Generator) -> np.ndarray:
    """D^2-weighted seeding; far better local minima than uniform sampling."""
    n = data.shape[0]
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


def train_partitioner(database: DenseVectorSet, P: int, seed: int,
                      iters: int = 25) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seeded Lloyd k-means; empty clusters are repaired by splitting the largest.

    Row norms and 2x are computed once and the (n, P) distances reuse one
    buffer; each cluster's mean runs over its members in ascending row order,
    taken from one stable sort of the assignment.
    """
    n = database.n
    if n < P:
        raise ValueError(f"need n >= P; got n={n}, P={P}")
    data = database.data
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(data, P, rng)
    norms = np.sum(data ** 2, axis=1, keepdims=True)
    twice = 2.0 * data
    d2 = np.empty((n, P))
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(iters):
        # |x|^2 - 2 x.c + |c|^2, in that order
        np.subtract(norms, np.matmul(twice, centers.T, out=d2), out=d2)
        d2 += np.sum(centers ** 2, axis=1)
        new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=P)
        # moving one row out of the largest cluster never empties it
        for p in np.flatnonzero(counts == 0):
            big = np.argmax(counts)
            members = np.flatnonzero(new_assign == big)
            new_assign[members[np.argmax(d2[members, big])]] = p
            counts[big] -= 1
            counts[p] += 1
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for p, members in enumerate(_members(assign, counts)):
            centers[p] = data[members].mean(axis=0)
    return centers, _members(assign, np.bincount(assign, minlength=P))


def _members(assign: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Row indices of each cluster, ascending, from one stable sort."""
    return np.split(np.argsort(assign, kind="stable"), np.cumsum(counts)[:-1])


def build_hybrid(database: DenseVectorSet, P: int, cov: SubspaceCovariances,
                 cfg: TrainConfig, preprocess: PreprocessSpec, seed: int,
                 shared_codebook: Codebook | None = None,
                 shared_codes: CodeMatrix | None = None) -> PartitionIndex:
    """Partition, then quantize each partition.

    With shared_codebook, every partition is encoded against the one codebook
    (probe=P then reproduces a flat scan over those codes exactly), and every
    subindex holds the same float32 Codebook object; pass the flat scan's
    shared_codes to reuse them verbatim instead of re-encoding.  Otherwise
    each partition trains its own codebook on its members using the global
    covariance, which needs at least C members in every partition.
    """
    if shared_codes is not None and shared_codebook is None:
        raise ValueError("shared_codes requires shared_codebook")
    centers, membership = train_partitioner(database, P, seed)
    if shared_codebook is None:
        for p, members in enumerate(membership):
            if len(members) < cfg.C:
                raise ValueError(
                    f"partition {p} has {len(members)} member(s), fewer than C={cfg.C} "
                    "needed to train its codebook; lower --partitions or --c")
    else:
        shared_codebook = Codebook(layout=shared_codebook.layout,
                                   centroids=shared_codebook.centroids.astype(np.float32))
    subindexes = []
    for p, members in enumerate(membership):
        part = DenseVectorSet(data=database.data[members],
                              ids=database.ids[members])
        if shared_codebook is None:
            cb, codes, _ = train_quip(part, cov, cfg)
        elif shared_codes is not None:
            cb = shared_codebook
            codes = CodeMatrix(codes=shared_codes.codes[members])
        else:
            cb = shared_codebook
            codes = encode_database(part, cb, cov, cb.layout)
        subindexes.append(build_index(part, cb, codes, preprocess, cov))
    return PartitionIndex(centers=centers, membership=membership,
                          subindexes=subindexes)


def assign_query_partitions(q: np.ndarray, centers: np.ndarray,
                            probe: int) -> np.ndarray:
    """The probe partitions with the largest q . center, ties by ascending index."""
    if probe > centers.shape[0]:
        raise ValueError("probe exceeds partition count")
    dots = centers @ pad_to(np.asarray(q, dtype=np.float64), centers.shape[1])
    order = np.lexsort((np.arange(centers.shape[0]), -dots))
    return order[:probe]


def hybrid_search(pindex: PartitionIndex, q: np.ndarray, N: int,
                  probe: int) -> tuple[TopNResult, int]:
    """Top-N of a raw query over the probed partitions, plus the candidate
    count scanned.

    The query is preprocessed once with the subindexes' shared spec; that
    vector picks the partitions (whose centers live in preprocessed space)
    and builds one lookup table per distinct codebook among them.  One
    selection runs over the union of the probed partitions' scores.
    """
    if pindex.P == 0:
        raise ValueError("empty index")
    if not 1 <= probe <= pindex.P:
        raise ValueError(f"probe must be in [1, {pindex.P}]")
    qp = apply_preprocess_rows(q, pindex.subindexes[0].preprocess)
    subs = [pindex.subindexes[p] for p in assign_query_partitions(qp, pindex.centers, probe)]
    tables: dict[int, QueryLookupTable] = {}  # by codebook identity
    scores = []
    for sub in subs:
        key = id(sub.codebook)
        if key not in tables:
            tables[key] = build_lookup_table(qp, sub.codebook)
        scores.append(table_scores(tables[key], sub.codes.codes))
    ids = np.concatenate([sub.ids for sub in subs])
    return _rank_top_n(ids, np.concatenate(scores), N), len(ids)
