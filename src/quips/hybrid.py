"""Coarse k-means partitioning with a quantized scan inside each probed partition.

Partitions are learned with plain Euclidean k-means and stored as one
contiguous index in partition order (the inverted-file layout): a partition
is a row slice.  At query time the probe partitions with the largest dot
product between query and partition center are scanned, one lookup table and
one scan per distinct codebook among them, and one top-N selection runs over
the union of their scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import SubspaceCovariances
from .index import (QuipIndex, TopNResult, _float32_codebook, _narrow_codes, _rank_top_n,
                    build_lookup_table, check_queries, encode_database, table_scores)
# search_top_n is unused here but stays bound: quipsbench's tracer test checks
# that it is wrapped in this namespace too.
from .index import search_top_n  # noqa: F401
from .train import Codebook, CodeMatrix, TrainConfig, train_quip
from .vecstore import (ChunkLayout, DenseVectorSet, PreprocessSpec, apply_preprocess_rows,
                       pad_to)


@dataclass(frozen=True)
class PartitionIndex:
    """Every partition's rows in one store, in partition order.

    Partition p owns rows offsets[p]:offsets[p+1] of codes, ids and rows.
    codebooks holds one codebook shared by every partition, or one per
    partition.
    """

    centers: np.ndarray  # (P, d) float64
    offsets: np.ndarray  # (P+1,) int64
    codes: np.ndarray  # (n, K) code_dtype(C)
    ids: np.ndarray  # (n,) int64
    rows: np.ndarray  # (n,) int64 database row index of each stored row
    codebooks: tuple[Codebook, ...]  # centroids float32; length 1 or P
    preprocess: PreprocessSpec
    layout: ChunkLayout
    cov: SubspaceCovariances

    @property
    def P(self) -> int:
        return self.centers.shape[0]

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def membership(self) -> list[np.ndarray]:
        """Per-partition database row indices (views of rows)."""
        return np.split(self.rows, self.offsets[1:-1])

    def codebook_of(self, p: int) -> int:
        return 0 if len(self.codebooks) == 1 else p

    def partition(self, p: int) -> QuipIndex:
        """Partition p as a flat index over views of the shared arrays."""
        lo, hi = self.offsets[p], self.offsets[p + 1]
        return QuipIndex(codebook=self.codebooks[self.codebook_of(p)],
                         codes=CodeMatrix(codes=self.codes[lo:hi]),
                         preprocess=self.preprocess, layout=self.layout,
                         ids=self.ids[lo:hi], cov=self.cov)


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

    Row norms are computed once and the (n, P) distances reuse one buffer.
    The cross term is x . 2c, which has the bits of 2x . c (scaling by two is
    exact) without a doubled copy of the data.  Each cluster's mean runs over
    its members in ascending row order, taken from one stable sort of the
    assignment.
    """
    n = database.n
    if n < P:
        raise ValueError(f"need n >= P; got n={n}, P={P}")
    data = database.data
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(data, P, rng)
    norms = np.sum(data ** 2, axis=1, keepdims=True)
    d2 = np.empty((n, P))
    assign = np.full(n, -1, dtype=np.int64)
    for _ in range(iters):
        # |x|^2 - 2 x.c + |c|^2, in that order
        np.subtract(norms, np.matmul(data, (2.0 * centers).T, out=d2), out=d2)
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

    With shared_codebook, every partition is encoded against the one float32
    codebook (probe=P then reproduces a flat scan over those codes exactly);
    pass the flat scan's shared_codes to reuse them verbatim instead of
    re-encoding.  Otherwise each partition trains its own codebook on its
    members using the global covariance, which needs at least C members in
    every partition.
    """
    if shared_codes is not None and shared_codebook is None:
        raise ValueError("shared_codes requires shared_codebook")
    centers, membership = train_partitioner(database, P, seed)
    rows = np.concatenate(membership)
    offsets = np.cumsum([0] + [len(m) for m in membership], dtype=np.int64)

    def part(members: np.ndarray) -> DenseVectorSet:
        return DenseVectorSet(data=database.data[members], ids=database.ids[members])

    if shared_codebook is None:
        for p, members in enumerate(membership):
            if len(members) < cfg.C:
                raise ValueError(
                    f"partition {p} has {len(members)} member(s), fewer than C={cfg.C} "
                    "needed to train its codebook; lower --partitions or --c")
        trained = [train_quip(part(members), cov, cfg)[:2] for members in membership]
        codebooks = tuple(_float32_codebook(cb) for cb, _ in trained)
        codes = np.concatenate([c.codes for _, c in trained])
    else:
        codebooks = (_float32_codebook(shared_codebook),)
        if shared_codes is not None:
            codes = shared_codes.codes[rows]
        else:
            codes = np.concatenate([
                encode_database(part(members), codebooks[0], cov, codebooks[0].layout).codes
                for members in membership])
    return PartitionIndex(centers=centers, offsets=offsets,
                          codes=_narrow_codes(codes, codebooks[0].C),
                          ids=database.ids[rows], rows=rows, codebooks=codebooks,
                          preprocess=preprocess, layout=codebooks[0].layout, cov=cov)


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

    The query is preprocessed once; that vector picks the partitions (whose
    centers live in preprocessed space).  The probed partitions are grouped
    by codebook, and each group gets one lookup table and one scan over its
    concatenated row slices: with a shared codebook that is one table and one
    scan per query.  One selection runs over the union of the scores.  A
    query of another width than the database's or with a non-finite entry
    is a ValueError.
    """
    if pindex.P == 0:
        raise ValueError("empty index")
    if not 1 <= probe <= pindex.P:
        raise ValueError(f"probe must be in [1, {pindex.P}]")
    if N < 1:
        raise ValueError("N must be >= 1")
    q = np.asarray(q, dtype=np.float64)
    check_queries(q, pindex.layout)
    qp = apply_preprocess_rows(q, pindex.preprocess)
    groups: dict[int, list[slice]] = {}
    for p in assign_query_partitions(qp, pindex.centers, probe):
        groups.setdefault(pindex.codebook_of(p),
                          []).append(slice(pindex.offsets[p], pindex.offsets[p + 1]))
    ids, scores = [], []
    for c, slices in groups.items():
        table = build_lookup_table(qp, pindex.codebooks[c])
        scores.append(table_scores(table, np.concatenate([pindex.codes[s] for s in slices])))
        ids.extend(pindex.ids[s] for s in slices)
    ids = np.concatenate(ids)
    return _rank_top_n(ids, np.concatenate(scores), N), len(ids)
