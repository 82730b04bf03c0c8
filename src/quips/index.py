"""Quantized index: encoding, lookup-table scoring, top-N search, persistence.

Scoring is asymmetric: database rows are represented by their per-subspace
centroid codes, the query stays exact. A query is expanded once into a K x C
table of partial dot products; scoring a row is K table reads and adds.
"""

from __future__ import annotations

import mmap
import os
import struct
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .covariance import SubspaceCovariances
from .train import Codebook, CodeMatrix, mahalanobis_assign, _per_subspace
from .vecstore import (ChunkLayout, DataError, DenseVectorSet, PreprocessSpec,
                       apply_preprocess_rows, pad_to)

MAGIC = b"QUIP"
FORMAT_VERSION = 3
_ALIGN = 8  # every section payload starts at a file offset that is a multiple of this
_ID_DTYPES = {w: np.dtype(f"<i{w}") for w in (1, 2, 4, 8)}  # by width in bytes
_CODE_DTYPES = tuple(np.dtype(f"<u{w}") for w in (1, 2, 4))


@dataclass(frozen=True)
class QuipIndex:
    """Every partition's rows in one store, in partition order.

    Partition p owns rows offsets[p]:offsets[p+1] of codes and ids, and
    every partition shares the one codebook.  A flat index is one partition:
    offsets [0, n] and a center that no search reads.
    """

    codebook: Codebook  # centroids stored float32
    codes: CodeMatrix
    preprocess: PreprocessSpec
    layout: ChunkLayout
    ids: np.ndarray  # (n,) id_dtype(ids)
    cov: SubspaceCovariances
    offsets: np.ndarray  # (P+1,) int64
    centers: np.ndarray  # (P, d_padded) float64, in preprocessed space

    @property
    def P(self) -> int:
        return len(self.offsets) - 1

    @property
    def n(self) -> int:
        return self.codes.n

    @property
    def bits_per_vector(self) -> int:
        return self.layout.K * int(np.ceil(np.log2(self.codebook.C)))


@dataclass(frozen=True)
class TopNResult:
    """(id, score) pairs, descending score, ties by ascending id."""

    ids: np.ndarray  # (<=N,) int64
    scores: np.ndarray  # (<=N,) float64


# A scan tile holds about this many partial scores (rows x queries), so the
# tile and the rows gathered into it stay in cache while K tables are added.
_TILE_SCORES = 1 << 15
# Queries scanned together are capped so their (B, n) scores stay near 64 MB.
_BLOCK_SCORES = 1 << 23


def _rank_top_n(ids: np.ndarray, scores: np.ndarray, N: int) -> TopNResult:
    """The N best rows by score descending, then id ascending.

    A partition finds the N-th best score; only rows scoring at or above it
    are sorted, so every row tied at the cut competes on id.  NaN ranks below
    every number here but partitions above them, so a NaN among the N
    partitioned best sends the query to the full sort.
    """
    n, order = len(scores), None
    if N < n:
        best = np.partition(scores, n - N)[n - N:]
        if not np.isnan(best).any():
            rows = np.flatnonzero(scores >= best[0])
            order = rows[np.lexsort((ids[rows], -scores[rows]))[:N]]
    if order is None:
        order = np.lexsort((ids, -scores))[:N]
    return TopNResult(ids=ids[order].astype(np.int64), scores=scores[order])


def _rank_rows(Q: np.ndarray, ids: np.ndarray,
               scores_of: Callable[[np.ndarray], np.ndarray], N: int) -> Iterator[TopNResult]:
    """_rank_top_n of every row of Q's scores against the n = len(ids) rows:
    Q goes in blocks of _BLOCK_SCORES // n rows, scores_of(block) is (B, n)."""
    block = max(1, _BLOCK_SCORES // len(ids))
    for lo in range(0, len(Q), block):
        for row in scores_of(Q[lo:lo + block]):
            yield _rank_top_n(ids, row, N)


def build_index(database: DenseVectorSet, codebook: Codebook, codes: CodeMatrix,
                preprocess: PreprocessSpec, cov: SubspaceCovariances) -> QuipIndex:
    """Freeze trained artifacts into a searchable flat index.

    Centroids are cast to float32 up front so in-memory and reloaded indexes
    score bit-identically; a codebook that is float32 already is shared, not
    copied.  Codes are held as code_dtype(C), ids as id_dtype(ids).
    """
    cb = _float32_codebook(codebook)
    return _flat_index(cb, CodeMatrix(codes=_narrow_codes(codes.codes, cb.C)), preprocess,
                       codebook.layout, _narrow_ids(database.ids), cov)


def _flat_index(codebook: Codebook, codes: CodeMatrix, preprocess: PreprocessSpec,
                layout: ChunkLayout, ids: np.ndarray, cov: SubspaceCovariances) -> QuipIndex:
    """One partition holding every row."""
    return QuipIndex(codebook=codebook, codes=codes, preprocess=preprocess, layout=layout,
                     ids=ids, cov=cov, offsets=np.array([0, len(ids)], dtype=np.int64),
                     centers=np.zeros((1, layout.d_padded)))


def _float32_codebook(codebook: Codebook) -> Codebook:
    """The codebook with float32 centroids; shared, not copied, if already so."""
    if codebook.centroids.dtype == np.float32:
        return codebook
    return Codebook(layout=codebook.layout, centroids=codebook.centroids.astype(np.float32))


def _narrow_codes(codes: np.ndarray, C: int) -> np.ndarray:
    """codes as code_dtype(C), once they are known to lie in [0, C)."""
    if codes.size and (codes.min() < 0 or codes.max() >= C):
        raise ValueError(f"codes must lie in [0, {C})")
    return codes.astype(code_dtype(C))


def _narrow_ids(ids: np.ndarray) -> np.ndarray:
    """A copy of ids as id_dtype(ids)."""
    return ids.astype(id_dtype(ids))


def encode_database(database: DenseVectorSet, codebook: Codebook,
                    cov: SubspaceCovariances, layout: ChunkLayout) -> CodeMatrix:
    """Assign frozen-codebook codes to (already preprocessed) vectors.

    Subspace k is assigned over its column view of the rows, in the
    assignment's row tiles, so no copy of the database is made and every
    tile's GEMM reads the rows a contiguous copy of the block would hold: the
    codes are the same bits (tests/test_index.py pins C- and F-ordered rows).
    The K subspaces are assigned on every usable core.
    """
    if layout.d_padded != codebook.layout.d_padded:
        raise ValueError("layout does not match codebook")
    data = pad_to(database.data, layout.d_padded)
    cents = np.asarray(codebook.centroids, dtype=np.float64)
    return CodeMatrix(codes=np.stack(_per_subspace(lambda k: mahalanobis_assign(
        layout.block(data, k), cents[k], cov.matrices[k]), layout.K), axis=1))


def build_lookup_table(q: np.ndarray, codebook: Codebook) -> np.ndarray:
    """The (K, C) table [k][c] = <q^(k), U_c^(k)> of a preprocessed, padded
    query, or the (K, C, B) table [k][c][b] of a (B, d_padded) batch.

    One matmul of (C, l) @ (l,) products over the K blocks (and B queries);
    each entry has the bits of a separate (l,) @ (l, C) product per block and
    query (tests/test_index.py holds that loop as the oracle and names the
    shapes checked).  The queries are made contiguous first: a strided row
    (as in a column-permuted batch) takes another matmul path and can round
    differently.
    """
    layout = codebook.layout
    q = np.ascontiguousarray(q, dtype=np.float64)
    if q.ndim not in (1, 2) or q.shape[-1] != layout.d_padded:
        raise ValueError(f"queries have shape {q.shape}; the layout wants {layout.d_padded} dims")
    cents = np.asarray(codebook.centroids, dtype=np.float64)
    if q.ndim == 1:
        return np.matmul(cents, q.reshape(layout.K, layout.l, 1))[..., 0]
    out = np.empty((layout.K, codebook.C, len(q)))  # C-ordered: table_scores gathers its rows
    np.matmul(cents[:, None], q.reshape(len(q), layout.K, layout.l, 1).transpose(1, 0, 2, 3),
              out=out.transpose(0, 2, 1)[..., None])
    return out


def approximate_inner_product(table: np.ndarray, code_row: np.ndarray) -> float:
    """Sum of (K, C) table entries selected by code_row, in ascending subspace order."""
    K, C = table.shape
    total = 0.0
    for k in range(K):
        c = int(code_row[k])
        if not 0 <= c < C:
            raise ValueError(f"code {c} out of range [0, {C})")
        total += table[k, c]
    return total


def table_scores(table: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Approximate scores of every code row: (n,) for a (K, C) table, (B, n)
    for a stacked (K, C, B) table.

    Rows are scanned in tiles; each tile starts at 0.0 and adds the K
    subspaces in ascending order, so every score equals the scalar
    approximate_inner_product bit for bit.
    """
    values = table if table.ndim == 3 else table[:, :, None]
    K, _, B = values.shape
    n = codes.shape[0]
    out = np.empty((B, n))
    rows = max(1, _TILE_SCORES // B)
    acc = np.empty((min(rows, n), B))
    for lo in range(0, n, rows):
        tile = codes[lo:lo + rows]
        a = acc[:len(tile)]
        a.fill(0.0)
        for k in range(K):
            a += np.take(values[k], tile[:, k], axis=0)
        out[:, lo:lo + rows] = a.T
    return out if table.ndim == 3 else out[0]


def assign_query_partitions(q: np.ndarray, centers: np.ndarray,
                            probe: int) -> np.ndarray:
    """The probe partitions with the largest q . center, ties by ascending index."""
    if probe > centers.shape[0]:
        raise ValueError("probe exceeds partition count")
    dots = centers @ pad_to(np.asarray(q, dtype=np.float64), centers.shape[1])
    return _rank_top_n(np.arange(centers.shape[0]), dots, probe).ids


def _search(index: QuipIndex, Q: np.ndarray, N: int,
            probe: int | None = None) -> Iterator[tuple[TopNResult, int]]:
    """The search engine: the top-N of every raw query row of Q (B,
    original_d), each with the number of rows scored for it.

    The input is checked and the batch preprocessed before this returns; a
    query of another width or with a non-finite entry is a ValueError.
    Without a probe every row is scored: each block of queries gets one
    stacked table and one scan of the codes, then a selection per query.
    With one, each query picks its probe partitions by q . center (the
    centers live in preprocessed space); it gets one table and one scan over
    its probed row slices, concatenated in probe order, then one selection.
    """
    if index.n == 0:
        raise ValueError("empty index")
    if N < 1:
        raise ValueError("N must be >= 1")
    if probe is not None and not 1 <= probe <= index.P:
        raise ValueError(f"probe must be in [1, {index.P}]")
    Q = np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2:
        raise ValueError(f"queries must be a 2-d array; got {Q.ndim}-d")
    # a query of another width would otherwise be padded or cut silently
    if Q.shape[-1] != index.layout.original_d:
        raise ValueError(f"queries have {Q.shape[-1]} dims, the index wants "
                         f"{index.layout.original_d}")
    if not np.isfinite(Q).all():
        raise ValueError("queries hold a non-finite value")
    Qp = apply_preprocess_rows(Q, index.preprocess)
    if probe is None:
        tops = _rank_rows(Qp, index.ids, lambda block: table_scores(
            build_lookup_table(block, index.codebook), index.codes.codes), N)
        return ((top, index.n) for top in tops)
    return (_scan_probed(index, qp, N, probe) for qp in Qp)


def _scan_probed(index: QuipIndex, qp: np.ndarray, N: int,
                 probe: int) -> tuple[TopNResult, int]:
    slices = [slice(index.offsets[p], index.offsets[p + 1])
              for p in assign_query_partitions(qp, index.centers, probe)]
    ids = np.concatenate([index.ids[s] for s in slices])
    scores = table_scores(build_lookup_table(qp, index.codebook),
                          np.concatenate([index.codes.codes[s] for s in slices]))
    return _rank_top_n(ids, scores, N), len(ids)


def search_batch(index: QuipIndex, Q: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-N of every raw query row of Q (B, original_d) over every row: ids
    and scores, each (B, min(N, n)); row b equals search_top_n(index, Q[b], N)
    bit for bit and, on a partitioned index, a probe of every partition.
    """
    results = _search(index, Q, N)
    ids = np.empty((len(Q), min(N, index.n)), dtype=np.int64)
    scores = np.empty(ids.shape)
    for b, (top, _) in enumerate(results):
        ids[b], scores[b] = top.ids, top.scores
    return ids, scores


def search_top_n(index: QuipIndex, q: np.ndarray, N: int) -> TopNResult:
    """Top-N of one raw query: a batch of one."""
    return next(_search(index, np.atleast_2d(q), N))[0]


def exact_top_n(database: DenseVectorSet, q: np.ndarray, N: int) -> TopNResult:
    """Brute-force exact inner products, same ordering contract as search_top_n.

    The contract holds for the scores BLAS returns: it can round duplicated
    real-valued rows to unequal scores (by their position in its tiles), so
    such duplicates need not come back in ascending id order.
    """
    if database.n == 0:
        raise ValueError("empty database")
    if N < 1:
        raise ValueError("N must be >= 1")
    q = pad_to(np.asarray(q, dtype=np.float64), database.d)
    scores = database.data @ q
    return _rank_top_n(database.ids, scores, N)


# ---------------------------------------------------------------------------
# persistence: magic, u16 version and 2 zero bytes, then six sections, each a
# u64 payload length, the payload and zero padding to a multiple of 8 bytes, so
# every payload, and every array in it, starts 8-byte aligned:
#   layout      u32 K, l, d_padded, original_d
#   preprocess  u8 kind, 7 zero bytes, i64 seed, u32 d_padded, 4 zero bytes,
#               then the (d_padded,) i4 table (PreprocessSpec.table)
#   covariance  u8 source, 7 zero bytes, f64 ridge, f64 (K, l, l)
#   codebook    f32 (K, C, l)
#   codes       u32 n, u32 C, (n, K) codes as code_dtype(C)
#   ids         u8 width, 7 zero bytes, (n,) ids as little-endian signed ints of that width


def _read_section(buf: memoryview, off: int, path: str) -> tuple[memoryview, int]:
    if off + 8 > len(buf):
        raise DataError(f"{path}: truncated: no section header at byte {off}")
    (length,) = struct.unpack_from("<Q", buf, off)
    start = off + 8
    end = start + length + -length % _ALIGN
    if end > len(buf):
        raise DataError(f"{path}: truncated: section at byte {off} declares "
                        f"{length} bytes and {end - start - length} of padding, "
                        f"{len(buf) - start} remain")
    return buf[start : start + length], end


def _check_size(path: str, name: str, payload: bytes, size: int) -> None:
    if len(payload) != size:
        raise DataError(f"{path}: {name} section holds {len(payload)} bytes; "
                        f"its header implies {size}")


def _check_header(path: str, name: str, payload: bytes, size: int) -> None:
    if len(payload) < size:
        raise DataError(f"{path}: {name} section holds {len(payload)} bytes, "
                        f"shorter than its {size}-byte header")


def code_dtype(C: int) -> np.dtype:
    return _CODE_DTYPES[0 if C <= 1 << 8 else 1 if C <= 1 << 16 else 2]


def id_dtype(ids: np.ndarray) -> np.dtype:
    """The narrowest little-endian signed type that holds every id; <i1 for none."""
    lo, hi = (int(ids.min()), int(ids.max())) if len(ids) else (0, 0)
    return next(t for t in _ID_DTYPES.values()
                if np.iinfo(t).min <= lo and hi <= np.iinfo(t).max)


def _file_chunks(index: QuipIndex) -> list:
    """The file's bytes as an ordered list of buffers, none of them a joined
    copy; an index the format cannot hold raises before any is made."""
    if index.P != 1:
        raise ValueError(f"the index file format holds one partition; got P={index.P}")
    lay, pre, cov, C = index.layout, index.preprocess, index.cov, index.codebook.C
    if pre.d_padded != lay.d_padded:
        raise ValueError(f"preprocess d_padded {pre.d_padded} differs from the "
                         f"layout's {lay.d_padded}")
    ids = np.ascontiguousarray(index.ids, dtype=id_dtype(index.ids))
    sections = [
        [struct.pack("<IIII", lay.K, lay.l, lay.d_padded, lay.original_d)],
        [struct.pack("<B7xqI4x", PreprocessSpec.KINDS.index(pre.kind), pre.seed, pre.d_padded),
         np.ascontiguousarray(pre.table, dtype="<i4")],
        [struct.pack("<B7xd", 0 if cov.source == "database" else 1, cov.ridge),
         np.ascontiguousarray(cov.matrices, dtype="<f8")],
        [np.ascontiguousarray(index.codebook.centroids, dtype="<f4")],
        [struct.pack("<II", index.n, C),
         np.ascontiguousarray(index.codes.codes, dtype=code_dtype(C))],
        [struct.pack("<B7x", ids.itemsize), ids],
    ]
    out = [MAGIC, struct.pack("<H2x", FORMAT_VERSION)]
    for parts in sections:
        length = sum(memoryview(p).nbytes for p in parts)
        out += [struct.pack("<Q", length), *parts, bytes(-length % _ALIGN)]
    return out


def predicted_file_size(n: int, K: int, l: int, C: int,
                        id_range: tuple[int, int] | None = None) -> int:
    """Byte count implied by the documented layout, for the size invariant.

    The ids are 0..n-1, as every loader assigns them, unless id_range gives
    their (min, max).
    """
    lo, hi = id_range if id_range is not None else (0, max(n - 1, 0))
    payloads = [16, 24 + K * l * 4, 16 + K * l * l * 8, K * C * l * 4,
                8 + n * K * code_dtype(C).itemsize,
                8 + n * id_dtype(np.array([lo, hi])).itemsize]
    return 8 + sum(8 + p + -p % _ALIGN for p in payloads)


def save_index(index: QuipIndex, path: str) -> None:
    """Write the index to a new file beside path, then rename it over path.

    A reader that has path mapped keeps the old file's pages; writing over a
    mapped file in place would truncate it under them (SIGBUS).  The new file
    is created like a plain open(path, "wb") would create it, so the umask
    sets its mode.  An index the format cannot hold, or any failed write,
    leaves no file behind.
    """
    chunks = _file_chunks(index)
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:  # name the file asked for, not the temporary one
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with open(fd, "wb") as f:
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_index(path: str) -> QuipIndex:
    """Read an index file; any malformed or inconsistent content is a DataError.

    The file is mapped read-only and parsed in place: the arrays are
    read-only views of that map, so a load copies none of the file and
    processes serving one file share its pages.  The map lives as long as
    any of the index's arrays.  A file that cannot be mapped (empty, or a
    pipe) is read into memory and parsed the same way.

    save_index replaces a file by rename, and a loaded index keeps the old
    file's pages.  Replace a file being served the same way (mv, not cp over
    it): truncating a mapped file crashes its readers with SIGBUS.
    """
    # a bare descriptor: a buffered file object cost about 7 us of a 60 us
    # load on a 2-core VM, as much as the parser's finiteness checks
    fd = os.open(path, os.O_RDONLY)
    try:
        buf = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    except (ValueError, OSError):  # an empty file, a pipe, a directory
        try:
            with open(fd, "rb", closefd=False) as f:
                buf = f.read()
        except OSError as e:  # name the path, not the descriptor
            raise OSError(e.errno, e.strerror, path) from None
    finally:
        os.close(fd)
    return _parse_index(buf, path)


def _parse_index(buf, path: str) -> QuipIndex:
    """The index in buf (bytes or a map), its arrays views of buf."""
    if buf[:4] != MAGIC or len(buf) < 8:
        raise DataError(f"{path}: not an index file")
    (version,) = struct.unpack_from("<H", buf, 4)
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: index format version {version}; this reader takes "
                        f"version {FORMAT_VERSION} only")
    view, sections, off = memoryview(buf), [], 8  # sections are views, not copies
    for _ in range(6):
        payload, off = _read_section(view, off, path)
        sections.append(payload)
    if off != len(buf):
        raise DataError(f"{path}: {len(buf) - off} bytes after the last section")
    lay_p, pre_p, cov_p, cb_p, codes_p, ids_p = sections
    _check_size(path, "layout", lay_p, 16)
    K, l, d_padded, original_d = struct.unpack("<IIII", lay_p)
    if K == 0 or l == 0 or K * l != d_padded or original_d > d_padded:
        raise DataError(f"{path}: inconsistent layout K={K} l={l} "
                        f"d_padded={d_padded} original_d={original_d}")
    layout = ChunkLayout(K=K, l=l, d_padded=d_padded, original_d=original_d)
    _check_header(path, "preprocess", pre_p, 24)
    # the kind's 7 zero bytes are read as a u8, u16 and u32, so each must be 0
    kind, z1, z2, z4, seed, pre_d, z_tail = struct.unpack_from("<BBHIqII", pre_p)
    if z1 or z2 or z4 or z_tail:
        raise DataError(f"{path}: preprocess section has a nonzero pad byte")
    if kind >= len(PreprocessSpec.KINDS):
        raise DataError(f"{path}: unknown preprocess kind {kind}")
    if pre_d != d_padded:
        raise DataError(f"{path}: preprocess d_padded {pre_d} differs from the "
                        f"layout's {d_padded}")
    _check_size(path, "preprocess", pre_p, 24 + pre_d * 4)
    try:
        preprocess = PreprocessSpec(kind=PreprocessSpec.KINDS[kind], seed=seed, d_padded=pre_d,
                                    table=np.frombuffer(pre_p[24:], dtype="<i4"))
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
    _check_size(path, "covariance", cov_p, 16 + K * l * l * 8)
    src, ridge = struct.unpack_from("<B7xd", cov_p)
    mats = np.frombuffer(cov_p[16:], dtype="<f8").reshape(K, l, l)
    # count_nonzero is one C call where .all() adds a Python wrapper; every load runs these
    if np.count_nonzero(np.isfinite(mats)) != mats.size:
        raise DataError(f"{path}: covariance holds a non-finite entry")
    cov = SubspaceCovariances(layout=layout, matrices=mats,
                              source="database" if src == 0 else "example_queries",
                              ridge=ridge)
    _check_header(path, "codes", codes_p, 8)
    n, C = struct.unpack_from("<II", codes_p)
    dt = code_dtype(C)
    _check_size(path, "codebook", cb_p, K * C * l * 4)
    _check_size(path, "codes", codes_p, 8 + n * K * dt.itemsize)
    _check_header(path, "ids", ids_p, 8)
    width = ids_p[0]
    if width not in _ID_DTYPES:
        raise DataError(f"{path}: ids width {width} is not 1, 2, 4 or 8 bytes")
    _check_size(path, "ids", ids_p, 8 + n * width)
    cents = np.frombuffer(cb_p, dtype="<f4").reshape(K, C, l)
    if np.count_nonzero(np.isfinite(cents)) != cents.size:
        raise DataError(f"{path}: codebook holds a non-finite centroid")
    codebook = Codebook(layout=layout, centroids=cents)
    codes = np.frombuffer(codes_p[8:], dtype=dt).reshape(n, K)
    # a u8 code is always < 256, so a full-width codebook needs no scan
    if C < 1 << (8 * dt.itemsize) and codes.size and codes.max() >= C:
        raise DataError(f"{path}: code {int(codes.max())} out of range [0, {C})")
    ids = np.frombuffer(ids_p[8:], dtype=_ID_DTYPES[width])
    return _flat_index(codebook, CodeMatrix(codes=codes), preprocess, layout, ids, cov)
