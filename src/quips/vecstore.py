"""Dense vector sets: file ingestion, synthetic generation, chunking and preprocessing.

Vectors are stored row-major as float64. Chunking splits a (padded) vector
into K contiguous blocks of equal width l; an optional fixed permutation or
random Hadamard rotation is applied first to spread the norm across blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class DataError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass(frozen=True)
class DenseVectorSet:
    """n x d real matrix with one opaque integer id per row."""

    data: np.ndarray  # (n, d) float64
    ids: np.ndarray  # (n,) int64

    def __post_init__(self):
        if self.data.ndim != 2:
            raise DataError("data must be a 2-d array")
        if len(self.ids) != self.n:
            raise DataError("ids length does not match row count")
        # a sort, not np.unique, whose first call imports numpy.ma
        ordered = np.sort(self.ids)
        if (ordered[1:] == ordered[:-1]).any():
            raise DataError("ids are not unique")
        if not np.all(np.isfinite(self.data)):
            bad = np.argwhere(~np.isfinite(self.data))[0]
            raise DataError(f"non-finite entry at row {bad[0]}")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ChunkLayout:
    """Subspace geometry: K blocks of width l over a zero-padded vector."""

    K: int
    l: int
    d_padded: int
    original_d: int

    def block(self, data: np.ndarray, k: int) -> np.ndarray:
        """View of block k (columns [k*l, (k+1)*l)) of padded row data."""
        return data[..., k * self.l : (k + 1) * self.l]


@dataclass(frozen=True)
class PreprocessSpec:
    """Fixed norm-spreading transform applied to database and queries alike.

    table holds the transform's d_padded int32 entries: 0..d_padded-1 for
    identity, the column permutation, or the Hadamard rotation's +-1 signs.
    Left out, it is drawn once from seed (numpy's default_rng); given, as a
    loaded index gives it, it is checked and nothing is drawn.  It takes no
    part in == and hash: the seed names the transform.
    """

    kind: str  # identity | permutation | hadamard_rotation
    seed: int
    d_padded: int
    table: np.ndarray | None = field(default=None, compare=False, repr=False)

    KINDS = ("identity", "permutation", "hadamard_rotation")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown preprocess kind {self.kind!r}")
        if self.seed < 0:
            raise ValueError(f"preprocess seed must be >= 0; got {self.seed}")
        d = self.d_padded
        if self.kind == "hadamard_rotation" and d & (d - 1):
            raise ValueError("hadamard_rotation requires power-of-2 dimensionality; "
                             f"got d_padded {d}")
        if self.table is None:
            table = _draw_table(self.kind, self.seed, d)
            table.flags.writeable = False
        else:
            table = np.asarray(self.table, dtype="<i4")
            _check_table(self.kind, table, d)
        object.__setattr__(self, "table", table)


def _draw_table(kind: str, seed: int, d: int) -> np.ndarray:
    if kind == "identity":
        return np.arange(d, dtype="<i4")
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return rng.permutation(d).astype("<i4")
    return rng.choice([-1.0, 1.0], size=d).astype("<i4")


def _check_table(kind: str, table: np.ndarray, d: int) -> None:
    """A ValueError unless table holds 0..d-1 (identity), a permutation of
    them, or +-1 signs (hadamard_rotation).  Every load runs it, so it keeps
    to a few numpy calls: a sort and one comparison of bytes."""
    if table.shape != (d,):
        raise ValueError(f"preprocess table has shape {table.shape}; d_padded is {d}")
    if kind == "hadamard_rotation":
        if np.count_nonzero(np.abs(table) != 1):
            raise ValueError("hadamard_rotation table holds an entry other than +-1")
        return
    if kind == "permutation":
        table = table.copy()
        table.sort()
    if table.tobytes() != np.arange(d, dtype="<i4").tobytes():
        raise ValueError(f"{kind} table is not "
                         f"{'a permutation of ' if kind == 'permutation' else ''}0..{d - 1}")


def make_chunk_layout(d: int, K: int) -> ChunkLayout:
    if not 1 <= K <= d:
        raise ValueError(f"K must be in [1, d]; got K={K}, d={d}")
    l = -(-d // K)
    return ChunkLayout(K=K, l=l, d_padded=K * l, original_d=d)


def make_preprocess(kind: str, seed: int, layout: ChunkLayout) -> tuple[PreprocessSpec, ChunkLayout]:
    """Build a preprocess spec for a layout.

    Hadamard rotation needs a power-of-2 width, so the layout may be widened;
    the (possibly re-derived) layout is returned alongside the spec.
    """
    d_padded = layout.d_padded
    if kind == "hadamard_rotation":
        d_padded = 1 << (d_padded - 1).bit_length()  # the next power of 2
        l = -(-d_padded // layout.K)
        layout = ChunkLayout(K=layout.K, l=l, d_padded=layout.K * l,
                             original_d=layout.original_d)
        d_padded = layout.d_padded
        if d_padded & (d_padded - 1):
            raise ValueError("K must divide a power of 2 for hadamard_rotation")
    return PreprocessSpec(kind=kind, seed=seed, d_padded=d_padded), layout


def pad_to(data: np.ndarray, d_padded: int) -> np.ndarray:
    """Zero-pad rows out to d_padded columns (no-op if already wide enough)."""
    d = data.shape[-1]
    if d == d_padded:
        return data
    if d > d_padded:
        raise DataError(f"data has {d} dims, wider than padded target {d_padded}")
    pad = [(0, 0)] * (data.ndim - 1) + [(0, d_padded - d)]
    return np.pad(data, pad)


def _fwht(rows: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform along the last axis.

    Each butterfly stage views the rows as (..., d / 2h, 2, h) pairs of
    half-blocks (a, b) and replaces them with (a + b, a - b); the result is
    rows @ H for the Sylvester-ordered Hadamard matrix H of size d.
    """
    lead, d = rows.shape[:-1], rows.shape[-1]
    h = 1
    while h < d:
        pairs = rows.reshape(*lead, d // (2 * h), 2, h)
        a, b = pairs[..., 0, :], pairs[..., 1, :]
        rows = np.stack((a + b, a - b), axis=-2).reshape(*lead, d)
        h *= 2
    return rows


# Permutation gathers this many rows at a time: a tile's gathered copy stays in
# cache while it is written into the Fortran-ordered result, where one whole
# rows[:, table] writes that result one strided column at a time.
_GATHER_ROWS = 512


def _permute_columns(data: np.ndarray, table: np.ndarray) -> np.ndarray:
    """data[:, table], with its values and its Fortran layout.

    Beyond one tile the columns are gathered a tile of rows at a time into a
    Fortran-ordered array; a query batch of at most one tile takes the single
    fancy index, which is faster at that size.
    """
    n = len(data)
    if n <= _GATHER_ROWS:
        return data[:, table]
    out = np.empty((n, len(table)), order="F")
    for lo in range(0, n, _GATHER_ROWS):
        out[lo:lo + _GATHER_ROWS] = np.take(data[lo:lo + _GATHER_ROWS], table, axis=1)
    return out


def apply_preprocess(vs: DenseVectorSet, spec: PreprocessSpec) -> DenseVectorSet:
    """apply_preprocess_rows over a whole set; ids are kept."""
    return DenseVectorSet(data=apply_preprocess_rows(vs.data, spec), ids=vs.ids.copy())


def apply_preprocess_rows(rows: np.ndarray, spec: PreprocessSpec) -> np.ndarray:
    """Zero-pad rows to spec.d_padded, then apply the fixed transform.

    Inner products are preserved exactly.  Accepts one row or a 2-d array and
    always returns a new array.  A permutation returns Fortran-ordered rows,
    gathered in tiles of _GATHER_ROWS rows.
    """
    rows = np.asarray(rows, dtype=np.float64)
    data = pad_to(np.atleast_2d(rows), spec.d_padded)
    if spec.kind == "identity":
        data = data.copy()
    elif spec.kind == "permutation":
        data = _permute_columns(data, spec.table)
    else:
        data = _fwht(data * spec.table) / np.sqrt(spec.d_padded)
    return data[0] if rows.ndim == 1 else data


def generate_synthetic(n: int, d: int, norm_spread: float, seed: int) -> DenseVectorSet:
    """Unit directions scaled by log-uniform norms over [1, norm_spread]."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if not 1 <= norm_spread < np.inf:  # NaN fails too
        raise ValueError(f"norm_spread must lie in [1, inf); got {norm_spread}")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = np.exp(rng.uniform(0.0, np.log(norm_spread), size=n))
    return DenseVectorSet(data=dirs * norms[:, None], ids=np.arange(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# file formats


def load_vectors(path: str, fmt: str, id_column: bool = False) -> DenseVectorSet:
    if fmt == "fvecs":
        return _load_fvecs(path)
    if fmt == "csv":
        return _load_csv(path, id_column)
    raise ValueError(f"unknown format {fmt!r}")


def _vector_set(path: str, data: np.ndarray, ids: np.ndarray) -> DenseVectorSet:
    """DenseVectorSet whose validation errors name the file they came from."""
    try:
        return DenseVectorSet(data=data, ids=ids)
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def _load_fvecs(path: str) -> DenseVectorSet:
    """All rows must repeat the first row's header d, so the file is viewed
    once as (n, d + 1) int32 records: header, then d float32 bit patterns."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size == 0:
        raise DataError(f"{path}: no vectors")
    if raw.size < 4:
        raise DataError(f"{path}: truncated header at row 0")
    d = int(raw[:4].view("<i4")[0])
    if d <= 0:
        raise DataError(f"{path}: bad dimensionality {d} at row 0")
    n, tail = divmod(raw.size, 4 * (d + 1))
    records = raw[: raw.size - tail].view("<i4").reshape(n, d + 1)
    bad = np.flatnonzero(records[:, 0] != d)
    if bad.size:
        row = int(bad[0])
        raise DataError(f"{path}: row {row} has dimensionality {records[row, 0]}, "
                        f"expected {d}")
    if tail:
        raise DataError(f"{path}: truncated vector at row {n}")
    data = records[:, 1:].view("<f4").astype(np.float64)
    return _vector_set(path, data, np.arange(n, dtype=np.int64))


def save_fvecs(vs: DenseVectorSet, path: str) -> None:
    """Write the rows as one (n, d + 1) array of int32 records: the header d,
    then the row's float32 bit patterns."""
    records = np.empty((vs.n, vs.d + 1), dtype="<i4")
    records[:, 0] = vs.d
    records[:, 1:].view("<f4")[...] = vs.data
    with open(path, "wb") as f:
        records.tofile(f)


def _load_csv(path: str, id_column: bool) -> DenseVectorSet:
    rows, ids = [], []
    with open(path) as f:
        lines = [ln.strip() for ln in f if ln.strip()]
    if not lines:
        raise DataError(f"{path}: no vectors")
    for i, line in enumerate(lines):
        fields = line.split(",")
        try:
            if id_column:
                ids.append(int(fields[0]))
                rows.append([float(x) for x in fields[1:]])
            else:
                rows.append([float(x) for x in fields])
        except ValueError as e:
            raise DataError(f"{path}: malformed record at row {i}: {e}") from e
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        bad = next(i for i, r in enumerate(rows) if len(r) != len(rows[0]))
        raise DataError(f"{path}: row {bad} has {len(rows[bad])} fields, expected {len(rows[0])}")
    idarr = np.asarray(ids, dtype=np.int64) if id_column else np.arange(len(rows), dtype=np.int64)
    return _vector_set(path, np.asarray(rows, dtype=np.float64), idarr)
