"""Asymmetric-transform LSH baselines: L2 ALSH, Signed ALSH (SRP), Simple LSH.

Each scheme augments database and query vectors differently, then hashes.
SRP-style schemes produce packed binary codes ranked by Hamming distance;
L2 ALSH produces integer bucket codes ranked by matched-bucket count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .index import TopNResult, _rank_top_n


@dataclass(frozen=True)
class AlshParams:
    m: int = 3
    U0: float = 0.85
    r_lsh: float = 2.5
    b_bits: int = 64
    seed: int = 0


@dataclass(frozen=True)
class BinaryCodeSet:
    """n packed codes of b_bits each (row-major, big-endian bit order per byte)."""

    packed: np.ndarray  # (n, ceil(b/8)) uint8
    b_bits: int
    scheme: str
    ids: np.ndarray  # (n,) int64


def _scaled(v: np.ndarray, U0: float, max_norm: float) -> np.ndarray:
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    return U0 * v / max_norm


def l2_alsh_augment(v: np.ndarray, side: str, params: AlshParams,
                    max_norm: float) -> np.ndarray:
    """Database: [x~; ||x~||^2; ...; ||x~||^(2^m)]. Query: [q; 1/2; ...; 1/2]."""
    v = np.asarray(v, dtype=np.float64)
    if side == "query":
        return np.concatenate([v, np.full(params.m, 0.5)])
    x = _scaled(v, params.U0, max_norm)
    norms = np.linalg.norm(x) ** (2.0 ** np.arange(1, params.m + 1))
    return np.concatenate([x, norms])


def signed_alsh_augment(v: np.ndarray, side: str, params: AlshParams,
                        max_norm: float) -> np.ndarray:
    """Database: [x~; 1/2-||x~||^2; ...; 1/2-||x~||^(2^m)]. Query: [q; 0; ...; 0]."""
    v = np.asarray(v, dtype=np.float64)
    if side == "query":
        return np.concatenate([v, np.zeros(params.m)])
    x = _scaled(v, params.U0, max_norm)
    norms = np.linalg.norm(x) ** (2.0 ** np.arange(1, params.m + 1))
    return np.concatenate([x, 0.5 - norms])


def simple_lsh_augment(v: np.ndarray, side: str, max_norm: float) -> np.ndarray:
    """Database: [x~; sqrt(1-||x~||^2)] (unit norm). Query: [q/||q||; 0]."""
    v = np.asarray(v, dtype=np.float64)
    if side == "query":
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero query has no direction")
        return np.concatenate([v / norm, [0.0]])
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    x = v / max_norm
    nsq = float(np.dot(x, x))
    return np.concatenate([x, [np.sqrt(max(1.0 - nsq, 0.0))]])


def augment_set(data: np.ndarray, scheme: str, side: str, params: AlshParams,
                max_norm: float) -> np.ndarray:
    fns = {
        "l2_alsh": lambda v: l2_alsh_augment(v, side, params, max_norm),
        "signed_alsh": lambda v: signed_alsh_augment(v, side, params, max_norm),
        "simple_lsh": lambda v: simple_lsh_augment(v, side, max_norm),
    }
    return np.vstack([fns[scheme](row) for row in np.atleast_2d(data)])


def l2_encode(data: np.ndarray, n_hashes: int, r_lsh: float,
              seed: int) -> np.ndarray:
    """Integer bucket codes; projections N(0,1), offsets uniform on [0, r)."""
    data = np.atleast_2d(data)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_hashes, data.shape[1]))
    b = rng.uniform(0.0, r_lsh, size=n_hashes)
    return np.floor((data @ P.T + b) / r_lsh).astype(np.int64)


def bucket_match_search(db_buckets: np.ndarray, q_buckets: np.ndarray,
                        ids: np.ndarray, N: int) -> TopNResult:
    """Rank by the number of hash buckets equal to the query's."""
    matches = np.sum(db_buckets == q_buckets[None, :], axis=1).astype(np.float64)
    return _rank_top_n(ids, matches, N)


def srp_encode(data: np.ndarray, b_bits: int, seed: int,
               ids: np.ndarray | None = None, scheme: str = "signed_alsh") -> BinaryCodeSet:
    """bit i = 1 iff P_i . v >= 0 (sign(0) counts as +)."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((b_bits, data.shape[1]))
    bits = (data @ P.T >= 0.0)
    packed = np.packbits(bits, axis=1)
    if ids is None:
        ids = np.arange(data.shape[0], dtype=np.int64)
    return BinaryCodeSet(packed=packed, b_bits=b_bits, scheme=scheme, ids=ids)


def hamming_search(codes: BinaryCodeSet, qcode: BinaryCodeSet, N: int) -> TopNResult:
    """Ascending Hamming distance (score = -distance), ties by ascending id."""
    if codes.b_bits != qcode.b_bits:
        raise ValueError("bit width mismatch")
    xored = np.bitwise_xor(codes.packed, qcode.packed[0][None, :])
    dists = np.bitwise_count(xored).sum(axis=1).astype(np.float64)
    return _rank_top_n(codes.ids, -dists, N)
