"""Asymmetric-transform LSH baselines: L2 ALSH, Signed ALSH (SRP), Simple LSH.

Each scheme augments database and query vectors differently, then hashes.
SRP-style schemes produce packed binary codes compared by Hamming distance;
L2 ALSH produces integer bucket codes compared by matched-bucket count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AlshParams:
    m: int = 3
    U0: float = 0.85
    r_lsh: float = 2.5


@dataclass(frozen=True)
class BinaryCodeSet:
    """n packed codes of b_bits each (row-major, big-endian bit order per byte)."""

    packed: np.ndarray  # (n, ceil(b/8)) uint8
    b_bits: int


def _scaled(v: np.ndarray, U0: float, max_norm: float) -> np.ndarray:
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    return U0 * v / max_norm


def _sq_norms(x: np.ndarray) -> np.ndarray:
    """x_i . x_i of each row (of a 1-d x itself) as a column, with np.dot's bits;
    np.einsum and np.linalg.norm(x, axis=-1) sum in another order."""
    return np.vecdot(x, x)[..., None]


def _append(v: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """v with tail's columns appended; a 1-d tail repeats on every row."""
    return np.concatenate([v, np.broadcast_to(tail, v.shape[:-1] + tail.shape[-1:])], -1)


def l2_alsh_augment(v: np.ndarray, side: str, params: AlshParams,
                    max_norm: float) -> np.ndarray:
    """Database: [x~; ||x~||^2; ...; ||x~||^(2^m)]. Query: [q; 1/2; ...; 1/2]."""
    v = np.asarray(v, dtype=np.float64)
    if side == "query":
        return _append(v, np.full(params.m, 0.5))
    x = _scaled(v, params.U0, max_norm)
    return _append(x, np.sqrt(_sq_norms(x)) ** (2.0 ** np.arange(1, params.m + 1)))


def signed_alsh_augment(v: np.ndarray, side: str, params: AlshParams,
                        max_norm: float) -> np.ndarray:
    """Database: [x~; 1/2-||x~||^2; ...; 1/2-||x~||^(2^m)]. Query: [q; 0; ...; 0]."""
    v = np.asarray(v, dtype=np.float64)
    if side == "query":
        return _append(v, np.zeros(params.m))
    x = _scaled(v, params.U0, max_norm)
    return _append(x, 0.5 - np.sqrt(_sq_norms(x)) ** (2.0 ** np.arange(1, params.m + 1)))


def simple_lsh_augment(v: np.ndarray, side: str, max_norm: float) -> np.ndarray:
    """Database: [x~; sqrt(1-||x~||^2)] (unit norm). Query: [q/||q||; 0]."""
    v = np.asarray(v, dtype=np.float64)
    if side == "query":
        norms = np.sqrt(_sq_norms(v))
        if (norms == 0).any():
            raise ValueError("zero query has no direction")
        return _append(v / norms, np.zeros(1))
    x = _scaled(v, 1.0, max_norm)
    return _append(x, np.sqrt(np.maximum(1.0 - _sq_norms(x), 0.0)))


def augment_set(data: np.ndarray, scheme: str, side: str, params: AlshParams,
                max_norm: float) -> np.ndarray:
    data = np.atleast_2d(data)
    if scheme == "simple_lsh":
        return simple_lsh_augment(data, side, max_norm)
    fn = {"l2_alsh": l2_alsh_augment, "signed_alsh": signed_alsh_augment}[scheme]
    return fn(data, side, params, max_norm)


def l2_encode(data: np.ndarray, n_hashes: int, r_lsh: float,
              seed: int) -> np.ndarray:
    """Integer bucket codes; projections N(0,1), offsets uniform on [0, r)."""
    if n_hashes < 1:
        raise ValueError(f"need n_hashes >= 1; got {n_hashes}")
    data = np.atleast_2d(data)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_hashes, data.shape[1]))
    b = rng.uniform(0.0, r_lsh, size=n_hashes)
    return np.floor((data @ P.T + b) / r_lsh).astype(np.int64)


def bucket_match_search(db_buckets: np.ndarray, q_buckets: np.ndarray) -> np.ndarray:
    """(B, n) count of hash buckets each of B queries shares with each row."""
    out = np.zeros((len(q_buckets), len(db_buckets)))
    for h in range(db_buckets.shape[1]):
        out += q_buckets[:, h, None] == db_buckets[None, :, h]
    return out


def srp_encode(data: np.ndarray, b_bits: int, seed: int) -> BinaryCodeSet:
    """bit i = 1 iff P_i . v >= 0 (sign(0) counts as +)."""
    if b_bits < 1:
        raise ValueError(f"need b_bits >= 1; got {b_bits}")
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((b_bits, data.shape[1]))
    return BinaryCodeSet(packed=np.packbits(data @ P.T >= 0.0, axis=1), b_bits=b_bits)


def hamming_search(codes: BinaryCodeSet, qcodes: BinaryCodeSet) -> np.ndarray:
    """(B, n) Hamming distance from each of B query codes to each of n codes."""
    if codes.b_bits != qcodes.b_bits:
        raise ValueError("bit width mismatch")
    out = np.zeros((len(qcodes.packed), len(codes.packed)))
    for byte in range(codes.packed.shape[1]):
        out += np.bitwise_count(qcodes.packed[:, byte, None] ^ codes.packed[None, :, byte])
    return out
