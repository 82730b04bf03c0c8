"""Per-subspace non-centered second-moment matrices and ridge regularization."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .vecstore import ChunkLayout, DenseVectorSet, pad_to


@dataclass(frozen=True)
class SubspaceCovariances:
    """K symmetric l x l matrices, one per block; non-centered (no mean subtraction)."""

    layout: ChunkLayout
    matrices: np.ndarray  # (K, l, l) float64
    source: str  # database | example_queries
    ridge: float = 0.0


def estimate_subspace_covariances(vs: DenseVectorSet, layout: ChunkLayout,
                                  source: str = "database") -> SubspaceCovariances:
    """matrices[k] = (1/n) * sum_i v_i^(k) v_i^(k)T over the padded rows."""
    if vs.n == 0:
        raise ValueError("cannot estimate covariances from an empty set")
    data = pad_to(vs.data, layout.d_padded)
    mats = np.empty((layout.K, layout.l, layout.l))
    for k in range(layout.K):
        blk = layout.block(data, k)
        m = blk.T @ blk / vs.n
        mats[k] = (m + m.T) / 2.0  # clamp accumulation asymmetry
    return SubspaceCovariances(layout=layout, matrices=mats, source=source)


def regularize(cov: SubspaceCovariances, ridge: float) -> SubspaceCovariances:
    """Add ridge * trace(M)/l to each diagonal; keeps the scale of M."""
    if not 0 <= ridge < np.inf:  # NaN fails too
        raise ValueError(f"need a finite ridge >= 0; got {ridge}")
    mats = cov.matrices.copy()
    l = cov.layout.l
    for k in range(cov.layout.K):
        mats[k] += np.eye(l) * (ridge * np.trace(mats[k]) / l)
    return replace(cov, matrices=mats, ridge=ridge)
