"""Quantization-based maximum inner product search with LSH baselines and
a partitioned-scan hybrid."""

from .covariance import SubspaceCovariances, estimate_subspace_covariances, regularize
from .index import (QuipIndex, TopNResult, approximate_inner_product, build_index,
                    build_lookup_table, encode_database, exact_top_n, load_index,
                    save_index, search_batch, search_top_n)
from .train import (Codebook, CodeMatrix, ConstraintTriplet, TrainConfig,
                    train_quip, train_quip_opt)
from .vecstore import (ChunkLayout, DenseVectorSet, PreprocessSpec,
                       apply_preprocess, generate_synthetic,
                       load_vectors, make_chunk_layout, make_preprocess,
                       save_fvecs)

__all__ = [name for name in dir() if not name.startswith("_")]
