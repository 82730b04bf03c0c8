import dataclasses
import mmap
import os
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quips.index
from quips.covariance import SubspaceCovariances, estimate_subspace_covariances, regularize
from quips.index import (_rank_rows, _rank_top_n, approximate_inner_product, build_index,
                         build_lookup_table, code_dtype, encode_database,
                         exact_top_n, id_dtype, load_index, _file_chunks,
                         predicted_file_size, save_index, search_batch, search_top_n,
                         table_scores)
from quips.train import (Codebook, CodeMatrix, TrainConfig, mahalanobis_assign, train_quip,
                         _assign_tile_rows, _blocks_of)
from quips.vecstore import (DataError, DenseVectorSet, PreprocessSpec, apply_preprocess,
                            apply_preprocess_rows, make_chunk_layout, make_preprocess)

import reference
from reference import make_set


def index_to_bytes(index):
    """The bytes save_index writes for index."""
    return b"".join(_file_chunks(index))


def section_offset(raw, i):
    """Where the payload of the file's i-th section (0 = layout) starts: an
    8-byte file header, then per section an 8-byte length, the payload and
    zero padding to a multiple of 8."""
    off = 8
    for _ in range(i):
        length = int.from_bytes(raw[off:off + 8], "little")
        off += 8 + length + -length % 8
    return off + 8


def random_index(n, d, K, C, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    vs = make_set(data)
    layout = make_chunk_layout(d, K)
    cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
    cb = Codebook(layout=layout, centroids=rng.standard_normal((K, C, layout.l)))
    codes = CodeMatrix(codes=rng.integers(0, C, size=(n, K)).astype(np.int32))
    spec = PreprocessSpec(kind="identity", seed=0, d_padded=layout.d_padded)
    return vs, build_index(vs, cb, codes, spec, cov)


class TestEncode:
    def test_training_set_reproduces_codes(self):
        rng = np.random.default_rng(0)
        vs = make_set(rng.standard_normal((50, 4)))
        layout = make_chunk_layout(4, 2)
        cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
        cb, codes, _ = train_quip(vs, cov, TrainConfig(K=2, C=4, T=50, seed=0))
        re = encode_database(vs, cb, cov, layout)
        np.testing.assert_array_equal(re.codes, codes.codes)

    def test_exact_codebook_roundtrip(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((6, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        blocks = _blocks_of(data, layout)
        cb = Codebook(layout=layout, centroids=np.stack(blocks))
        cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
        codes = encode_database(vs, cb, cov, layout)
        decoded = np.hstack([cb.centroids[k][codes.codes[:, k]] for k in range(2)])
        np.testing.assert_allclose(decoded, data, atol=1e-12)

    def test_every_code_optimal_by_exhaustive_scan(self):
        rng = np.random.default_rng(2)
        train = make_set(rng.standard_normal((60, 6)))
        layout = make_chunk_layout(6, 3)
        cov = regularize(estimate_subspace_covariances(train, layout), 1e-6)
        cb, _, _ = train_quip(train, cov, TrainConfig(K=3, C=5, T=10, seed=0))
        fresh = make_set(rng.standard_normal((20, 6)))
        codes = encode_database(fresh, cb, cov, layout)
        blocks = _blocks_of(fresh.data, layout)
        for k in range(3):
            cents = np.asarray(cb.centroids[k], dtype=np.float64)
            for i in range(20):
                x = blocks[k][i]
                dists = [(x - c) @ cov.matrices[k] @ (x - c) for c in cents]
                best = min(dists)
                got = dists[codes.codes[i, k]]
                assert got <= best + 1e-9


def assert_encodes_as_whole_matrix(vs, cb, cov, layout):
    got = encode_database(vs, cb, cov, layout).codes
    assert got.dtype == np.int32
    assert got.tobytes() == reference.encode(vs.data, cb.centroids, cov.matrices).tobytes(), vs.n


def encode_instance(n, d, K, C, kind="permutation", dtype=np.float64, seed=0):
    """n preprocessed rows, a random codebook and a covariance from other rows."""
    rng = np.random.default_rng([n, d, K, C, seed])
    spec, layout = make_preprocess(kind, seed, make_chunk_layout(d, K))
    vs = apply_preprocess(make_set(rng.standard_normal((n, d)) * 3), spec)
    sample = apply_preprocess(make_set(rng.standard_normal((500, d)) * 3), spec)
    cov = regularize(estimate_subspace_covariances(sample, layout), 1e-6)
    cb = Codebook(layout=layout,
                  centroids=(rng.standard_normal((K, C, layout.l)) * 3).astype(dtype))
    return vs, cb, cov, layout


def encode_sizes(C):
    """Row counts at and around the assignment tile and 8,192-row edges."""
    tile = _assign_tile_rows(C)
    return sorted({1, 2, tile - 1, tile, tile + 1, 8191, 8192, 8193, 16385})


class TestStreamedEncode:
    """encode_database assigns over each subspace's column view of the rows;
    its codes must equal the encoding of contiguous block copies bit for bit."""

    @pytest.mark.parametrize("C", [16, 256, 300])
    def test_equals_whole_matrix(self, C):
        for n in encode_sizes(C):
            assert_encodes_as_whole_matrix(*encode_instance(n, 64, 8, C))

    @pytest.mark.parametrize("C", [256, 300])
    def test_width_64_equals_whole_matrix(self, C):
        # K=1: one 64-wide block, where a differently tiled GEMM could round
        # differently
        for n in encode_sizes(C)[1::2]:
            assert_encodes_as_whole_matrix(*encode_instance(n, 64, 1, C))

    @pytest.mark.parametrize("eps", [0.0, 1e-14])
    def test_width_64_near_ties(self, eps):
        # rows near twin centroids tie to the last bit, so a GEMM over rows
        # off the tile grid (which rounds differently at this width) flips
        # codes.  The whole-matrix reference is such a GEMM, so here the
        # column views are held to the library's own assignment of
        # contiguous block copies
        n = encode_sizes(300)[-1]
        vs, cb, cov, layout = encode_instance(n, 64, 1, 300)
        rng = np.random.default_rng(1)
        cents = cb.centroids.copy()
        cents[:, 150:] = cents[:, :150] * (1 + eps)
        data = vs.data.copy()
        data[::2] = (cents[0, rng.integers(0, 150, len(data[::2]))]
                     + 1e-3 * rng.standard_normal((len(data[::2]), 64)))
        got = encode_database(make_set(data), Codebook(layout=layout, centroids=cents), cov,
                              layout).codes
        want = mahalanobis_assign(np.ascontiguousarray(data), cents[0], cov.matrices[0])
        assert got[:, 0].tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", PreprocessSpec.KINDS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_preprocess_kinds_and_padding(self, kind, dtype):
        for n in (513, 8193):  # one past a tile (C=256) and past 8,192 rows
            assert_encodes_as_whole_matrix(*encode_instance(n, 60, 8, 256, kind, dtype))

    @pytest.mark.parametrize("C", [16, 256, 300])
    def test_pool_equals_serial(self, pooled_and_serial, C):
        for n in encode_sizes(C):
            vs, cb, cov, layout = encode_instance(n, 64, 8, C)
            pooled, serial = pooled_and_serial(
                lambda: encode_database(vs, cb, cov, layout).codes)
            assert pooled.tobytes() == serial.tobytes(), n

    def test_holds_no_copy_of_the_database(self):
        for kind in ("permutation", "identity"):  # F- and C-ordered rows
            vs, cb, cov, layout = encode_instance(100_000, 64, 8, 256, kind)
            tracemalloc.start()
            try:
                encode_database(vs, cb, cov, layout)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the K per-subspace code arrays and their (n, K) stack are 1/8 of it
            assert peak < vs.data.nbytes / 6, kind


class TestLookupTable:
    def test_zero_query(self):
        _, index = random_index(5, 4, 2, 3, seed=3)
        t = build_lookup_table(np.zeros(4), index.codebook)
        np.testing.assert_array_equal(t, 0.0)

    def test_hand_case(self):
        layout = make_chunk_layout(2, 1)
        cb = Codebook(layout=layout,
                      centroids=np.array([[[3.0, 4.0], [0.0, 7.0]]]))
        t = build_lookup_table(np.array([1.0, 0.0]), cb)
        np.testing.assert_array_equal(t, [[3.0, 0.0]])

    def test_scalar_loop_oracle(self):
        rng = np.random.default_rng(4)
        _, index = random_index(5, 8, 4, 6, seed=4)
        q = rng.standard_normal(8)
        t = build_lookup_table(q, index.codebook)
        for k in range(4):
            for c in range(6):
                acc = 0.0
                for i in range(2):
                    acc += q[k * 2 + i] * float(index.codebook.centroids[k, c, i])
                assert t[k, c] == pytest.approx(acc, abs=1e-6)


class TestBatchedLookupTable:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_per_block_loop(self, data):
        """The batched table equals the per-block loop bit for bit.

        The library builds tables for float32 centroids of width
        l = d_padded / K: l=8 at the benchmark's and the CLI's default
        d=64, K=8, with C of 4 to 300 in the tests and 256 by default.
        Drawn here: l in {1, 2, 3, 5, 8, 16, 17, 32, 64, 128}, C in
        {1, 2, 16, 100, 256, 300, 1024}, K in {1, 3, 8}, and queries with
        zero blocks, +-0 entries and magnitudes from 1e-3 to 1e3.  Each table
        entry is one length-l dot product in both forms; a BLAS whose batched
        product rounds differently from its single product fails here.
        """
        l = data.draw(st.sampled_from([1, 2, 3, 5, 8, 16, 17, 32, 64, 128]), label="l")
        C = data.draw(st.sampled_from([1, 2, 16, 100, 256, 300, 1024]), label="C")
        K = data.draw(st.sampled_from([1, 3, 8]), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        layout = make_chunk_layout(K * l, K)
        cb = Codebook(layout=layout,
                      centroids=rng.standard_normal((K, C, l)).astype(np.float32))
        q = rng.uniform(1.0, 10.0, K * l) * 10.0 ** rng.integers(-3, 3, K * l)
        q *= rng.choice([-1.0, 1.0], K * l)
        q[rng.random(K * l) < data.draw(st.sampled_from([0.0, 0.3]), label="zeros")] = 0.0
        q[rng.random(K * l) < 0.1] = -0.0
        for k in data.draw(st.sets(st.integers(0, K - 1)), label="zero blocks"):
            q[k * l:(k + 1) * l] = 0.0
        got = build_lookup_table(q, cb)
        assert got.shape == (K, C)
        assert got.tobytes() == reference.table(q, cb.centroids).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_batch_matches_per_query_loop(self, data):
        """A (B, d_padded) batch's (K, C, B) table equals the one-query
        tables stacked on the last axis, bit for bit.

        Drawn: K in {1, 2, 8, 64}, l in {1, 3, 8, 17, 64}, C in {16, 100,
        256, 1024}, B in {1, 2, 7, 64, 200} (cut so a table stays under
        2**21 entries), float32 or float64 centroids, and batches that are
        C-ordered, F-ordered, column-permuted (as a permutation preprocessing
        leaves them) or every other row of a larger batch.
        """
        K = data.draw(st.sampled_from([1, 2, 8, 64]), label="K")
        l = data.draw(st.sampled_from([1, 3, 8, 17, 64]), label="l")
        C = data.draw(st.sampled_from([16, 100, 256, 1024]), label="C")
        B = data.draw(st.sampled_from([1, 2, 7, 64, 200]), label="B")
        B = max(1, min(B, (1 << 21) // (K * C)))
        dtype = data.draw(st.sampled_from([np.float32, np.float64]), label="dtype")
        order = data.draw(st.sampled_from(["C", "F", "permuted", "strided"]), label="order")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        cb = Codebook(layout=make_chunk_layout(K * l, K),
                      centroids=rng.standard_normal((K, C, l)).astype(dtype))
        Q = rng.standard_normal((2 * B, K * l)) * 10.0 ** rng.integers(-3, 3, (2 * B, 1))
        Q = {"C": Q[:B], "F": np.asfortranarray(Q[:B]),
             "permuted": Q[:B, rng.permutation(K * l)], "strided": Q[::2]}[order]
        got = build_lookup_table(Q, cb)
        assert got.shape == (K, C, B) and got.flags.c_contiguous
        want = np.stack([build_lookup_table(q, cb) for q in Q], axis=-1)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(13,), (4, 11), (2, 3, 12), ()])
    def test_rejects_other_shapes(self, shape):
        _, index = random_index(5, 12, 3, 4, seed=6)  # d_padded 12
        with pytest.raises(ValueError):
            build_lookup_table(np.zeros(shape), index.codebook)

    @pytest.mark.parametrize("K,C,d", [(3, 1, 10), (3, 4, 12), (8, 16, 64)])
    def test_strided_query_row(self, K, C, d):
        """A row of a column-permuted batch is strided; its table has the
        bits of the same query held contiguously."""
        spec, layout = make_preprocess("permutation", 3, make_chunk_layout(d, K))
        rng = np.random.default_rng(d)
        cb = Codebook(layout=layout,
                      centroids=rng.standard_normal((K, C, layout.l)).astype(np.float32))
        Qp = apply_preprocess_rows(rng.standard_normal((5, d)), spec)
        for q in Qp:
            got = build_lookup_table(q, cb)
            assert got.tobytes() == build_lookup_table(q.copy(), cb).tobytes()


class TestApproximateInnerProduct:
    def test_zero_table(self):
        assert approximate_inner_product(np.zeros((3, 4)), np.zeros(3, dtype=int)) == 0.0

    def test_two_term_sum(self):
        vals = np.zeros((2, 4))
        vals[0, 1] = 1.5
        vals[1, 2] = -0.5
        assert approximate_inner_product(vals, np.array([1, 2])) == 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            approximate_inner_product(np.zeros((2, 4)), np.array([0, 4]))

    def test_bit_identical_to_table_scores(self):
        rng = np.random.default_rng(5)
        _, index = random_index(50, 8, 4, 6, seed=5)
        q = rng.standard_normal(8)
        t = build_lookup_table(q, index.codebook)
        vec = table_scores(t, index.codes.codes)
        for i in range(50):
            assert vec[i] == approximate_inner_product(t, index.codes.codes[i])


class TestSearch:
    def test_n_ge_all(self):
        vs, index = random_index(10, 4, 2, 3, seed=6)
        res = search_top_n(index, np.ones(4), 100)
        assert len(res.ids) == 10
        assert set(res.ids) == set(range(10))
        assert np.all(np.diff(res.scores) <= 0)

    def test_exact_codebook_matches_exact_search(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((8, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        blocks = _blocks_of(data, layout)
        cb = Codebook(layout=layout, centroids=np.stack(blocks).astype(np.float32))
        codes = CodeMatrix(codes=np.tile(np.arange(8, dtype=np.int32)[:, None], (1, 2)))
        cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=4)
        index = build_index(vs, cb, codes, spec, cov)
        q = rng.standard_normal(4)
        approx = search_top_n(index, q, 8)
        exact = exact_top_n(vs, q, 8)
        np.testing.assert_array_equal(approx.ids, exact.ids)

    def test_empty_index(self):
        vs, index = random_index(5, 4, 2, 3, seed=9)
        with pytest.raises(ValueError):
            search_top_n(index, np.ones(4), 0)


SPECIAL_SCORES = [0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan]


class TestRankTopN:
    """The partial selector against the full lexsort it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_matches_full_lexsort(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        # a pool of 1-4 values makes heavy ties, all-equal when it has one
        pool = data.draw(st.lists(st.sampled_from(SPECIAL_SCORES)
                                  | st.floats(-4.0, 4.0, width=16),
                                  min_size=1, max_size=4), label="pool")
        scores = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n,
                                             max_size=n), label="scores"))
        ids = np.array(data.draw(st.lists(st.integers(-10**6, 10**6), min_size=n,
                                          max_size=n, unique=True), label="ids"),
                       dtype=np.int64)
        N = data.draw(st.integers(1, n + 3), label="N")
        want_ids, want_scores = reference.top_n(ids, scores, N)
        res = _rank_top_n(ids, scores, N)
        np.testing.assert_array_equal(res.ids, want_ids)
        assert res.scores.tobytes() == want_scores.tobytes()
        assert res.ids.dtype == np.int64

    def test_ties_straddling_the_cut_break_by_id(self):
        scores = np.array([1.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.0])
        ids = np.array([9, 8, 7, 1, 5, 3, 2])
        res = _rank_top_n(ids, scores, 3)
        np.testing.assert_array_equal(res.ids, [8, 1, 3])
        np.testing.assert_array_equal(res.scores, [3.0, 2.0, 2.0])


class TestRankRows:
    """The one blocked ranking loop against a plain per-row _rank_top_n."""

    @pytest.mark.parametrize("n_queries", [1, 5, 6, 7, 13])
    def test_equals_per_row_rank_top_n(self, n_queries, monkeypatch):
        monkeypatch.setattr(quips.index, "_BLOCK_SCORES", 6 * 50 + 5)  # 6 queries a block
        rng = np.random.default_rng(n_queries)
        Q = rng.standard_normal((n_queries, 4))
        data = np.repeat(rng.integers(-3, 4, (25, 4)), 2, axis=0).astype(np.float64)  # ties
        ids = rng.permutation(50) + 100
        blocks = []

        def scores_of(block):
            blocks.append(block @ data.T)
            return blocks[-1]

        tops = list(_rank_rows(Q, ids, scores_of, 10))
        assert [len(b) for b in blocks] == [6] * (n_queries // 6) + [n_queries % 6] * (
            n_queries % 6 > 0)
        assert len(tops) == n_queries
        for top, scores in zip(tops, np.concatenate(blocks)):
            want = _rank_top_n(ids, scores, 10)
            np.testing.assert_array_equal(top.ids, want.ids)
            assert top.scores.tobytes() == want.scores.tobytes()


def _index_for(kind, C, n=300, d=12, K=4, seed=0):
    rng = np.random.default_rng(seed)
    spec, layout = make_preprocess(kind, seed, make_chunk_layout(d, K))
    vs = make_set(rng.standard_normal((n, layout.d_padded)),
                  ids=rng.permutation(n) + 1000)
    cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
    cb = Codebook(layout=layout, centroids=rng.standard_normal((K, C, layout.l)))
    codes = CodeMatrix(codes=rng.integers(0, C, size=(n, K)).astype(np.int32))
    return build_index(vs, cb, codes, spec, cov)


class TestSearchBatch:
    @pytest.mark.parametrize("tiny_tiles", [False, True])
    @pytest.mark.parametrize("C", [16, 300])
    @pytest.mark.parametrize("kind", ["identity", "permutation", "hadamard_rotation"])
    def test_rows_equal_single_searches(self, kind, C, tiny_tiles, monkeypatch):
        if tiny_tiles:  # many row tiles and query blocks, ragged last ones
            monkeypatch.setattr(quips.index, "_TILE_SCORES", 50)
            monkeypatch.setattr(quips.index, "_BLOCK_SCORES", 1000)
        index = _index_for(kind, C)
        assert index.codes.codes.dtype == code_dtype(C)
        Q = np.random.default_rng(1).standard_normal((9, 12))
        for N in (1, 10, index.n + 5):
            ids, scores = search_batch(index, Q, N)
            assert ids.shape == scores.shape == (9, min(N, index.n))
            for b, q in enumerate(Q):
                one = search_top_n(index, q, N)
                np.testing.assert_array_equal(ids[b], one.ids)
                assert scores[b].tobytes() == one.scores.tobytes()

    def test_stacked_table_matches_scalar_oracle(self, monkeypatch):
        monkeypatch.setattr(quips.index, "_TILE_SCORES", 50)
        index = _index_for("permutation", 16, n=120)
        Qp = apply_preprocess_rows(np.random.default_rng(2).standard_normal((7, 12)),
                                   index.preprocess)
        scores = table_scores(build_lookup_table(Qp, index.codebook), index.codes.codes)
        assert scores.shape == (7, 120)
        for b, qp in enumerate(Qp):
            t = build_lookup_table(qp, index.codebook)
            for i, row in enumerate(index.codes.codes):
                assert scores[b, i] == approximate_inner_product(t, row)

    def test_rejects_bad_arguments(self):
        index = _index_for("identity", 16, n=20)
        with pytest.raises(ValueError):
            search_batch(index, np.ones((2, 12)), 0)
        with pytest.raises(ValueError):
            search_batch(index, np.ones((2, 3, 12)), 5)

    def test_build_index_rejects_out_of_range_codes(self):
        rng = np.random.default_rng(3)
        vs = make_set(rng.standard_normal((4, 4)))
        layout = make_chunk_layout(4, 2)
        cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
        cb = Codebook(layout=layout, centroids=rng.standard_normal((2, 8, 2)))
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=4)
        for bad in (8, -1):
            codes = np.zeros((4, 2), dtype=np.int32)
            codes[2, 1] = bad
            with pytest.raises(ValueError, match="codes"):
                build_index(vs, cb, CodeMatrix(codes=codes), spec, cov)


class TestQueryPreconditions:
    """search_top_n and search_batch reject a query they cannot answer."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query(self, bad):
        index = _index_for("permutation", 16, n=50)
        q = np.ones(12)
        q[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            search_top_n(index, q, 3)
        Q = np.ones((3, 12))
        Q[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            search_batch(index, Q, 3)

    @pytest.mark.parametrize("width", [8, 11, 13, 16])
    def test_wrong_width(self, width):
        # 12 dims padded to 16 by the rotation: 16 was once accepted as-is
        index = _index_for("hadamard_rotation", 16, n=50)
        assert index.layout.original_d == 12 and index.layout.d_padded == 16
        with pytest.raises(ValueError, match=f"queries have {width} dims, the index wants 12"):
            search_top_n(index, np.ones(width), 3)
        with pytest.raises(ValueError, match="the index wants 12"):
            search_batch(index, np.ones((2, width)), 3)


class TestExactTopN:
    def test_scaled_copy_wins(self):
        vs = make_set([[1.0, 0.0], [2.0, 0.0]])
        res = exact_top_n(vs, np.array([1.0, 0.0]), 1)
        assert res.ids[0] == 1 and res.scores[0] == 2.0

    def test_zero_query_ties_ascending(self):
        vs = make_set(np.random.default_rng(10).standard_normal((6, 3)))
        res = exact_top_n(vs, np.zeros(3), 6)
        np.testing.assert_array_equal(res.ids, np.arange(6))

    def test_independent_loop_oracle(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((200, 5))
        vs = make_set(data)
        q = rng.standard_normal(5)
        res = exact_top_n(vs, q, 200)
        scores = []
        for row in data:
            acc = 0.0
            for a, b in zip(row, q):
                acc += a * b
            scores.append(acc)
        order = np.lexsort((np.arange(200), -np.asarray(scores)))
        np.testing.assert_array_equal(res.ids, order)

    def test_append_preserves_relative_order(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((30, 4))
        q = rng.standard_normal(4)
        before = exact_top_n(make_set(data), q, 30)
        extended = np.vstack([data, rng.standard_normal((1, 4))])
        after = exact_top_n(make_set(extended), q, 31)
        kept = [i for i in after.ids if i < 30]
        np.testing.assert_array_equal(kept, before.ids)


def _one_row_index(C):
    layout = make_chunk_layout(1, 1)
    return build_index(
        DenseVectorSet(data=np.zeros((1, 1)), ids=np.array([7], dtype=np.int64)),
        Codebook(layout=layout, centroids=np.zeros((1, C, 1), dtype=np.float32)),
        CodeMatrix(codes=np.array([[C - 1]], dtype=code_dtype(C))),
        PreprocessSpec(kind="identity", seed=0, d_padded=1),
        SubspaceCovariances(layout=layout, matrices=np.ones((1, 1, 1)), source="database"))


class TestPersistence:
    def test_C_beyond_u16_roundtrips(self, tmp_path):
        # the codes section stores C as a u32; 65,536 codes still fit a u16
        path = str(tmp_path / "big.quip")
        for C in (1 << 16, (1 << 16) + 1):
            save_index(_one_row_index(C), path)
            loaded = load_index(path)
            assert loaded.codebook.C == C
            assert loaded.codes.codes.dtype == code_dtype(C)
            np.testing.assert_array_equal(loaded.codes.codes, [[C - 1]])

    def test_largest_C_in_format_roundtrips(self, tmp_path):
        path = str(tmp_path / "edge.quip")
        index = _one_row_index(0xFFFF)
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.codebook.C == 0xFFFF
        np.testing.assert_array_equal(loaded.codes.codes, [[0xFFFE]])

    @pytest.mark.parametrize("C, dtype", [(256, "<u1"), (257, "<u2"), (1 << 16, "<u2"),
                                          ((1 << 16) + 1, "<u4")])
    def test_code_dtype_holds_every_code(self, C, dtype):
        assert code_dtype(C) == np.dtype(dtype)
        assert np.iinfo(code_dtype(C)).max >= C - 1

    @pytest.mark.parametrize("C", [16, 300])
    def test_load_keeps_narrow_codes(self, tmp_path, C):
        index = _index_for("permutation", C)
        path = str(tmp_path / "i.quip")
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.codes.codes.dtype == code_dtype(C)
        np.testing.assert_array_equal(loaded.codes.codes, index.codes.codes)
        Q = np.random.default_rng(4).standard_normal((6, 12))
        a, b = search_batch(index, Q, 10), search_batch(loaded, Q, 10)
        np.testing.assert_array_equal(a[0], b[0])
        assert a[1].tobytes() == b[1].tobytes()

    def test_file_size_matches_layout(self, tmp_path):
        _, index = random_index(40, 8, 4, 16, seed=14)
        path = str(tmp_path / "i.quip")
        save_index(index, path)
        import os
        assert os.path.getsize(path) == predicted_file_size(
            n=40, K=4, l=index.layout.l, C=16)

    def test_load_and_search_start_no_thread(self, tmp_path):
        # set-up may start a worker pool; serving must not
        _, index = random_index(300, 8, 2, 16, 0)
        path = str(tmp_path / "i.quip")
        save_index(index, path)
        script = (
            "import sys, threading\n"
            "import numpy as np\n"
            "from quips.index import load_index, search_batch\n"
            "before = threading.active_count()\n"
            "index = load_index(sys.argv[1])\n"
            "search_batch(index, np.ones((3, 8)), 5)\n"
            "print('concurrent.futures' in sys.modules, threading.active_count() - before)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
        out = subprocess.run([sys.executable, "-c", script, path], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "0"]

    def test_save_load_save_identical(self, tmp_path):
        _, index = random_index(20, 4, 2, 4, seed=15)
        raw = index_to_bytes(index)
        p = tmp_path / "x.quip"
        p.write_bytes(raw)
        assert index_to_bytes(load_index(str(p))) == raw

    @staticmethod
    def _saved(tmp_path, C):
        _, index = random_index(30, 8, 4, C, seed=17)
        raw = bytearray(index_to_bytes(index))
        first_code = section_offset(raw, 4) + 8  # after the codes' u32 n and u32 C
        return index, raw, first_code, tmp_path / "x.quip"

    def test_every_truncation_is_data_error(self, tmp_path):
        _, raw, _, p = self._saved(tmp_path, 16)
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(DataError):
                load_index(str(p))

    def test_trailing_bytes_are_data_error(self, tmp_path):
        _, raw, _, p = self._saved(tmp_path, 16)
        p.write_bytes(raw + b"\0")
        with pytest.raises(DataError, match="after the last section"):
            load_index(str(p))

    def test_section_disagreeing_with_header_is_data_error(self, tmp_path):
        _, raw, first_code, p = self._saved(tmp_path, 16)
        raw[first_code - 8 : first_code - 4] = (31).to_bytes(4, "little")  # n
        p.write_bytes(raw)
        with pytest.raises(DataError, match="codes section holds"):
            load_index(str(p))

    @pytest.mark.parametrize("C, bad", [(16, 16), (16, 255), (300, 300), (300, 65535)])
    def test_out_of_range_code_is_data_error(self, tmp_path, C, bad):
        _, raw, first_code, p = self._saved(tmp_path, C)
        width = code_dtype(C).itemsize
        raw[first_code + 5 * width : first_code + 6 * width] = bad.to_bytes(width, "little")
        p.write_bytes(raw)
        with pytest.raises(DataError, match=f"code {bad} out of range"):
            load_index(str(p))

    # the covariance's first 16 bytes are its source, 7 zero bytes and ridge
    @pytest.mark.parametrize("section, skip, value, message", [
        (2, 16, np.float64(np.inf), "covariance holds a non-finite entry"),
        (2, 16 + 8 * 7, np.float64(-np.inf), "covariance holds a non-finite entry"),
        (3, 0, np.float32(np.nan), "codebook holds a non-finite centroid"),
        (3, 4 * 50, np.float32(np.inf), "codebook holds a non-finite centroid"),
    ])
    def test_non_finite_value_is_data_error(self, tmp_path, section, skip, value, message):
        _, raw, _, p = self._saved(tmp_path, 16)
        at = section_offset(raw, section) + skip
        raw[at:at + value.nbytes] = value.tobytes()
        p.write_bytes(raw)
        with pytest.raises(DataError, match=message):
            load_index(str(p))

    def test_full_width_codes_load(self, tmp_path):
        index, raw, first_code, p = self._saved(tmp_path, 256)
        raw[first_code] = 255
        p.write_bytes(raw)
        assert load_index(str(p)).codes.codes[0, 0] == 255

    def test_code_bytes(self):
        _, small = random_index(10, 8, 4, 256, seed=16)
        assert small.bits_per_vector == 32
        raw = index_to_bytes(small)
        # one byte per (vector, subspace) when C <= 256
        assert len(raw) == predicted_file_size(10, 4, small.layout.l, 256)


# the values at which id_dtype must step to a wider type
ID_EDGES = [-128, 127, -129, 128, 32_767, -32_769, 2**31 - 1, -2**31 - 1, 2**63 - 1, -2**63]


def _arrays(x):
    """Every numpy array held by a (nested) dataclass."""
    if isinstance(x, np.ndarray):
        return [x]
    if dataclasses.is_dataclass(x):
        return [a for f in dataclasses.fields(x) for a in _arrays(getattr(x, f.name))]
    return []


class TestIdWidths:
    @pytest.mark.parametrize("ids, dtype", [
        ([], "<i1"), ([-128, 127], "<i1"), ([0, 128], "<i2"), ([-129], "<i2"),
        ([32_767, -32_768], "<i2"), ([-32_769], "<i4"), ([2**31 - 1, -2**31], "<i4"),
        ([-2**31 - 1], "<i8"), ([2**31], "<i8"), ([2**63 - 1, -2**63], "<i8")])
    def test_id_dtype_is_the_narrowest(self, ids, dtype):
        assert id_dtype(np.array(ids, dtype=np.int64)) == np.dtype(dtype)

    @settings(max_examples=40, deadline=None)
    @given(ids=st.lists(st.sampled_from(ID_EDGES) | st.integers(-300, 300),
                        min_size=1, max_size=13, unique=True),
           C=st.sampled_from([3, 16, 300]), seed=st.integers(0, 2**16))
    def test_save_load_search_roundtrip(self, tmp_path_factory, ids, C, seed):
        # K=3 and odd row counts leave codes and ids sections that need padding
        rng = np.random.default_rng(seed)
        n, K = len(ids), 3
        vs = make_set(rng.standard_normal((n, 6)), ids=ids)
        layout = make_chunk_layout(6, K)
        cb = Codebook(layout=layout, centroids=rng.standard_normal((K, C, 2)))
        codes = CodeMatrix(codes=rng.integers(0, C, size=(n, K)))
        cov = SubspaceCovariances(layout=layout, matrices=np.ones((K, 2, 2)), source="database")
        index = build_index(vs, cb, codes, PreprocessSpec("identity", 0, 6), cov)
        assert index.ids.dtype == id_dtype(vs.ids)
        path = str(tmp_path_factory.mktemp("ids") / "i.quip")
        save_index(index, path)
        assert os.path.getsize(path) == predicted_file_size(
            n, K, 2, C, id_range=(min(ids), max(ids)))
        loaded = load_index(path)
        assert loaded.ids.dtype == index.ids.dtype
        assert loaded.ids.tolist() == ids
        base = loaded.ids
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base.obj, mmap.mmap)
        for a in _arrays(loaded):
            assert a.ctypes.data % 8 == 0
        Q = rng.standard_normal((4, 6))
        got_ids, got_scores = search_batch(loaded, Q, n)
        want_ids, want_scores = search_batch(index, Q, n)
        assert got_ids.dtype == want_ids.dtype == np.int64
        assert got_ids.tobytes() == want_ids.tobytes()
        assert got_scores.tobytes() == want_scores.tobytes()
        for q, row_ids, row_scores in zip(Q, got_ids, got_scores):
            top = search_top_n(loaded, q, n)
            assert top.ids.dtype == np.int64
            assert top.ids.tobytes() == row_ids.tobytes()
            # ranked against int64 ids: a narrow id type must not reorder ties
            scores = table_scores(build_lookup_table(q, loaded.codebook), loaded.codes.codes)
            order = np.lexsort((np.array(ids, dtype=np.int64), -scores))
            assert row_ids.tolist() == [ids[i] for i in order]
            assert row_scores.tobytes() == scores[order].tobytes()

    def test_every_loaded_array_is_aligned(self, tmp_path):
        # n=37, d=9, K=3, C=5: the preprocess, codes and ids sections are padded
        _, index = random_index(37, 9, 3, 5, seed=25)
        path = str(tmp_path / "i.quip")
        save_index(index, path)
        assert os.path.getsize(path) % 8 == 0
        arrays = _arrays(load_index(path))
        assert len(arrays) == 7  # the preprocess table is the seventh
        for a in arrays:
            assert a.flags.aligned and a.ctypes.data % 8 == 0

    @pytest.mark.parametrize("width, message", [
        (0, "ids width 0 is not 1, 2, 4 or 8 bytes"), (3, "ids width 3 is not"),
        (16, "ids width 16 is not"), (8, "ids section holds 48 bytes; its header implies 328")])
    def test_bad_width_byte_is_data_error(self, tmp_path, width, message):
        _, index = random_index(40, 8, 4, 16, seed=26)  # 40 int8 ids
        raw = bytearray(index_to_bytes(index))
        raw[section_offset(raw, 5)] = width
        (tmp_path / "x.quip").write_bytes(raw)
        with pytest.raises(DataError, match=message):
            load_index(str(tmp_path / "x.quip"))

    def test_truncated_padding_is_data_error(self, tmp_path):
        # 30 int8 ids: the ids payload is 38 bytes, padded with 2 zero bytes
        _, index = random_index(30, 8, 4, 16, seed=17)
        raw = index_to_bytes(index)
        assert raw[-2:] == b"\0\0"
        for cut in (1, 2):
            (tmp_path / "x.quip").write_bytes(raw[:-cut])
            with pytest.raises(DataError, match="declares 38 bytes and 2 of padding"):
                load_index(str(tmp_path / "x.quip"))

    def test_version_1_is_data_error(self, tmp_path):
        _, index = random_index(10, 8, 4, 16, seed=27)
        raw = bytearray(index_to_bytes(index))
        raw[4:6] = (1).to_bytes(2, "little")
        (tmp_path / "v1.quip").write_bytes(raw)
        with pytest.raises(DataError, match="index format version 1; this reader takes "
                                            "version 3 only"):
            load_index(str(tmp_path / "v1.quip"))


def _v2_bytes(raw):
    """A v3 file's bytes rewritten as format v2, whose preprocess payload is
    13 bytes (u8 kind, i64 seed, u32 d_padded) with no table."""
    pre, end = section_offset(raw, 1), section_offset(raw, 2) - 8
    kind, seed, d_padded = struct.unpack_from("<B7xqI", raw, pre)
    payload = struct.pack("<BqI", kind, seed, d_padded)
    return (raw[:4] + struct.pack("<H2x", 2) + raw[8:pre - 8]
            + struct.pack("<Q", 13) + payload + bytes(3) + raw[end:])


class TestPreprocessTable:
    KINDS = ("identity", "permutation", "hadamard_rotation")

    @staticmethod
    def _saved(kind, seed=5, d=12, K=4):
        # hadamard_rotation widens d=12 to 16
        spec, layout = make_preprocess(kind, seed, make_chunk_layout(d, K))
        rng = np.random.default_rng(seed)
        vs = make_set(rng.standard_normal((20, d)))
        cb = Codebook(layout=layout, centroids=rng.standard_normal((K, 4, layout.l)))
        codes = CodeMatrix(codes=rng.integers(0, 4, size=(20, K)))
        cov = SubspaceCovariances(layout=layout, source="database",
                                  matrices=np.tile(np.eye(layout.l), (K, 1, 1)))
        index = build_index(apply_preprocess(vs, spec), cb, codes, spec, cov)
        return index, bytearray(index_to_bytes(index))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed, d", [(0, 12), (7, 5), (2**40, 16)])
    def test_saved_table_is_the_seeds_draw(self, tmp_path, kind, seed, d):
        index, raw = self._saved(kind, seed, d, 1)
        d_padded = index.layout.d_padded
        rng = np.random.default_rng(seed)
        want = {"identity": lambda: np.arange(d_padded),
                "permutation": lambda: rng.permutation(d_padded),
                "hadamard_rotation": lambda: rng.choice([-1.0, 1.0], size=d_padded)}[kind]()
        at = section_offset(raw, 1)
        assert struct.unpack_from("<B7xqI4x", raw, at) == (self.KINDS.index(kind), seed,
                                                           d_padded)
        stored = np.frombuffer(raw, dtype="<i4", count=d_padded, offset=at + 24)
        assert stored.tolist() == want.tolist()
        path = tmp_path / "i.quip"
        path.write_bytes(raw)
        loaded = load_index(str(path))
        assert loaded.preprocess == index.preprocess
        assert loaded.preprocess.table.tolist() == want.tolist()
        Q = np.random.default_rng(3).standard_normal((4, d))
        np.testing.assert_array_equal(apply_preprocess_rows(Q, loaded.preprocess),
                                      apply_preprocess_rows(Q, index.preprocess))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(KINDS), data=st.data())
    def test_damaged_table_is_data_error(self, tmp_path_factory, kind, data):
        index, raw = self._saved(kind)
        d, at = index.layout.d_padded, section_offset(raw, 1)
        table = at + 24
        damage = data.draw(st.sampled_from(
            ["bad entry", "pad byte", "truncated file", "short table"]
            + ([] if kind == "hadamard_rotation" else ["duplicate"])))
        if damage == "bad entry":
            ok = (lambda v: abs(v) != 1) if kind == "hadamard_rotation" else \
                (lambda v: not 0 <= v < d)
            value = data.draw(st.integers(-2**31, 2**31 - 1).filter(ok))
            i = data.draw(st.integers(0, d - 1))
            struct.pack_into("<i", raw, table + 4 * i, value)
        elif damage == "duplicate":
            i, j = data.draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2,
                                      unique=True))
            raw[table + 4 * i:table + 4 * i + 4] = raw[table + 4 * j:table + 4 * j + 4]
        elif damage == "pad byte":
            i = data.draw(st.sampled_from([*range(1, 8), *range(20, 24)]))
            raw[at + i] = data.draw(st.integers(1, 255))
        elif damage == "truncated file":
            del raw[data.draw(st.integers(at - 8, table + 4 * d)):]
        else:  # a consistent section length over fewer entries
            m = data.draw(st.integers(1, d))
            length = 24 + 4 * (d - m)
            raw = (raw[:at - 8] + struct.pack("<Q", length) + raw[at:at + length]
                   + bytes(-length % 8) + raw[table + 4 * d:])
        path = tmp_path_factory.mktemp("table") / "x.quip"
        path.write_bytes(raw)
        with pytest.raises(DataError):
            load_index(str(path))

    def test_save_rejects_a_table_of_another_width(self, tmp_path):
        index, _ = self._saved("permutation")
        wide = dataclasses.replace(index, preprocess=PreprocessSpec("permutation", 5, 16))
        with pytest.raises(ValueError, match="preprocess d_padded 16 differs from the "
                                             "layout's 12"):
            save_index(wide, str(tmp_path / "x.quip"))
        assert os.listdir(tmp_path) == []

    def test_version_2_is_data_error(self, tmp_path):
        _, raw = self._saved("permutation")
        v2 = _v2_bytes(bytes(raw))
        assert len(v2) == len(raw) - 4 * 12 - 8  # 56 + 48 payload bytes become 16
        (tmp_path / "v2.quip").write_bytes(v2)
        with pytest.raises(DataError, match="index format version 2; this reader takes "
                                            "version 3 only"):
            load_index(str(tmp_path / "v2.quip"))


class TestMappedLoad:
    def test_arrays_are_read_only_views_of_a_map(self, tmp_path):
        _, index = random_index(40, 8, 4, 16, seed=18)
        path = str(tmp_path / "i.quip")
        save_index(index, path)
        loaded = load_index(path)
        for a in (loaded.codes.codes, loaded.ids, loaded.codebook.centroids,
                  loaded.cov.matrices, loaded.preprocess.table):
            assert not a.flags.writeable
            while isinstance(a, np.ndarray):
                a = a.base
            assert isinstance(a.obj, mmap.mmap)

    def test_save_over_a_loaded_file_keeps_its_searches(self, tmp_path):
        # in a child, so a reader killed by SIGBUS fails this test, not pytest
        _, big = random_index(3000, 8, 4, 16, seed=19)
        _, small = random_index(10, 8, 4, 16, seed=20)
        path, other = str(tmp_path / "i.quip"), str(tmp_path / "small.quip")
        save_index(big, path)
        save_index(small, other)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from quips.index import load_index, save_index, search_batch\n"
            "path, other = sys.argv[1:]\n"
            "index = load_index(path)\n"
            "Q = np.random.default_rng(0).standard_normal((20, 8))\n"
            "ids, scores = search_batch(index, Q, 10)\n"
            "save_index(load_index(other), path)\n"
            "ids2, scores2 = search_batch(index, Q, 10)\n"
            "print(ids.tobytes() == ids2.tobytes() and scores.tobytes() == scores2.tobytes(),\n"
            "      load_index(path).n)\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(quips.__file__)))
        out = subprocess.run([sys.executable, "-c", script, path, other], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, (out.returncode, out.stderr)
        assert out.stdout.split() == ["True", "10"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_loads_release_their_descriptors(self, tmp_path):
        _, index = random_index(40, 8, 4, 16, seed=21)
        path = str(tmp_path / "i.quip")
        save_index(index, path)
        load_index(path)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(200):
            assert load_index(path).n == 40
        assert len(os.listdir("/proc/self/fd")) == before

    def test_failed_write_leaves_no_file(self, tmp_path):
        # the target is a directory: the rename fails after the write
        _, index = random_index(40, 8, 4, 16, seed=22)
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            save_index(index, str(tmp_path / "d"))
        assert os.listdir(tmp_path) == ["d"] and os.listdir(tmp_path / "d") == []

    def test_missing_directory_names_the_target(self, tmp_path):
        _, index = random_index(10, 8, 4, 16, seed=22)
        path = str(tmp_path / "no" / "i.quip")
        with pytest.raises(FileNotFoundError) as e:
            save_index(index, path)
        assert e.value.filename == path

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_a_plain_create_under_the_umask(self, tmp_path, umask):
        _, index = random_index(10, 8, 4, 16, seed=23)
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            save_index(index, str(tmp_path / "i.quip"))
        finally:
            os.umask(old)
        mode = stat.S_IMODE(os.stat(tmp_path / "i.quip").st_mode)
        assert mode == stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        assert sorted(os.listdir(tmp_path)) == ["i.quip", "plain"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_loads_like_the_file(self, tmp_path):
        _, index = random_index(300, 8, 4, 16, seed=24)
        path, fifo = str(tmp_path / "i.quip"), str(tmp_path / "pipe")
        save_index(index, path)
        os.mkfifo(fifo)
        raw = index_to_bytes(index)

        def feed():
            with open(fifo, "wb") as f:
                f.write(raw)

        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        piped = load_index(fifo)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert index_to_bytes(piped) == raw
        Q = np.random.default_rng(5).standard_normal((12, 8))
        a, b = search_batch(load_index(path), Q, 10), search_batch(piped, Q, 10)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_directory_error_names_the_path(self, tmp_path):
        with pytest.raises(IsADirectoryError) as e:
            load_index(str(tmp_path))
        assert e.value.filename == str(tmp_path)
