import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quips.hybrid
import quips.index
from quips.covariance import SubspaceCovariances, estimate_subspace_covariances, regularize
from quips.hybrid import (_kmeanspp_init, assign_query_partitions, build_hybrid,
                          hybrid_search, train_partitioner)
from quips.index import (QuipIndex, build_index, code_dtype, encode_database, id_dtype,
                         save_index, search_batch, search_top_n)
from quips.train import Codebook, CodeMatrix, TrainConfig, train_quip
from quips.vecstore import (PreprocessSpec, apply_preprocess, apply_preprocess_rows,
                            make_chunk_layout, make_preprocess)

import reference
from reference import make_set


def blob_data(seed=0, per=40, d=6, centers=4, spread=0.05):
    rng = np.random.default_rng(seed)
    ctrs = rng.standard_normal((centers, d)) * 3.0
    data = np.vstack([c + spread * rng.standard_normal((per, d)) for c in ctrs])
    labels = np.repeat(np.arange(centers), per)
    return data, labels


def reference_probe(pindex, q, N, probe):
    """reference.probe_search over pindex's partitions, for a raw query
    preprocessed by the index's own transform."""
    members = [np.arange(lo, hi) for lo, hi in zip(pindex.offsets[:-1], pindex.offsets[1:])]
    return reference.probe_search(apply_preprocess_rows(q, pindex.preprocess), pindex.centers,
                                  members, pindex.codes.codes, pindex.ids,
                                  pindex.codebook.centroids, N, probe)


def partition_index(pindex, p):
    """Partition p as a flat index of its own."""
    lo, hi = pindex.offsets[p], pindex.offsets[p + 1]
    return build_index(make_set(np.zeros((hi - lo, 1)), ids=pindex.ids[lo:hi]),
                       pindex.codebook, CodeMatrix(codes=pindex.codes.codes[lo:hi]),
                       pindex.preprocess, pindex.cov)


class TestPartitioner:
    def test_one_partition(self):
        data = np.random.default_rng(0).standard_normal((20, 4))
        centers, membership = train_partitioner(make_set(data), P=1, seed=0)
        assert len(membership) == 1 and len(membership[0]) == 20
        np.testing.assert_allclose(centers[0], data.mean(axis=0), atol=1e-12)

    def test_n_partitions_singletons(self):
        data = np.random.default_rng(1).standard_normal((8, 3))
        centers, membership = train_partitioner(make_set(data), P=8, seed=0)
        sizes = sorted(len(m) for m in membership)
        assert sizes == [1] * 8
        covered = np.sort(np.concatenate(membership))
        np.testing.assert_array_equal(covered, np.arange(8))

    def test_membership_is_a_partition(self):
        data = np.random.default_rng(2).standard_normal((100, 5))
        _, membership = train_partitioner(make_set(data), P=7, seed=3)
        covered = np.sort(np.concatenate(membership))
        np.testing.assert_array_equal(covered, np.arange(100))

    def test_separated_blobs_recovered(self):
        data, labels = blob_data(seed=3)
        _, membership = train_partitioner(make_set(data), P=4, seed=1)
        # each learned partition should be (nearly) pure in true blob label
        agree = 0
        for members in membership:
            votes = np.bincount(labels[members], minlength=4)
            agree += votes.max()
        assert agree >= 0.99 * len(data)

    def test_no_empty_partitions(self):
        # duplicated points make empty clusters likely without repair
        data = np.vstack([np.zeros((30, 3)), np.ones((2, 3))])
        data += 1e-9 * np.random.default_rng(4).standard_normal(data.shape)
        _, membership = train_partitioner(make_set(data), P=6, seed=0)
        assert all(len(m) > 0 for m in membership)

    def test_deterministic(self):
        data = np.random.default_rng(5).standard_normal((60, 4))
        a = train_partitioner(make_set(data), P=5, seed=7)
        b = train_partitioner(make_set(data), P=5, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        for x, y in zip(a[1], b[1]):
            np.testing.assert_array_equal(x, y)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            train_partitioner(make_set(np.ones((3, 2))), P=5, seed=0)

    @pytest.mark.parametrize("P", [0, -3])
    def test_no_partitions_is_value_error(self, P):
        with pytest.raises(ValueError, match=f"P={P}"):
            train_partitioner(make_set(np.ones((3, 2))), P=P, seed=0)

    @pytest.mark.parametrize("iters", [0, -1])
    def test_no_iterations_is_value_error(self, iters):
        with pytest.raises(ValueError, match=f"iters >= 1; got {iters}"):
            train_partitioner(make_set(np.ones((3, 2))), P=2, seed=0, iters=iters)


# the partitioner's shapes, each with the seed it is drawn and seeded with
PARTITIONER_SHAPES = [(300, 6, 7, 0), (2000, 64, 20, 1), (1000, 17, 50, 2), (50, 3, 50, 3),
                      (5000, 64, 100, 4)]


class TestKmeansppSeeding:
    @pytest.mark.parametrize("n,d,P,seed", PARTITIONER_SHAPES)
    @pytest.mark.parametrize("order", "CF")
    def test_draws_the_oracle_rows(self, n, d, P, seed, order):
        data = np.asarray(np.random.default_rng(seed).standard_normal((n, d)) * 3,
                          order=order)
        got = _kmeanspp_init(data, P, np.random.default_rng(seed))
        want = reference.kmeanspp(data, P, np.random.default_rng(seed))
        assert got.tobytes() == want.tobytes()

    def test_repeated_rows(self):
        # three distinct points for six centers: the distances reach zero
        data = np.repeat(np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]]), 10, axis=0)
        for seed in range(5):
            got = _kmeanspp_init(data, 6, np.random.default_rng(seed))
            want = reference.kmeanspp(data, 6, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("order, limit", [("F", 1.0), ("C", 1.5)])
    def test_no_row_sized_temporary(self, order, limit):
        # Fortran-ordered rows are read in place; C-ordered ones are copied once
        data = np.asarray(np.random.default_rng(0).standard_normal((20_000, 32)), order=order)
        tracemalloc.start()
        try:
            _kmeanspp_init(data, 20, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit * data.nbytes


class TestPartitionerBits:
    # permutation preprocessing hands the partitioner Fortran-ordered rows;
    # C-ordered cases keep their shape-only ids
    @pytest.mark.parametrize("n,d,P,seed,order", [
        pytest.param(*shape, order, id="-".join(map(str, shape)) + ("-F" if order == "F" else ""))
        for shape in PARTITIONER_SHAPES
        for order in "CF"])
    def test_equals_doubled_data_form(self, n, d, P, seed, order):
        data = np.asarray(np.random.default_rng(seed).standard_normal((n, d)) * 3,
                          order=order)
        centers, membership = train_partitioner(make_set(data), P, seed)
        want_centers, want_membership, _ = reference.partition(data, P, seed)
        assert centers.tobytes() == want_centers.tobytes()
        assert len(membership) == len(want_membership)
        for got, want in zip(membership, want_membership):
            np.testing.assert_array_equal(got, want)

    def test_equals_doubled_data_form_through_repair(self):
        # three distinct points for six clusters: seeding repeats centers and
        # the first assignment leaves clusters empty
        data = np.repeat(np.array([[0.0, 0.0], [1.0, 2.0], [-3.0, 0.5]]), 10, axis=0)
        centers, membership = train_partitioner(make_set(data), 6, 0)
        want_centers, want_membership, repaired = reference.partition(data, 6, 0)
        assert repaired > 0
        assert centers.tobytes() == want_centers.tobytes()
        for got, want in zip(membership, want_membership):
            np.testing.assert_array_equal(got, want)

    def test_no_distance_matrix(self):
        # an (n, P) buffer alone is 16 MB here, over three times the data
        n, d, P = 20_000, 32, 100
        vs = make_set(np.random.default_rng(0).standard_normal((n, d)))
        tracemalloc.start()
        try:
            train_partitioner(vs, P, 0, iters=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * vs.data.nbytes


class TestQueryAssignment:
    def test_bound_in_the_hybrid_namespace(self):
        assert quips.hybrid.assign_query_partitions is quips.index.assign_query_partitions

    def test_full_sort_oracle(self):
        rng = np.random.default_rng(6)
        centers = rng.standard_normal((10, 4))
        q = rng.standard_normal(4)
        got = assign_query_partitions(q, centers, probe=10)
        np.testing.assert_array_equal(got, reference.probe(q, centers, 10))

    def test_top_one(self):
        centers = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
        got = assign_query_partitions(np.array([1.0, 0.0]), centers, probe=1)
        assert got[0] == 2

    def test_ties_ascending(self):
        centers = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        got = assign_query_partitions(np.array([1.0, 0.0]), centers, probe=2)
        np.testing.assert_array_equal(got, [0, 1])

    def test_probe_too_large(self):
        with pytest.raises(ValueError):
            assign_query_partitions(np.ones(2), np.ones((3, 2)), probe=4)


class TestHybridSearch:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.data = rng.standard_normal((200, 8))
        self.vs = make_set(self.data)
        self.layout = make_chunk_layout(8, 4)
        self.cov = regularize(
            estimate_subspace_covariances(self.vs, self.layout), 1e-6)
        self.cfg = TrainConfig(K=4, C=16, T=15, seed=0)
        self.spec = PreprocessSpec(kind="identity", seed=0, d_padded=8)
        self.queries = rng.standard_normal((8, 8))

    def test_full_probe_with_shared_codebook_matches_flat(self):
        cb, codes, _ = train_quip(self.vs, self.cov, self.cfg)
        flat = build_index(self.vs, cb, codes, self.spec, self.cov)
        pindex = build_hybrid(self.vs, P=5, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=1, shared_codebook=cb)
        for q in self.queries:
            res, scanned = hybrid_search(pindex, q, N=10, probe=5)
            ref = search_top_n(flat, q, 10)
            np.testing.assert_array_equal(res.ids, ref.ids)
            np.testing.assert_array_equal(res.scores, ref.scores)
            assert scanned == 200

    def test_shared_codebook_is_one_float32_object(self):
        cb, codes, _ = train_quip(self.vs, self.cov, self.cfg)
        for shared_codes in (None, codes):
            pindex = build_hybrid(self.vs, P=5, cov=self.cov, cfg=self.cfg,
                                  preprocess=self.spec, seed=1, shared_codebook=cb,
                                  shared_codes=shared_codes)
            assert pindex.P == 5 and pindex.codebook.centroids.dtype == np.float32

    def test_partitions_smaller_than_C_share_the_trained_codebook(self):
        big = TrainConfig(K=4, C=64, T=3, seed=0)
        cb = train_quip(self.vs, self.cov, big)[0]
        pindex = build_hybrid(self.vs, P=6, cov=self.cov, cfg=big, preprocess=self.spec,
                              seed=2, shared_codebook=cb)
        assert np.diff(pindex.offsets).min() < big.C
        rows = np.concatenate(train_partitioner(self.vs, 6, 2)[1])
        assert pindex.codebook.centroids.dtype == np.float32
        assert pindex.codebook.centroids.tobytes() == cb.centroids.astype(np.float32).tobytes()
        # the freeze rule: the rows encoded against the stored float32 codebook
        codes = encode_database(self.vs, pindex.codebook, self.cov, pindex.layout)
        np.testing.assert_array_equal(pindex.codes.codes, codes.codes[rows])
        flat = build_index(self.vs, cb, codes, self.spec, self.cov)
        ids, scores = search_batch(pindex, self.queries, 10)
        for b, q in enumerate(self.queries):
            ref = search_top_n(flat, q, 10)
            res, scanned = hybrid_search(pindex, q, N=10, probe=6)
            assert scanned == 200
            for got_ids, got_scores in ((res.ids, res.scores), (ids[b], scores[b])):
                np.testing.assert_array_equal(got_ids, ref.ids)
                assert got_scores.tobytes() == ref.scores.tobytes()

    def test_scanned_count_is_sum_of_probed_sizes(self):
        pindex = build_hybrid(self.vs, P=6, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=2,
                              shared_codebook=train_quip(self.vs, self.cov, self.cfg)[0])
        q = self.queries[0]
        for probe in (1, 3, 6):
            parts = assign_query_partitions(q, pindex.centers, probe)
            expect = np.diff(pindex.offsets)[parts].sum()
            _, scanned = hybrid_search(pindex, q, N=5, probe=probe)
            assert scanned == expect

    def test_recall_monotone_in_probe(self):
        small = TrainConfig(K=4, C=4, T=15, seed=0)
        flat_cb, flat_codes, _ = train_quip(self.vs, self.cov, small)
        pindex = build_hybrid(self.vs, P=8, cov=self.cov, cfg=small,
                              preprocess=self.spec, seed=3, shared_codebook=flat_cb)
        flat = build_index(self.vs, flat_cb, flat_codes, self.spec, self.cov)
        last = -1.0
        for probe in (1, 4, 8):
            hits = 0
            for q in self.queries:
                res, _ = hybrid_search(pindex, q, N=10, probe=probe)
                # recall against the flat quantized scan the hybrid approximates
                ref = search_top_n(flat, q, 10)
                hits += len(set(res.ids) & set(ref.ids))
            recall = hits / (10 * len(self.queries))
            assert recall >= last - 0.05
            last = recall

    def test_single_partition_equals_flat_scan(self):
        pindex = build_hybrid(self.vs, P=1, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=0,
                              shared_codebook=train_quip(self.vs, self.cov, self.cfg)[0])
        for q in self.queries[:3]:
            res, scanned = hybrid_search(pindex, q, N=7, probe=1)
            ref = search_top_n(pindex, q, 7)
            np.testing.assert_array_equal(res.ids, ref.ids)
            assert scanned == 200

    def test_ids_preserved_through_partitioning(self):
        ids = np.arange(1000, 1200, dtype=np.int64)
        vs = make_set(self.data, ids=ids)
        pindex = build_hybrid(vs, P=4, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=5,
                              shared_codebook=train_quip(vs, self.cov, self.cfg)[0])
        res, _ = hybrid_search(pindex, self.queries[0], N=5, probe=4)
        assert all(1000 <= i < 1200 for i in res.ids)

    def test_probe_out_of_range(self):
        pindex = build_hybrid(self.vs, P=3, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=0,
                              shared_codebook=train_quip(self.vs, self.cov, self.cfg)[0])
        with pytest.raises(ValueError):
            hybrid_search(pindex, self.queries[0], N=5, probe=0)
        with pytest.raises(ValueError):
            hybrid_search(pindex, self.queries[0], N=5, probe=4)


class TestHybridSearchPreprocessed:
    """Partition centers live in preprocessed space; queries arrive raw."""

    def setup_method(self):
        data, self.labels = blob_data(seed=11, per=50, d=8, centers=4, spread=0.05)
        self.spec = PreprocessSpec(kind="permutation", seed=3, d_padded=8)
        assert not np.array_equal(np.random.default_rng(3).permutation(8), np.arange(8))
        self.raw = make_set(data)
        self.dbp = apply_preprocess(self.raw, self.spec)
        layout = make_chunk_layout(8, 4)
        self.cov = regularize(estimate_subspace_covariances(self.dbp, layout), 1e-6)
        self.cfg = TrainConfig(K=4, C=16, T=15, seed=0)
        rng = np.random.default_rng(12)
        picks = rng.choice(len(data), 12, replace=False)
        self.queries = data[picks] + 0.01 * rng.standard_normal((12, 8))
        self.query_labels = self.labels[picks]

    def test_probe_one_scans_the_query_blob(self):
        pindex = build_hybrid(self.dbp, P=4, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=0,
                              shared_codebook=train_quip(self.dbp, self.cov, self.cfg)[0])
        for q, label in zip(self.queries, self.query_labels):
            res, scanned = hybrid_search(pindex, q, N=5, probe=1)
            assert scanned == 50
            assert np.all(self.labels[res.ids] == label)

    def test_full_probe_matches_flat(self):
        cb, codes, _ = train_quip(self.dbp, self.cov, self.cfg)
        flat = build_index(self.dbp, cb, codes, self.spec, self.cov)
        pindex = build_hybrid(self.dbp, P=4, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=0,
                              shared_codebook=cb, shared_codes=codes)
        for q in self.queries:
            res, _ = hybrid_search(pindex, q, N=10, probe=4)
            ref = search_top_n(flat, q, 10)
            np.testing.assert_array_equal(res.ids, ref.ids)
            np.testing.assert_array_equal(res.scores, ref.scores)


class TestContiguousLayout:
    """One store in partition order; partitions are row slices of it."""

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.vs = make_set(rng.standard_normal((150, 8)), ids=rng.permutation(150) + 500)
        self.layout = make_chunk_layout(8, 4)
        self.cov = regularize(estimate_subspace_covariances(self.vs, self.layout), 1e-6)
        self.cfg = TrainConfig(K=4, C=8, T=5, seed=0)
        self.spec = PreprocessSpec(kind="identity", seed=0, d_padded=8)

    def test_shared_codes_are_one_fancy_index(self):
        cb, codes, _ = train_quip(self.vs, self.cov, self.cfg)
        pindex = build_hybrid(self.vs, P=5, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=1, shared_codebook=cb,
                              shared_codes=codes)
        _, membership = train_partitioner(self.vs, 5, 1)
        rows = np.concatenate(membership)
        np.testing.assert_array_equal(pindex.offsets,
                                      np.cumsum([0] + [len(m) for m in membership]))
        assert pindex.offsets.dtype == np.int64
        np.testing.assert_array_equal(pindex.codes.codes, codes.codes[rows])
        assert pindex.codes.codes.dtype == code_dtype(8)
        np.testing.assert_array_equal(pindex.ids, self.vs.ids[rows])
        assert pindex.ids.dtype == id_dtype(self.vs.ids) == np.int16  # ids 500-649
        assert pindex.n == 150

    def test_membership_and_partitions_are_views(self):
        pindex = build_hybrid(self.vs, P=4, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=2,
                              shared_codebook=train_quip(self.vs, self.cov, self.cfg)[0])
        _, expect = train_partitioner(self.vs, 4, 2)
        for p, members in enumerate(expect):
            lo, hi = pindex.offsets[p], pindex.offsets[p + 1]
            np.testing.assert_array_equal(pindex.ids[lo:hi], self.vs.ids[members])
            part = partition_index(pindex, p)
            assert part.codebook is pindex.codebook
            np.testing.assert_array_equal(part.codes.codes, pindex.codes.codes[lo:hi])

    def test_save_refuses_more_than_one_partition(self, tmp_path):
        cb = train_quip(self.vs, self.cov, self.cfg)[0]
        pindex = build_hybrid(self.vs, P=4, cov=self.cov, cfg=self.cfg,
                              preprocess=self.spec, seed=2, shared_codebook=cb)
        path = tmp_path / "p.quip"
        with pytest.raises(ValueError, match="holds one partition; got P=4"):
            save_index(pindex, str(path))
        assert not path.exists()

    def test_one_row_partitions(self):
        data = np.random.default_rng(1).standard_normal((8, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
        cfg = TrainConfig(K=2, C=1, T=2, seed=0)
        cb = train_quip(vs, cov, cfg)[0]
        pindex = build_hybrid(vs, P=8, cov=cov, cfg=cfg, seed=0, shared_codebook=cb,
                              preprocess=PreprocessSpec(kind="identity", seed=0,
                                                        d_padded=4))
        np.testing.assert_array_equal(np.diff(pindex.offsets), 1)
        for q in np.random.default_rng(2).standard_normal((4, 4)):
            for probe in (1, 3, 8):
                res, scanned = hybrid_search(pindex, q, 3, probe)
                ref_ids, ref_scores, ref_scanned = reference_probe(pindex, q, 3, probe)
                np.testing.assert_array_equal(res.ids, ref_ids)
                assert res.scores.tobytes() == ref_scores.tobytes()
                assert scanned == ref_scanned == probe


class TestHybridMatchesPerPartitionScan:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_for_bit(self, data):
        """hybrid_search equals the per-partition scan over any layout:
        one-row partitions, probe 1..P, heavy score ties (C down to 1) and
        unsorted ids; search_batch and probe=P equal the flat index."""
        sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=6), label="sizes")
        P, n = len(sizes), sum(sizes)
        K = data.draw(st.integers(1, 3), label="K")
        d = data.draw(st.integers(K, 4 * K), label="d")
        C = data.draw(st.integers(1, 5), label="C")
        kind = data.draw(st.sampled_from(["identity", "permutation", "hadamard_rotation"]),
                         label="kind")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        try:
            spec, layout = make_preprocess(kind, 3, make_chunk_layout(d, K))
        except ValueError:  # K does not divide a power of 2
            spec, layout = make_preprocess("permutation", 3, make_chunk_layout(d, K))
        codebook = Codebook(layout=layout, centroids=rng.standard_normal(
            (K, C, layout.l)).astype(np.float32))
        pindex = QuipIndex(
            codebook=codebook,
            codes=CodeMatrix(codes=rng.integers(0, C, (n, K)).astype(code_dtype(C))),
            preprocess=spec, layout=layout, ids=rng.permutation(n).astype(np.int64) * 3 - n,
            cov=SubspaceCovariances(layout=layout, source="database",
                                    matrices=np.tile(np.eye(layout.l), (K, 1, 1))),
            offsets=np.cumsum([0] + sizes, dtype=np.int64),
            centers=rng.standard_normal((P, layout.d_padded)))
        probe = data.draw(st.integers(1, P), label="probe")
        N = data.draw(st.integers(1, n + 2), label="N")
        Q = rng.standard_normal((3, d))
        for q in Q:
            res, scanned = hybrid_search(pindex, q, N, probe)
            ref_ids, ref_scores, ref_scanned = reference_probe(pindex, q, N, probe)
            np.testing.assert_array_equal(res.ids, ref_ids)
            assert res.scores.tobytes() == ref_scores.tobytes()
            assert scanned == ref_scanned
        # every row of the store, in partition order, equals the flat index
        # over the same codes and ids, and so does probing every partition
        flat = build_index(make_set(np.zeros((n, 1)), ids=pindex.ids), codebook,
                           pindex.codes, spec, pindex.cov)
        ids, scores = search_batch(pindex, Q, N)
        flat_ids, flat_scores = search_batch(flat, Q, N)
        np.testing.assert_array_equal(ids, flat_ids)
        assert scores.tobytes() == flat_scores.tobytes()
        for b, q in enumerate(Q):
            res, scanned = hybrid_search(pindex, q, N, P)
            np.testing.assert_array_equal(res.ids, ids[b])
            assert res.scores.tobytes() == scores[b].tobytes()
            assert scanned == n


class TestHybridQueryPreconditions:
    def setup_method(self):
        data, _ = blob_data(seed=4, per=20, d=6, centers=3)
        spec, layout = make_preprocess("hadamard_rotation", 1, make_chunk_layout(6, 2))
        vs = apply_preprocess(make_set(data), spec)
        cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
        cfg = TrainConfig(K=2, C=4, T=3, seed=0)
        cb, codes, _ = train_quip(vs, cov, cfg)
        self.pindex = build_hybrid(vs, P=3, cov=cov, cfg=cfg, preprocess=spec, seed=0,
                                   shared_codebook=cb, shared_codes=codes)
        assert self.pindex.layout.original_d == 6 and self.pindex.layout.d_padded == 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query(self, bad):
        q = np.ones(6)
        q[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            hybrid_search(self.pindex, q, 5, probe=2)

    @pytest.mark.parametrize("width", [4, 5, 7, 8])
    def test_wrong_width(self, width):
        with pytest.raises(ValueError, match=f"queries have {width} dims, the index wants 6"):
            hybrid_search(self.pindex, np.ones(width), 5, probe=2)

    @pytest.mark.parametrize("N", [0, -1])
    def test_bad_N(self, N):
        with pytest.raises(ValueError, match="N must be >= 1"):
            hybrid_search(self.pindex, np.ones(6), N, probe=2)
