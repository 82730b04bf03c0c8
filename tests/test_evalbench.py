import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quips.index
from quips.covariance import estimate_subspace_covariances, regularize
from quips.evalbench import (LSH_METHODS, ExperimentConfig, PRCurve, build_quip_pipeline,
                             concentration_check, concentration_threshold, ground_truth,
                             lsh_rankings, precision_recall, prepare_training, run_fixed_bit,
                             run_fixed_time, split_queries, subspace_losses,
                             unbiasedness_check, write_report)
from quips.index import build_index, exact_top_n, search_batch
from quips.train import Codebook, CodeMatrix, TrainConfig, train_quip, _blocks_of
from quips.vecstore import DataError, PreprocessSpec, generate_synthetic, make_chunk_layout

import reference
from reference import make_set


def exact_index(data, K):
    """Index whose codebook stores every row verbatim: zero quantization error."""
    data = np.asarray(data, dtype=np.float64)
    vs = make_set(data)
    layout = make_chunk_layout(data.shape[1], K)
    blocks = _blocks_of(data, layout)
    cb = Codebook(layout=layout, centroids=np.stack(blocks))
    codes = CodeMatrix(codes=np.tile(
        np.arange(len(data), dtype=np.int32)[:, None], (1, K)))
    cov = regularize(estimate_subspace_covariances(vs, layout), 1e-6)
    spec = PreprocessSpec(kind="identity", seed=0, d_padded=layout.d_padded)
    return build_index(vs, cb, codes, spec, cov)


class TestGroundTruth:
    def test_matches_argsort_oracle(self):
        rng = np.random.default_rng(0)
        db = make_set(rng.standard_normal((40, 5)))
        qs = make_set(rng.standard_normal((6, 5)))
        truth = ground_truth(db, qs, topN=7)
        for j in range(6):
            scores = db.data @ qs.data[j]
            expect = np.lexsort((np.arange(40), -scores))[:7]
            np.testing.assert_array_equal(truth[j], expect)

    def test_empty_rejected(self):
        db = make_set(np.ones((3, 2)))
        with pytest.raises(ValueError):
            ground_truth(db, make_set(np.empty((0, 2))), topN=1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_ids_match_per_query_exact_top_n(self, data):
        # ground_truth's blocked GEMMs may round otherwise than exact_top_n's
        # per-query GEMV; the ids must not move.  With small-integer entries
        # every sum is exact, so duplicated rows tie exactly in any summation
        # order and break the tie by ascending id.  Real-valued duplicates do
        # not tie: both products can round identical rows differently.
        draw = data.draw
        d, n = draw(st.integers(1, 70), label="d"), draw(st.integers(1, 60), label="n")
        nq = draw(st.integers(1, 25), label="nq")
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        if draw(st.booleans(), label="integer entries"):
            distinct = rng.integers(-3, 4, (draw(st.integers(1, 30)), d))
            rows = distinct[rng.integers(0, len(distinct), n)].astype(np.float64)
            qrows = rng.integers(-3, 4, (nq, d)).astype(np.float64)
        else:
            rows, qrows = rng.standard_normal((n, d)), rng.standard_normal((nq, d))
        db, qs = make_set(rows, ids=rng.permutation(n) * 7 - 50), make_set(qrows)
        topN = draw(st.integers(1, n + 2), label="topN")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quips.index, "_BLOCK_SCORES", draw(st.integers(1, 8)) * n)
            truth = ground_truth(db, qs, topN)
        oracle = np.stack([exact_top_n(db, q, topN).ids for q in qs.data])
        np.testing.assert_array_equal(truth, oracle)


class TestLshRankings:
    @pytest.mark.parametrize("bits", [8, 24, 72])
    @pytest.mark.parametrize("method", LSH_METHODS)
    def test_equals_per_query_oracle(self, method, bits, monkeypatch):
        monkeypatch.setattr(quips.index, "_BLOCK_SCORES", 5 * 150)  # ragged last block
        rng = np.random.default_rng(bits)
        db = make_set(generate_synthetic(150, 6, 10.0, 0).data, ids=rng.permutation(150) + 9)
        qs = generate_synthetic(12, 6, 10.0, 1)
        ranked = lsh_rankings(method, db, qs, bits, seed=3)
        np.testing.assert_array_equal(ranked, reference.lsh_ranking(method, db, qs, bits, 3))


class TestPrecisionRecall:
    def test_hand_counted(self):
        # truth {0,1}; candidates rank 0 first then two misses then 1
        ranked = np.array([[0, 5, 6, 1]])
        truth = np.array([[0, 1]])
        curve = precision_recall(ranked, truth, topN=2)
        np.testing.assert_allclose(curve.precision, [1.0, 0.5, 1 / 3, 0.5])
        np.testing.assert_allclose(curve.recall, [0.5, 0.5, 0.5, 1.0])

    def test_perfect_ranking(self):
        ranked = np.array([[2, 0, 1], [1, 2, 0]])
        truth = np.array([[2, 0], [1, 2]])
        curve = precision_recall(ranked, truth, topN=2)
        np.testing.assert_allclose(curve.precision[:2], 1.0)
        assert curve.recall[1] == 1.0

    def test_precision_equals_recall_at_topn_prefix(self):
        rng = np.random.default_rng(3)
        ranked = np.array([rng.permutation(30) for _ in range(5)])
        truth = ranked[:, :8].copy()
        for row in truth:
            rng.shuffle(row)
        curve = precision_recall(ranked, truth, topN=8)
        # prefix length = |truth| makes the two denominators equal
        assert curve.precision[7] == pytest.approx(curve.recall[7])

    def test_precision_at_recall(self):
        curve = PRCurve(lengths=np.array([1, 2, 3]),
                        precision=np.array([1.0, 0.6, 0.4]),
                        recall=np.array([0.3, 0.5, 1.0]))
        assert curve.precision_at_recall(0.5) == 0.6
        assert curve.precision_at_recall(0.99) == 0.4
        assert curve.precision_at_recall(1.01) == 0.0

    @pytest.mark.parametrize("nq,M,topN,seed", [(1, 1, 1, 0), (5, 30, 8, 1),
                                                 (40, 300, 10, 2), (7, 1000, 50, 3)])
    def test_same_bits_as_float_hits(self, nq, M, topN, seed):
        rng = np.random.default_rng(seed)
        ranked = np.stack([rng.permutation(2 * M)[:M] for _ in range(nq)])
        truth = np.stack([rng.permutation(2 * M)[:topN] for _ in range(nq)])
        hits = np.zeros((nq, M))
        for j in range(nq):
            hits[j] = np.isin(ranked[j], truth[j])
        cum = np.cumsum(hits, axis=1)
        lengths = np.arange(1, M + 1)
        curve = precision_recall(ranked, truth, topN)
        assert curve.precision.tobytes() == (cum / lengths).mean(axis=0).tobytes()
        assert curve.recall.tobytes() == (cum / topN).mean(axis=0).tobytes()

    def test_averaged_over_queries(self):
        ranked = np.array([[0, 1], [1, 0]])
        truth = np.array([[0], [0]])
        curve = precision_recall(ranked, truth, topN=1)
        assert curve.precision[0] == pytest.approx(0.5)
        assert curve.recall[1] == pytest.approx(1.0)


class TestSplitQueries:
    def test_disjoint_and_complete(self):
        qs = make_set(np.random.default_rng(4).standard_normal((20, 3)))
        ex, ev = split_queries(qs, 0.5, seed=0)
        assert ex.n == 10 and ev.n == 10
        assert set(ex.ids) | set(ev.ids) == set(range(20))
        assert set(ex.ids) & set(ev.ids) == set()

    def test_fraction_rounding(self):
        qs = make_set(np.random.default_rng(5).standard_normal((11, 3)))
        ex, ev = split_queries(qs, 0.5, seed=1)
        assert ex.n == 6 and ev.n == 5

    def test_deterministic(self):
        qs = make_set(np.random.default_rng(6).standard_normal((14, 3)))
        a, _ = split_queries(qs, 0.3, seed=2)
        b, _ = split_queries(qs, 0.3, seed=2)
        np.testing.assert_array_equal(a.ids, b.ids)


class TestQueryCovariance:
    """The paper's central idea: when the queries are not distributed like the
    data, a codebook trained under their second moment (quip-cov-q) ranks
    better than one trained under the data's (quip-cov-x) or under Sigma = I."""

    @staticmethod
    def _p_at_r50(index, db, ev):
        ranked = search_batch(index, ev.data, index.n)[0]
        return precision_recall(ranked, ground_truth(db, ev, 10), 10).precision_at_recall(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_cov_q_beats_cov_x_and_identity_on_anisotropic_queries(self, seed):
        n, d, K, C = 3000, 32, 4, 16
        rng = np.random.default_rng(seed)
        R = np.linalg.qr(rng.standard_normal((d, d)))[0]
        # query variance falls off geometrically along the axes of a random rotation
        qs = make_set((rng.standard_normal((200, d)) * np.exp(-0.25) ** np.arange(d)) @ R.T)
        db = generate_synthetic(n, d, 10.0, seed)
        ex, ev = split_queries(qs, 0.5, seed)
        cfg = ExperimentConfig(seed=seed, iters=10)
        p = {m: self._p_at_r50(build_quip_pipeline(m, db, ex, K, C, cfg), db, ev)
             for m in ("quip-cov-x", "quip-cov-q")}
        spec, dbp, _, cov = prepare_training("quip-cov-x", db, None, K, cfg)
        eye = replace(cov, matrices=np.tile(np.eye(cov.layout.l), (K, 1, 1)), ridge=0.0)
        cb, codes, _ = train_quip(dbp, eye, TrainConfig(K=K, C=C, T=cfg.iters, seed=seed))
        p["identity"] = self._p_at_r50(build_index(dbp, cb, codes, spec, eye), db, ev)
        assert p["quip-cov-q"] >= max(p["quip-cov-x"], p["identity"]) + 0.05, p


class TestFixedBitReports:
    def small_cfg(self, **kw):
        base = dict(n=120, d=8, n_queries=20, methods=("quip-cov-x", "simple-lsh"),
                    bits=(16,), C=4, topN=5, iters=5, seed=0,
                    preprocess="identity")
        base.update(kw)
        return ExperimentConfig(**base)

    def test_report_structure(self):
        report = run_fixed_bit(self.small_cfg())
        assert set(report["curves"]) == {"quip-cov-x@16", "simple-lsh@16"}
        entry = report["curves"]["quip-cov-x@16"]
        assert entry["bits"] == 16
        curve = entry["curve"]
        assert len(curve.lengths) == 120
        assert curve.recall[-1] == pytest.approx(1.0)

    def test_query_ms_excludes_training(self, monkeypatch, tmp_path):
        import time

        import quips.evalbench as eb
        real = eb.build_quip_pipeline

        def slow_pipeline(*args, **kw):
            time.sleep(0.5)
            return real(*args, **kw)

        monkeypatch.setattr(eb, "build_quip_pipeline", slow_pipeline)
        cfg = self.small_cfg(methods=("quip-cov-x",))
        report = run_fixed_bit(cfg)
        entry = report["curves"]["quip-cov-x@16"]
        assert entry["train_s"] >= 0.5
        # 10 evaluation queries: the sleep alone would be 50 ms per query
        assert entry["query_ms"] < 0.5 * 1e3 / cfg.n_queries
        json_path = str(tmp_path / "r.json")
        write_report(report, str(tmp_path / "r.csv"), json_path)
        with open(json_path) as f:
            summary = json.load(f)["methods"]["quip-cov-x@16"]
        assert summary["train_s"] == entry["train_s"]
        assert summary["query_ms"] == entry["query_ms"]

    def test_bit_budget_divides_into_subspaces(self):
        # 16 bits at C=4 (2 bits/code) must build K=8 subspaces on d=8
        report = run_fixed_bit(self.small_cfg())
        assert report["curves"]["quip-cov-x@16"]["budget"] == 16

    def test_indivisible_budget_rejected(self):
        with pytest.raises(ValueError):
            run_fixed_bit(self.small_cfg(bits=(11,)))

    def test_fixed_time_multiplies_lsh_bits_only(self):
        cfg = self.small_cfg(fixed_time_multiplier=3)
        report = run_fixed_time(cfg)
        assert report["curves"]["simple-lsh@16"]["bits"] == 48
        assert report["curves"]["quip-cov-x@16"]["bits"] == 16

    def test_multiplier_one_is_fixed_bit(self):
        cfg = self.small_cfg(fixed_time_multiplier=1)
        a = run_fixed_bit(cfg)
        b = run_fixed_time(cfg)
        for key in a["curves"]:
            np.testing.assert_array_equal(a["curves"][key]["curve"].precision,
                                          b["curves"][key]["curve"].precision)

    def test_all_methods_run(self):
        cfg = self.small_cfg(methods=("quip-cov-q", "quip-opt", "signed-alsh",
                                      "l2-alsh"), iters=3)
        report = run_fixed_bit(cfg)
        assert len(report["curves"]) == 4

    def test_write_report(self, tmp_path):
        report = run_fixed_bit(self.small_cfg())
        csv_path = str(tmp_path / "r.csv")
        json_path = str(tmp_path / "r.json")
        write_report(report, csv_path, json_path)
        with open(json_path) as f:
            summary = json.load(f)
        assert "quip-cov-x@16" in summary["methods"]
        assert "precision_at_recall_0.5" in summary["methods"]["quip-cov-x@16"]
        with open(csv_path) as f:
            lines = f.read().strip().splitlines()
        assert lines[0].startswith("method,")
        assert len(lines) == 1 + 2 * 120


class TestConfig:
    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"n": 500, "bits": [32, 64], "lam": 0.5}))
        cfg = ExperimentConfig.from_json(str(p))
        assert cfg.n == 500 and cfg.bits == (32, 64) and cfg.lam == 0.5
        assert cfg.C == 256  # untouched default

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"nope": 1}))
        with pytest.raises(ValueError):
            ExperimentConfig.from_json(str(p))


class TestUnbiasedness:
    def test_zero_error_for_exact_codebook(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((30, 6))
        index = exact_index(data, K=3)
        qs = make_set(rng.standard_normal((5, 6)))
        out = unbiasedness_check(index, qs, data, samples=100)
        # centroids are frozen to float32 at build time, so "exact" is exact
        # only to single precision
        assert out["mean_error"] == pytest.approx(0.0, abs=1e-5)

    def test_trained_index_unbiased(self):
        db = generate_synthetic(300, 16, 10.0, seed=8)
        qs = generate_synthetic(50, 16, 10.0, seed=9)
        layout = make_chunk_layout(16, 4)
        cov = regularize(estimate_subspace_covariances(db, layout), 1e-6)
        cb, codes, _ = train_quip(db, cov, TrainConfig(K=4, C=16, T=20, seed=0))
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=16)
        index = build_index(db, cb, codes, spec, cov)
        out = unbiasedness_check(index, qs, db.data, samples=5000, seed=1)
        assert out["within_3se"]

    def test_shifted_codebook_biased(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((30, 4)) + 5.0
        index = exact_index(data, K=2)
        shifted = Codebook(layout=index.codebook.layout,
                           centroids=index.codebook.centroids - 1.0)
        biased = build_index(make_set(data), shifted, index.codes,
                             index.preprocess, index.cov)
        qs = make_set(np.abs(rng.standard_normal((5, 4))) + 1.0)
        out = unbiasedness_check(biased, qs, data, samples=100)
        assert not out["within_3se"]


class TestSubspaceLosses:
    def test_zero_for_exact_codebook(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((20, 6))
        index = exact_index(data, K=3)
        qs = make_set(rng.standard_normal((4, 6)))
        np.testing.assert_allclose(subspace_losses(index, qs, data), 0.0,
                                   atol=1e-9)

    def test_double_loop_oracle(self):
        db = generate_synthetic(60, 8, 5.0, seed=12)
        qs = generate_synthetic(7, 8, 5.0, seed=13)
        layout = make_chunk_layout(8, 2)
        cov = regularize(estimate_subspace_covariances(db, layout), 1e-6)
        cb, codes, _ = train_quip(db, cov, TrainConfig(K=2, C=8, T=10, seed=0))
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=8)
        index = build_index(db, cb, codes, spec, cov)
        losses = subspace_losses(index, qs, db.data)
        cents = np.asarray(index.codebook.centroids, dtype=np.float64)
        for k in range(2):
            acc = 0.0
            for j in range(7):
                s = 0.0
                for i in range(60):
                    u = cents[k][codes.codes[i, k]]
                    x = db.data[i, k * 4:(k + 1) * 4]
                    q = qs.data[j, k * 4:(k + 1) * 4]
                    s += float(q @ (x - u)) ** 2
                acc += s
            assert losses[k] == pytest.approx(acc / 7, rel=1e-6)

    def test_matches_variance_identity(self):
        # average query-side loss equals |X| times the variance of the
        # per-pair signed error for an unbiased single-pair estimator
        db = generate_synthetic(80, 8, 5.0, seed=14)
        qs = generate_synthetic(40, 8, 5.0, seed=15)
        layout = make_chunk_layout(8, 1)
        cov = regularize(estimate_subspace_covariances(db, layout), 1e-6)
        cb, codes, _ = train_quip(db, cov, TrainConfig(K=1, C=8, T=20, seed=0))
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=8)
        index = build_index(db, cb, codes, spec, cov)
        loss = subspace_losses(index, qs, db.data)[0]
        cents = np.asarray(index.codebook.centroids, dtype=np.float64)
        resid = db.data - cents[0][codes.codes[:, 0]]
        z = qs.data @ resid.T
        # z rows sum squared errors; loss is E_q sum_x z^2 by construction
        assert loss == pytest.approx(float(np.mean(np.sum(z ** 2, axis=1))))


class TestConcentration:
    def test_exact_codebook_never_fails(self):
        rng = np.random.default_rng(16)
        data = np.abs(rng.standard_normal((25, 6))) + 0.5
        index = exact_index(data, K=3)
        qs = make_set(np.abs(rng.standard_normal((4, 6))) + 0.5)
        rep = concentration_check(index, qs, data, a=0.1, epsilon=0.1)
        assert rep.empirical_failure_rate == 0.0
        assert rep.delta == pytest.approx(0.0, abs=1e-5)

    def test_rate_below_bound_on_trained_index(self):
        db = generate_synthetic(400, 16, 5.0, seed=17)
        qs = generate_synthetic(40, 16, 5.0, seed=18)
        layout = make_chunk_layout(16, 4)
        cov = regularize(estimate_subspace_covariances(db, layout), 1e-6)
        cb, codes, _ = train_quip(db, cov, TrainConfig(K=4, C=32, T=20, seed=0))
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=16)
        index = build_index(db, cb, codes, spec, cov)
        rep = concentration_check(index, qs, db.data, a=1.0, epsilon=0.5)
        assert rep.empirical_failure_rate <= min(1.0, rep.variance_bound) + 1e-12
        assert rep.q_max > 0

    def test_hand_computed_rate_and_bound(self):
        # K=2 subspaces of width 1, C=2; one query q = (1, 1).  Row codes
        # pick centroids {1, 3} in subspace 0 and {2, 4} in subspace 1:
        #   x        u       q.x  q.u  residuals (r0, r1)
        #   (2, 2)   (3, 2)  4    5    (-1, 0)  above the band [3.5, 4.5]
        #   (1, 3)   (1, 2)  4    3    (0, 1)   below it
        #   (3, 4)   (3, 4)  7    7    (0, 0)   inside [6.125, 7.875]
        #   (1, 1)   (1, 2)  2    3    (0, -1)  q.x = a is not large
        data = np.array([[2.0, 2.0], [1.0, 3.0], [3.0, 4.0], [1.0, 1.0]])
        layout = make_chunk_layout(2, 2)
        cb = Codebook(layout=layout, centroids=np.array([[[1.0], [3.0]], [[2.0], [4.0]]]))
        codes = CodeMatrix(codes=np.array([[1, 0], [0, 0], [1, 1], [0, 0]], dtype=np.int32))
        cov = regularize(estimate_subspace_covariances(make_set(data), layout), 1e-6)
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=2)
        index = build_index(make_set(data), cb, codes, spec, cov)
        rep = concentration_check(index, make_set([[1.0, 1.0]]), data, a=2.0, epsilon=0.125)
        # one pair fails on each side of the band, of 4 pairs
        assert rep.empirical_failure_rate == 0.5
        # loss_k = sum of (q_k r_k)^2 over rows: 1 and 2.  Union bound with
        # Chebyshev at eps*a/K: K^3 max loss / (n a^2 eps^2) = 8 * 2 / (4 * 4 / 64)
        np.testing.assert_array_equal(rep.subspace_losses, [1.0, 2.0])
        assert rep.variance_bound == 64.0
        assert rep.q_max == 1.0 and rep.delta == 1.0

    def test_invalid_parameters(self):
        rng = np.random.default_rng(19)
        data = rng.standard_normal((10, 4))
        index = exact_index(data, K=2)
        qs = make_set(rng.standard_normal((2, 4)))
        with pytest.raises(ValueError):
            concentration_check(index, qs, data, a=0.0, epsilon=0.1)
        with pytest.raises(ValueError):
            concentration_check(index, qs, data, a=0.1, epsilon=-1.0)
        # NaN, infinity, and an epsilon whose n a^2 epsilon^2 (10 * 1e-2 * 1e-400,
        # the bound's denominator) underflows to 0
        for epsilon in (np.nan, np.inf, 1e-200):
            with pytest.raises(ValueError, match=f"epsilon={epsilon}"):
                concentration_check(index, qs, data, a=0.1, epsilon=epsilon)

    def test_to_dict_serializable(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((10, 4))
        index = exact_index(data, K=2)
        qs = make_set(rng.standard_normal((2, 4)))
        rep = concentration_check(index, qs, data, a=0.5, epsilon=0.2)
        json.dumps(rep.to_dict())

    def test_threshold_is_percentile_of_positive_products(self):
        q, x = np.array([[1.0], [-1.0]]), np.array([[1.0], [2.0], [3.0], [4.0]])
        # q . x is 1..4 and -1..-4; the negative half does not count
        assert concentration_threshold(q, x, 50.0) == 2.5
        with pytest.raises(DataError):
            concentration_threshold(q[:1], -x, 70.0)
