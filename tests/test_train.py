import functools
import multiprocessing
import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quips import train as train_module
from quips.covariance import (SubspaceCovariances, estimate_subspace_covariances,
                              regularize)
from quips.train import (Codebook, CodeMatrix, ConstraintTriplet, TrainConfig,
                         centroid_gradient, constrained_assign,
                         find_violated_constraints, mahalanobis_assign,
                         penalized_objective, subspace_objective,
                         train_quip, train_quip_opt, update_centroids,
                         _CANCEL_SHARE, _blocks_of, _cell_objective, _cell_stats,
                         _hinge_gradient, _init_centroids, _reseed_empty)
from quips.vecstore import make_chunk_layout

import reference
from reference import make_set


def database_cov(data, K, ridge=0.0):
    vs = make_set(data)
    layout = make_chunk_layout(vs.d, K)
    cov = estimate_subspace_covariances(vs, layout)
    if ridge:
        cov = regularize(cov, ridge)
    return vs, cov


class TestMahalanobisAssign:
    def test_identity_metric_is_euclidean(self):
        codes = mahalanobis_assign(np.array([[0.0, 0.0]]),
                                   np.array([[1.0, 0.0], [3.0, 0.0]]), np.eye(2))
        assert codes[0] == 0

    def test_singular_metric(self):
        # Sigma = diag(2, 0): distances 0 and 2 -> code 0
        codes = mahalanobis_assign(np.array([[1.0, 1.0]]),
                                   np.array([[1.0, 0.0], [0.0, 1.0]]),
                                   np.diag([2.0, 0.0]))
        assert codes[0] == 0

    def test_tie_lowest_index(self):
        codes = mahalanobis_assign(np.array([[0.0, 0.0]]),
                                   np.array([[1.0, 0.0], [-1.0, 0.0]]), np.eye(2))
        assert codes[0] == 0

    def test_matches_quadratic_form_oracle(self):
        rng = np.random.default_rng(0)
        blocks = rng.standard_normal((40, 3))
        cents = rng.standard_normal((5, 3))
        A = rng.standard_normal((3, 3))
        sigma = A @ A.T
        codes = mahalanobis_assign(blocks, cents, sigma)
        for i, x in enumerate(blocks):
            dists = [(x - c) @ sigma @ (x - c) for c in cents]
            assert codes[i] == int(np.argmin(dists))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mahalanobis_assign(np.zeros((2, 3)), np.zeros((4, 2)), np.eye(2))


class TestUpdateCentroids:
    def test_single_member_cells(self):
        blocks = np.array([[1.0, 2.0], [3.0, 4.0]])
        cents, empty = update_centroids(blocks, np.array([0, 1]), 2)
        np.testing.assert_array_equal(cents, blocks)
        assert empty == []

    def test_mean(self):
        cents, _ = update_centroids(np.array([[0.0, 0.0], [2.0, 2.0]]),
                                    np.array([0, 0]), 1)
        np.testing.assert_array_equal(cents[0], [1.0, 1.0])

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(1)
        blocks = rng.standard_normal((100, 3))
        codes = rng.integers(0, 5, size=100)
        cents, empty = update_centroids(blocks, codes, 5)
        for c in range(5):
            members = [blocks[i] for i in range(100) if codes[i] == c]
            if not members:
                assert c in empty
                continue
            acc = np.zeros(3)
            for m in members:
                acc += m
            np.testing.assert_allclose(cents[c], acc / len(members), atol=1e-12)


class TestReseedEmpty:
    # cells 1 and 2 are empty.  Rows 0-4 lie 0.25, 0.25, 9, 9.25 and 0 from
    # their centroids under Sigma = I; under diag(1, 0) row 3 lies 0.25 away,
    # and the tie with rows 0 and 1 goes to the lowest row
    @pytest.mark.parametrize("sigma, farthest", [(np.eye(2), [3, 2]),
                                                 (np.diag([1.0, 0.0]), [2, 0])])
    def test_empty_cells_take_the_farthest_members(self, sigma, farthest):
        blocks = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0], [0.0, 3.0], [2.0, 0.0]])
        codes = np.array([0, 0, 3, 0, 3])
        cents = np.array([[0.5, 0.0], [9.0, 9.0], [9.0, 9.0], [2.0, 0.0]])
        out = _reseed_empty(cents.copy(), [1, 2], blocks, codes, sigma)
        np.testing.assert_array_equal(out, [cents[0], blocks[farthest[0]],
                                            blocks[farthest[1]], cents[3]])


def cell_objective_instance(n, l, C, seed, noise, scale=1.0, float32=False):
    """Rows near C random centers of about this scale (noise sets how near),
    their codes drawn at random, so small n leaves cells empty, and a
    positive definite Sigma."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, C, size=n).astype(np.int32)
    centers = rng.standard_normal((C, l)) * scale
    rows = centers[codes] + noise * rng.standard_normal((n, l))
    if float32:
        rows = rows.astype(np.float32)
    a = rng.standard_normal((l, l))
    return rows, codes, a @ a.T / l + 0.1 * np.eye(l)


def cell_objective(rows, codes, centroids, sigma):
    """_cell_objective of the centroids over the rows, X from the reference."""
    X = reference.objective(rows, np.zeros_like(centroids), codes, sigma)
    return _cell_objective(X, *_cell_stats(rows, codes, len(centroids)), centroids, sigma,
                           rows, codes), X


class TestCellObjective:
    """The Lloyd objectives from cell statistics against the residual sums.

    Away from the guard the formula's rounding has measured at most 6 ulps of
    X = sum_x x^T Sigma x; above _CANCEL_SHARE * X that is at most about
    1e-11 of the objective, so 1e-9 leaves a hundredfold margin.  At or below
    the guard the residual sum itself is returned.
    """

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 40), l=st.integers(1, 5), C=st.integers(1, 12),
           seed=st.integers(0, 2 ** 32 - 1), noise=st.sampled_from([0.0, 1e-5, 1e-3, 1.0]),
           scale=st.sampled_from([1e-2, 1.0, 1e2]), float32=st.booleans(),
           which=st.sampled_from(["random", "means", "reseeded", "exact"]))
    def test_equals_the_residual_sum(self, n, l, C, seed, noise, scale, float32, which):
        C = min(C, n)  # as training requires; random codes still leave cells empty
        rows, codes, sigma = cell_objective_instance(n, l, C, seed, noise, scale, float32)
        if which == "random":
            cents = np.random.default_rng(seed + 1).standard_normal((C, l))
        elif which == "exact":  # one row per cell: a zero-error codebook
            C, codes = n, np.arange(n, dtype=np.int32)
            cents = rows.astype(np.float64)
        else:
            cents, empty = update_centroids(rows, codes, C)
            if which == "reseeded":
                cents = _reseed_empty(cents, empty, rows, codes, sigma)
        got, X = cell_objective(rows, codes, cents, sigma)
        want = reference.objective(rows, cents, codes, sigma)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)
        if which == "exact":
            assert got == 0.0

    # the objective is about noise^2 of X
    @pytest.mark.parametrize("noise, formula", [(1e-1, True), (3e-2, True),
                                                (3e-3, False), (1e-4, False)])
    def test_guard_sides(self, monkeypatch, noise, formula):
        """Above the guard the value is the formula's; at or below it, the
        residual sum bit for bit."""
        rows, codes, sigma = cell_objective_instance(400, 3, 8, 11, noise)
        means, _ = update_centroids(rows, codes, 8)
        want = subspace_objective(rows, means, codes, sigma)
        calls = []
        monkeypatch.setattr(train_module, "subspace_objective",
                            lambda *a: calls.append(a) or want)
        got, X = cell_objective(rows, codes, means, sigma)
        assert (want > _CANCEL_SHARE * X) == formula
        assert (not calls) == formula
        if formula:
            assert got == pytest.approx(want, rel=1e-12)
        else:
            assert got == want


class TestTrainQuip:
    def test_exact_codebook_zero_objective(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((8, 4))
        vs, cov = database_cov(data, K=2)
        cb, codes, trace = train_quip(vs, cov, TrainConfig(K=2, C=8, T=5, seed=0))
        assert trace[-1]["objective"] == pytest.approx(0.0, abs=1e-18)
        for k in range(2):
            assert len(set(codes.codes[:, k])) == 8  # bijection

    def test_single_centroid_is_mean(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((20, 3))
        vs, cov = database_cov(data, K=1)
        cb, codes, trace = train_quip(vs, cov, TrainConfig(K=1, C=1, T=3, seed=0))
        np.testing.assert_allclose(cb.centroids[0, 0], data.mean(axis=0), atol=1e-12)
        diff = data - data.mean(axis=0)
        expected = sum(r @ cov.matrices[0] @ r for r in diff)
        assert trace[-1]["objective"] == pytest.approx(expected, rel=1e-9)

    def test_beats_random_restart_oracle(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((64, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        from quips.covariance import SubspaceCovariances
        cov = SubspaceCovariances(layout=layout,
                                  matrices=np.stack([np.eye(2), np.eye(2)]),
                                  source="database")
        cb, codes, trace = train_quip(vs, cov, TrainConfig(K=2, C=4, T=30, seed=0))
        final = trace[-1]["objective"]
        blocks = _blocks_of(data, layout)
        for trial in range(50):
            obj = 0.0
            for k in range(2):
                rc = rng.integers(0, 4, size=64)
                cents, _ = update_centroids(blocks[k], rc, 4)
                obj += subspace_objective(blocks[k], cents, rc, np.eye(2))
            assert final <= obj + 1e-9

    def test_lloyd_monotone_half_steps(self):
        for seed in range(5):
            data = np.random.default_rng(seed).standard_normal((100, 8)) * (1 + seed)
            vs, cov = database_cov(data, K=4, ridge=1e-6)
            _, _, trace = train_quip(vs, cov, TrainConfig(K=4, C=8, T=20, seed=seed))
            objs = [t["objective"] for t in trace]
            for a, b in zip(objs, objs[1:]):
                assert b <= a * (1 + 1e-9) + 1e-15

    def test_first_iteration_objectives(self):
        """The assign entry scores the new codes against the old centroids and
        the update entry against the reseeded cell means, each a sum over the
        subspaces.  Training takes them from the cell statistics, so they
        equal the residual sums to a relative 1e-12, not bit for bit; scoring
        the assign entry against the new means would move it by about 30%."""
        data = np.random.default_rng(30).standard_normal((80, 6))
        vs, cov = database_cov(data, K=3, ridge=1e-6)
        cfg = TrainConfig(K=3, C=5, T=1, seed=2)
        blocks, sigma = _blocks_of(data, cov.layout), cov.matrices
        cents = [_init_centroids(blocks[k], cfg.C, cfg.seed, k) for k in range(3)]
        codes = [mahalanobis_assign(blocks[k], cents[k], sigma[k]) for k in range(3)]
        means = [_reseed_empty(*update_centroids(blocks[k], codes[k], cfg.C), blocks[k],
                               codes[k], sigma[k]) for k in range(3)]
        want = [sum(subspace_objective(blocks[k], u[k], codes[k], sigma[k]) for k in range(3))
                for u in (cents, means)]
        assert want[0] > want[1]
        got = [e["objective"] for e in train_quip(vs, cov, cfg)[2]]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_deterministic(self):
        data = np.random.default_rng(6).standard_normal((50, 6))
        vs, cov = database_cov(data, K=3)
        cfg = TrainConfig(K=3, C=8, T=10, seed=42)
        a = train_quip(vs, cov, cfg)
        b = train_quip(vs, cov, cfg)
        np.testing.assert_array_equal(a[0].centroids, b[0].centroids)
        np.testing.assert_array_equal(a[1].codes, b[1].codes)

    def test_n_less_than_C(self):
        vs, cov = database_cov(np.eye(3), K=1)
        with pytest.raises(ValueError):
            train_quip(vs, cov, TrainConfig(K=1, C=8))

    def test_converged_centroids_are_cell_means(self):
        data = np.random.default_rng(7).standard_normal((80, 4))
        vs, cov = database_cov(data, K=2, ridge=1e-6)
        cb, codes, _ = train_quip(vs, cov, TrainConfig(K=2, C=4, T=50, seed=1))
        blocks = _blocks_of(data, cov.layout)
        for k in range(2):
            for c in range(4):
                members = blocks[k][codes.codes[:, k] == c]
                if len(members):
                    np.testing.assert_allclose(cb.centroids[k, c],
                                               members.mean(axis=0), atol=1e-6)


def exact_codebook_instance(n=6, d=4, K=2, seed=0):
    """Codebook whose centroids are the data blocks themselves (zero error)."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, d))
    vs = make_set(data)
    layout = make_chunk_layout(d, K)
    blocks = _blocks_of(data, layout)
    cents = np.stack([blocks[k] for k in range(K)])
    codes = np.tile(np.arange(n, dtype=np.int32)[:, None], (1, K))
    return vs, layout, Codebook(layout=layout, centroids=cents), CodeMatrix(codes=codes)


class TestConstraintMining:
    def test_perfect_quantization_no_violations(self):
        vs, layout, cb, codes = exact_codebook_instance()
        queries = make_set(np.random.default_rng(1).standard_normal((5, 4)))
        assert find_violated_constraints(cb, codes, vs, queries, layout, 10, 0) == []

    def test_constructed_inversion(self):
        # Quantization merges the top-2 points onto their midpoint; a third,
        # lower-scoring point keeps its own centroid and overtakes the winner.
        data = np.array([[1.0, 0.0], [0.8, 0.6], [0.0, 0.9]])
        vs = make_set(data)
        layout = make_chunk_layout(2, 1)
        cents = np.array([[(data[0] + data[1]) / 2, data[2], [9.0, 9.0], [9.0, 9.0]]])[0]
        cb = Codebook(layout=layout, centroids=cents[None, :, :])
        codes = CodeMatrix(codes=np.array([[0], [0], [1]], dtype=np.int32))
        q = np.array([[1.0, 0.1]])
        # exact: scores 1.0, 0.86, 0.09 -> pos = 0
        # quantized: q.c0 = 0.93, q.c1 = 0.09 -> no violation yet; tilt q
        q = np.array([[0.2, 1.0]])
        # exact: 0.2, 0.76, 0.9 -> pos = 2; quantized: x2 -> 0.9..; others 0.48
        queries = make_set(q)
        exact = q[0] @ data.T
        pos = int(np.argmax(exact))
        qs = np.array([q[0] @ cents[codes.codes[i, 0]] for i in range(3)])
        expected = [(i, qs[i]) for i in range(3) if qs[i] > qs[pos]]
        trips = find_violated_constraints(cb, codes, vs, queries, layout, 10, 0)
        if expected:
            assert len(trips) == 1
            assert trips[0].pos_id == pos
            assert trips[0].neg_id == max(expected, key=lambda t: t[1])[0]
        else:
            assert trips == []

    def test_brute_force_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((12, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        blocks = _blocks_of(data, layout)
        cents = np.stack([b[:3] for b in blocks])  # first 3 rows as centroids
        cb = Codebook(layout=layout, centroids=cents)
        codes = CodeMatrix(codes=np.stack(
            [mahalanobis_assign(blocks[k], cents[k], np.eye(2)) for k in range(2)],
            axis=1).astype(np.int32))
        queries = make_set(rng.standard_normal((4, 4)))
        trips = find_violated_constraints(cb, codes, vs, queries, layout, 100, 0)
        # oracle: enumerate every (q, x) pair by hand
        for trip in trips:
            q = queries.data[trip.query_id]
            exact = data @ q
            assert trip.pos_id == int(np.argmax(exact))
            qscore = np.zeros(12)
            for k in range(2):
                qk = q[k * 2 : (k + 1) * 2]
                qscore += np.array([qk @ cents[k][codes.codes[i, k]] for i in range(12)])
            assert exact[trip.pos_id] >= exact[trip.neg_id]
            assert qscore[trip.neg_id] > qscore[trip.pos_id]
            # neg is the strongest violator
            viol = [i for i in range(12) if qscore[i] > qscore[trip.pos_id]]
            assert trip.neg_id == viol[int(np.argmax(qscore[viol]))]

    def test_j_cap(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((30, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        blocks = _blocks_of(data, layout)
        cents = np.stack([b[:2] for b in blocks])  # coarse: violations likely
        cb = Codebook(layout=layout, centroids=cents)
        codes = CodeMatrix(codes=np.stack(
            [mahalanobis_assign(blocks[k], cents[k], np.eye(2)) for k in range(2)],
            axis=1).astype(np.int32))
        queries = make_set(rng.standard_normal((20, 4)))
        all_trips = find_violated_constraints(cb, codes, vs, queries, layout, 1000, 0)
        if len(all_trips) >= 2:
            capped = find_violated_constraints(cb, codes, vs, queries, layout, 1, 0)
            assert len(capped) == 1

    def test_rows_must_be_padded(self):
        # d=6, K=4: blocks of l=2, so mining needs rows 8 wide
        rng = np.random.default_rng(7)
        layout = make_chunk_layout(6, 4)
        cb = Codebook(layout=layout, centroids=rng.standard_normal((4, 3, 2)))
        codes = CodeMatrix(codes=np.zeros((10, 4), dtype=np.int32))
        raw, padded = rng.standard_normal((10, 6)), np.zeros((10, 8))
        padded[:, :6] = raw
        for db, qs in ((raw, padded[:3]), (padded, raw[:3])):
            with pytest.raises(ValueError, match=r"6 wide.*d_padded = 8"):
                find_violated_constraints(cb, codes, make_set(db), make_set(qs),
                                          layout, 10, 0)
        assert isinstance(find_violated_constraints(
            cb, codes, make_set(padded), make_set(padded[:3]), layout, 10, 0), list)


class TestConstrainedAssign:
    def setup_method(self):
        rng = np.random.default_rng(7)
        self.blocks = rng.standard_normal((10, 2))
        self.cents = rng.standard_normal((3, 2))
        self.sigma = np.eye(2)
        self.qb = rng.standard_normal((2, 2))
        self.trips = [ConstraintTriplet(query_id=0, pos_id=1, neg_id=2),
                      ConstraintTriplet(query_id=1, pos_id=3, neg_id=4)]

    def test_empty_triplets_equals_plain(self):
        a = constrained_assign(self.blocks, self.cents, self.sigma, [], 0.5,
                               np.zeros((0, 2)))
        b = mahalanobis_assign(self.blocks, self.cents, self.sigma)
        np.testing.assert_array_equal(a, b)

    def test_lambda_zero_equals_plain(self):
        a = constrained_assign(self.blocks, self.cents, self.sigma, self.trips,
                               0.0, self.qb)
        b = mahalanobis_assign(self.blocks, self.cents, self.sigma)
        np.testing.assert_array_equal(a, b)

    def test_untouched_vectors_identical(self):
        a = constrained_assign(self.blocks, self.cents, self.sigma, self.trips,
                               0.5, self.qb)
        b = mahalanobis_assign(self.blocks, self.cents, self.sigma)
        touched = {1, 2, 3, 4}
        for i in range(10):
            if i not in touched:
                assert a[i] == b[i]

    def test_penalty_flips_winner(self):
        # row 0 sits nearer centroid 0; as the pos of a triplet its penalty
        # subtracts lam * q.U_c, and q.U_1 is large enough to flip it to 1
        blocks = np.array([[0.1, 0.0], [50.0, 50.0]])
        cents = np.array([[0.0, 0.0], [1.0, 0.0]])
        q = np.array([[10.0, 0.0]])  # q.U0 = 0, q.U1 = 10
        assert mahalanobis_assign(blocks, cents, np.eye(2))[0] == 0
        trips = [ConstraintTriplet(query_id=0, pos_id=0, neg_id=1)]
        # enumerate both candidate costs by hand:
        #   c=0: -2*0.1*0 + 0 - 1.0 * 0  = 0 (quad terms) ... c=1 wins by -10
        out = constrained_assign(blocks, cents, np.eye(2), trips, 1.0, q)
        assert out[0] == 1

    @pytest.mark.parametrize("J", [1, 2, 7, 200])
    @pytest.mark.parametrize("C", [1, 4, 16, 256, 300])
    @pytest.mark.parametrize("l", [1, 2, 3, 8, 17, 64])
    def test_penalty_matches_per_triplet_loop(self, monkeypatch, l, C, J):
        """The penalty handed to the assignment holds the reference's dense
        penalty at the rows the triplets name, bit for bit, for contiguous,
        float32 and strided query blocks holding more rows than triplets."""
        rng = np.random.default_rng([l, C, J])
        blocks, cents = rng.standard_normal((50, l)), rng.standard_normal((C, l)) * 3
        trips = [ConstraintTriplet(query_id=j, pos_id=int(p), neg_id=int(q))
                 for j, (p, q) in enumerate(rng.integers(0, 50, (J, 2)))]
        wide = rng.standard_normal((J + 3, 2 * l)) * 10.0 ** rng.integers(-3, 3, (J + 3, 1))
        seen = []
        real = train_module._assign_codes
        monkeypatch.setattr(train_module, "_assign_codes",
                            lambda *a: seen.append(a[3:]) or real(*a))
        for qb in (wide[:, :l].copy(), wide[:, :l].astype(np.float32), wide[:, ::2]):
            seen.clear()
            constrained_assign(blocks, cents, np.eye(l), trips, 0.3, qb)
            (rows, penalty), = seen
            # the penalized rows are those the triplets name, ascending
            want_rows = np.unique([(t.neg_id, t.pos_id) for t in trips])
            assert_bits_equal(rows, want_rows)
            assert_bits_equal(penalty, reference.penalty(50, cents, trips, 0.3, qb)[want_rows])


class TestCentroidGradient:
    def test_stationary_at_mean_no_triplets(self):
        rng = np.random.default_rng(8)
        blocks = rng.standard_normal((20, 3))
        codes = rng.integers(0, 2, size=20).astype(np.int32)
        cents = np.zeros((2, 3))
        for c in range(2):
            cents[c] = blocks[codes == c].mean(axis=0)
        sigma = np.eye(3) * 2.0
        for c in range(2):
            g = centroid_gradient(c, cents, codes, blocks, sigma, [], 0.1,
                                  np.zeros((0, 3)))
            np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_empty_cell_no_triplets(self):
        g = centroid_gradient(1, np.zeros((2, 3)), np.zeros(5, dtype=np.int32),
                              np.random.default_rng(0).standard_normal((5, 3)),
                              np.eye(3), [], 0.1, np.zeros((0, 3)))
        np.testing.assert_array_equal(g, np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        grad_matches_fd(seed)


def grad_matches_fd(seed, rtol=1e-5):
    """Central finite differences of the penalized objective vs centroid_gradient."""
    rng = np.random.default_rng(seed)
    n, d, K, C = int(rng.integers(10, 50)), 4, 2, int(rng.integers(2, 5))
    l = d // K
    data = rng.standard_normal((n, d))
    layout = make_chunk_layout(d, K)
    blocks = _blocks_of(data, layout)
    cents = [rng.standard_normal((C, l)) for _ in range(K)]
    codes = np.stack([rng.integers(0, C, size=n) for _ in range(K)], axis=1).astype(np.int32)
    nq = 3
    qdata = rng.standard_normal((nq, d))
    q_blocks = _blocks_of(qdata, layout)
    vs = make_set(data)
    cov = estimate_subspace_covariances(make_set(qdata), layout,
                                        source="example_queries")
    lam = 0.05
    trips = [ConstraintTriplet(query_id=int(rng.integers(0, nq)),
                               pos_id=int(rng.integers(0, n)),
                               neg_id=int(rng.integers(0, n)))
             for _ in range(6)]
    trips = [t for t in trips if t.pos_id != t.neg_id]

    def margin(t):
        return sum(float(q_blocks[kk][t.query_id]
                         @ (cents[kk][codes[t.neg_id, kk]]
                            - cents[kk][codes[t.pos_id, kk]]))
                   for kk in range(K))

    # mining only ever yields violated triplets, where the hinge is active
    # and bounded away from its kink
    trips = [t for t in trips if margin(t) > 1e-3]

    def objective(cents_list):
        return penalized_objective(cents_list, codes, blocks, cov, trips,
                                   q_blocks, lam)

    h = 1e-6
    for k in range(K):
        tq = np.array([q_blocks[k][t.query_id] for t in trips]) if trips \
            else np.zeros((0, l))
        for c in range(C):
            g = centroid_gradient(c, cents[k], codes[:, k], blocks[k],
                                  cov.matrices[k], trips, lam, tq)
            fd = np.zeros(l)
            for i in range(l):
                up = [m.copy() for m in cents]
                dn = [m.copy() for m in cents]
                up[k][c, i] += h
                dn[k][c, i] -= h
                fd[i] = (objective(up) - objective(dn)) / (2 * h)
            scale = max(np.linalg.norm(g), np.linalg.norm(fd), 1e-8)
            assert np.linalg.norm(g - fd) <= rtol * scale + 1e-8


class TestTrainQuipOpt:
    def test_lambda_zero_reduces_to_train_quip(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((40, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        queries = make_set(rng.standard_normal((10, 4)))
        cov = regularize(estimate_subspace_covariances(queries, layout,
                                                       source="example_queries"), 1e-6)
        cfg = TrainConfig(K=2, C=4, T=10, seed=3, lam=0.0)
        cb_a, codes_a, _ = train_quip(vs, cov, cfg)
        cb_b, codes_b, _ = train_quip_opt(vs, queries, cov, cfg)
        np.testing.assert_allclose(cb_a.centroids, cb_b.centroids, atol=1e-9)
        np.testing.assert_array_equal(codes_a.codes, codes_b.codes)

    def test_no_constraints_reduces_to_train_quip(self):
        # perfect quantization is reachable (C = n): no order can invert
        rng = np.random.default_rng(10)
        data = rng.standard_normal((6, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        queries = make_set(rng.standard_normal((5, 4)))
        cov = regularize(estimate_subspace_covariances(queries, layout,
                                                       source="example_queries"), 1e-6)
        cfg = TrainConfig(K=2, C=6, T=10, seed=0, lam=0.01)
        cb_a, _, _ = train_quip(vs, cov, cfg)
        cb_b, _, trace = train_quip_opt(vs, queries, cov, cfg)
        if all(t["n_constraints"] == 0 for t in trace):
            np.testing.assert_allclose(cb_a.centroids, cb_b.centroids, atol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((40, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        queries = make_set(rng.standard_normal((10, 4)))
        cov = regularize(estimate_subspace_covariances(queries, layout,
                                                       source="example_queries"), 1e-6)
        cfg = TrainConfig(K=2, C=4, T=8, seed=5)
        a = train_quip_opt(vs, queries, cov, cfg)
        b = train_quip_opt(vs, queries, cov, cfg)
        np.testing.assert_array_equal(a[0].centroids, b[0].centroids)

    def test_objective_recorded_each_iteration(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((30, 4))
        vs = make_set(data)
        layout = make_chunk_layout(4, 2)
        queries = make_set(rng.standard_normal((8, 4)))
        cov = regularize(estimate_subspace_covariances(queries, layout,
                                                       source="example_queries"), 1e-6)
        _, _, trace = train_quip_opt(vs, queries, cov, TrainConfig(K=2, C=4, T=6, seed=1))
        assert len(trace) >= 1
        for t in trace:
            assert np.isfinite(t["objective"])
            assert t["n_constraints"] >= 0


    def _instance(self, seed):
        rng = np.random.default_rng(seed)
        vs = make_set(rng.standard_normal((60, 4)))
        queries = make_set(rng.standard_normal((12, 4)))
        cov = regularize(estimate_subspace_covariances(
            queries, make_chunk_layout(4, 2), source="example_queries"), 1e-6)
        return vs, queries, cov

    def test_no_mining_equals_train_quip_bit_for_bit(self):
        vs, queries, cov = self._instance(13)
        cfg = TrainConfig(K=2, C=4, T=10, seed=2, J=0)
        cb_a, codes_a, trace_a = train_quip(vs, cov, cfg)
        cb_b, codes_b, trace_b = train_quip_opt(vs, queries, cov, cfg)
        assert np.array_equal(cb_a.centroids, cb_b.centroids)
        assert np.array_equal(codes_a.codes, codes_b.codes)
        assert trace_a == trace_b

    def test_lambda_zero_equals_train_quip_bit_for_bit(self):
        vs, queries, cov = self._instance(14)
        cfg = TrainConfig(K=2, C=4, T=10, seed=3, lam=0.0)
        cb_a, codes_a, trace_a = train_quip(vs, cov, cfg)
        cb_b, codes_b, trace_b = train_quip_opt(vs, queries, cov, cfg)
        assert np.array_equal(cb_a.centroids, cb_b.centroids)
        assert np.array_equal(codes_a.codes, codes_b.codes)
        assert trace_a == trace_b

    @staticmethod
    def _first_update(vs, queries, cov, cfg):
        """Iteration 0 of train_quip_opt rebuilt from the trainer's helpers:
        its codes, cell means and hinge gradient, and whether the full step
        raises the objective above the assignment's."""
        layout, sigma, K = cov.layout, cov.matrices, cov.layout.K
        blocks, q_all = _blocks_of(vs.data, layout), _blocks_of(queries.data, layout)
        cents = np.stack([_init_centroids(blocks[k], cfg.C, cfg.seed, k) for k in range(K)])
        codes = np.stack([mahalanobis_assign(blocks[k], cents[k], sigma[k])
                          for k in range(K)], axis=1)
        triplets = find_violated_constraints(Codebook(layout, cents), CodeMatrix(codes), vs,
                                             queries, layout, cfg.J, cfg.seed)
        mined = q_all[:, [t.query_id for t in triplets]]
        codes = np.stack([constrained_assign(blocks[k], cents[k], sigma[k], triplets,
                                             cfg.lam, mined[k]) for k in range(K)], axis=1)
        before = penalized_objective(cents, codes, blocks, cov, triplets, q_all, cfg.lam)
        means = np.stack([_reseed_empty(*update_centroids(blocks[k], codes[:, k], cfg.C),
                                        blocks[k], codes[:, k], sigma[k]) for k in range(K)])
        grad = np.stack([_hinge_gradient(means[k], codes[:, k], triplets, cfg.lam, mined[k])
                         for k in range(K)])
        after = penalized_objective(means - grad, codes, blocks, cov, triplets, q_all,
                                    cfg.lam)
        assert triplets and grad.any(), "instance mines nothing"
        return codes, means, grad, after > before

    # at lam=0.01 the full step lowers the objective; at lam=1 it overshoots
    # and the step is halved
    @pytest.mark.parametrize("lam, halved", [(0.01, False), (1.0, True)])
    def test_first_update_steps_down_the_hinge(self, lam, halved):
        vs, queries, cov = self._instance(15)
        cfg = TrainConfig(K=2, C=4, T=1, seed=1, lam=lam)
        codes, means, grad, rises = self._first_update(vs, queries, cov, cfg)
        assert rises == halved
        cb, got, _ = train_quip_opt(vs, queries, cov, cfg)
        np.testing.assert_array_equal(got.codes, codes)
        eta = cfg.eta(0) / 2.0 if halved else cfg.eta(0)
        np.testing.assert_array_equal(cb.centroids, means - eta * grad)

    def test_one_trace_format(self):
        vs, queries, cov = self._instance(15)
        cfg = TrainConfig(K=2, C=4, T=6, seed=1)
        plain = train_quip(vs, cov, cfg)[2]
        opt = train_quip_opt(vs, queries, cov, cfg)[2]
        assert any(e["n_constraints"] for e in opt), "instance mines nothing"
        for trace in (plain, opt):
            assert [e["phase"] for e in trace] == ["assign", "update"] * (len(trace) // 2)
            for t, (a, u) in enumerate(zip(trace[::2], trace[1::2])):
                assert set(a) == set(u) == {"iteration", "phase", "objective",
                                            "n_constraints"}
                assert a["iteration"] == u["iteration"] == t
                assert a["n_constraints"] >= 0 and u["n_constraints"] == 0

    def test_assignment_passes(self, monkeypatch):
        # K passes per iteration; with J=0 nothing is mined, so example
        # queries add no seed passes
        vs, queries, cov = self._instance(16)
        calls = []
        real = train_module.mahalanobis_assign
        monkeypatch.setattr(train_module, "mahalanobis_assign",
                            lambda *a: calls.append(1) or real(*a))
        cfg = TrainConfig(K=2, C=4, T=6, seed=1, J=0)
        trace = train_quip(vs, cov, cfg)[2]
        assert len(calls) == 2 * len(trace) // 2
        calls.clear()
        trace = train_quip_opt(vs, queries, cov, cfg)[2]
        assert len(calls) == 2 * len(trace) // 2


    # one _per_subspace call per Lloyd iteration; given triplets, the seed
    # assignment and each penalized objective take one more
    @pytest.mark.parametrize("lam, halved", [(0.01, False), (1.0, True)])
    def test_fan_outs_per_iteration(self, monkeypatch, lam, halved):
        vs, queries, cov = self._instance(15)
        calls = []
        real = train_module._per_subspace
        monkeypatch.setattr(train_module, "_per_subspace",
                            lambda fn, K: calls.append(K) or real(fn, K))
        trace = train_quip(vs, cov, TrainConfig(K=2, C=4, T=8, seed=1))[2]
        assert len(calls) == len(trace) // 2 >= 3
        calls.clear()
        cfg = TrainConfig(K=2, C=4, T=1, seed=1, lam=lam)
        assert self._first_update(vs, queries, cov, cfg)[3] == halved
        calls.clear()
        train_quip_opt(vs, queries, cov, cfg)
        assert len(calls) == 1 + 3 + halved


class TestTrainConfig:
    def test_edges_accepted(self):
        TrainConfig(K=1, C=1, T=1, J=0, lam=0.0, convergence_tol=0.0)

    @pytest.mark.parametrize("field, value", [
        ("K", 0), ("C", 0), ("T", 0), ("T", -1), ("J", -3), ("lam", -5.0),
        ("lam", float("nan")), ("lam", float("inf")), ("convergence_tol", -1e-9),
        ("convergence_tol", float("nan"))])
    def test_out_of_range_is_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


class TestUnbiasedness:
    def test_mean_signed_error_within_3se(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((200, 8))
        vs, cov = database_cov(data, K=4, ridge=1e-6)
        cb, codes, _ = train_quip(vs, cov, TrainConfig(K=4, C=8, T=30, seed=2))
        queries = rng.standard_normal((100, 8))
        blocks = _blocks_of(data, cov.layout)
        errs = []
        for q in queries:
            exact = data @ q
            approx = np.zeros(200)
            for k in range(4):
                qk = q[k * 2 : (k + 1) * 2]
                approx += (qk @ cb.centroids[k].T)[codes.codes[:, k]]
            errs.extend(exact - approx)
        errs = np.asarray(errs)
        se = errs.std(ddof=1) / np.sqrt(errs.size)
        assert abs(errs.mean()) <= 3 * se


# ---------------------------------------------------------------------------
# tiled kernels against the reference's whole-matrix code, bit for bit


def assert_bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


TILE = 4  # rows per tile at C=8 under small_tiles


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(train_module, "_TILE_COSTS", TILE * 8)
    monkeypatch.setattr(train_module, "_MINE_QUERIES", TILE)


def kernel_instance(n, l=3, C=8, seed=0):
    rng = np.random.default_rng([seed, n, l])
    blocks = rng.standard_normal((n, l)) * 3
    cents = rng.standard_normal((C, l)) * 3
    A = rng.standard_normal((l, l))
    return blocks, cents, A @ A.T + 0.1 * np.eye(l)


EDGE_SIZES = [1, TILE - 1, TILE, TILE + 1, 2 * TILE + 1]


class TestRowTiles:
    @pytest.mark.parametrize("n", range(0, 14))
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_cover_without_one_row_tiles(self, n, size):
        tiles = train_module._row_tiles(n, size)
        assert [i for lo, hi in tiles for i in range(lo, hi)] == list(range(n))
        assert all(hi - lo > 1 for lo, hi in tiles) or n == 1


    def test_default_tiles_assign_matches_whole_matrix(self):
        rng = np.random.default_rng(1)  # 12 tiles of 128 rows, then one row folded in
        blocks, cents = rng.standard_normal((1537, 8)), rng.standard_normal((256, 8))
        sigma = np.cov(blocks.T)
        assert_bits_equal(mahalanobis_assign(blocks, cents, sigma),
                          reference.assign(blocks, cents, sigma))


class TestBlocksOf:
    @pytest.mark.parametrize("d,K", [(6, 2), (7, 3), (64, 1), (64, 8), (60, 8)])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_one_tensor_of_contiguous_blocks(self, d, K, n):
        from quips.vecstore import pad_to
        layout = make_chunk_layout(d, K)
        data = np.random.default_rng([n, d, K]).standard_normal((n, d))
        blocks = _blocks_of(data, layout)
        assert blocks.shape == (K, n, layout.l) and blocks.flags.c_contiguous
        for k in range(K):
            want = np.ascontiguousarray(layout.block(pad_to(data, layout.d_padded), k))
            assert blocks[k].flags.c_contiguous
            assert_bits_equal(blocks[k], want)


@pytest.mark.usefixtures("small_tiles")
class TestTiledKernels:
    @pytest.mark.parametrize("n", EDGE_SIZES)
    @pytest.mark.parametrize("l", [1, 3, 8])
    def test_assign_matches_whole_matrix(self, n, l):
        blocks, cents, sigma = kernel_instance(n, l)
        assert_bits_equal(mahalanobis_assign(blocks, cents, sigma),
                          reference.assign(blocks, cents, sigma))

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_tied_centroids_lowest_wins(self, n):
        blocks, cents, sigma = kernel_instance(n)
        cents[5] = cents[2]
        cents[7] = cents[2]
        blocks[::2] = cents[2]  # exact hits on the tied triple
        codes = mahalanobis_assign(blocks, cents, sigma)
        assert_bits_equal(codes, reference.assign(blocks, cents, sigma))
        assert not np.isin(codes, [5, 7]).any()
        assert (codes[::2] == 2).all()

    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_constrained_matches_dense_penalty(self, n):
        blocks, cents, sigma = kernel_instance(n)
        rng = np.random.default_rng(n)
        # rows on both sides of every tile edge, repeated and in both roles
        edge = sorted({0, n - 1} | {r for e in range(TILE, n, TILE)
                                    for r in (e - 1, e) if r < n})
        pairs = [(a, b) for a in edge for b in edge if a != b] or [(0, 0)]
        trips = [ConstraintTriplet(query_id=j, pos_id=int(p), neg_id=int(q))
                 for j, (p, q) in enumerate(pairs + pairs[:3])]
        qb = rng.standard_normal((len(trips), 3)) * 5
        for lam in (0.0, 0.3, 50.0):
            want = reference.assign(blocks, cents, sigma,
                                    reference.penalty(n, cents, trips, lam, qb))
            assert_bits_equal(constrained_assign(blocks, cents, sigma, trips, lam, qb),
                              want)

    @pytest.mark.parametrize("n", EDGE_SIZES + [40])
    def test_update_centroids_matches_add_at(self, n):
        blocks, _, _ = kernel_instance(n)
        codes = np.random.default_rng(n).integers(0, 8, n).astype(np.int32)
        cents, empty = update_centroids(blocks, codes, 8)
        want_cents, want_empty = reference.update(blocks, codes, 8)
        assert_bits_equal(cents, want_cents)
        assert empty == want_empty

    @pytest.mark.parametrize("n", EDGE_SIZES + [40])
    def test_objective_matches_row_major_einsum(self, n):
        blocks, cents, sigma = kernel_instance(n, l=8)
        sigma[0, 1] += 0.5  # asymmetric: the (l, m) order shows
        codes = np.random.default_rng(n).integers(0, 8, n)
        diff = blocks - cents[codes]
        want = np.einsum("nl,lm,nm->n", diff, sigma, diff)
        assert_bits_equal(train_module._maha_sq(blocks, cents, codes, sigma), want)
        assert subspace_objective(blocks, cents, codes, sigma) == float(np.sum(want))

    @pytest.mark.parametrize("seed", range(3))
    def test_hinge_gradient_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 4, 30).astype(np.int32)
        trips = [ConstraintTriplet(j, int(rng.integers(30)), int(rng.integers(30)))
                 for j in range(25)]
        qb = rng.standard_normal((25, 3))
        cents = np.zeros((4, 3))
        assert_bits_equal(train_module._hinge_gradient(cents, codes, trips, 0.7, qb),
                          reference.hinge_gradient(cents, codes, trips, 0.7, qb))
        assert_bits_equal(train_module._hinge_gradient(cents, codes, [], 0.7,
                                                       np.zeros((0, 3))),
                          np.zeros((4, 3)))

    @pytest.mark.parametrize("nq", EDGE_SIZES)
    def test_mining_matches_per_query_loop(self, nq):
        rng = np.random.default_rng(nq)
        data = rng.standard_normal((40, 6))
        vs = make_set(data)
        layout = make_chunk_layout(6, 2)
        blocks = _blocks_of(data, layout)
        cents = np.stack([b[:3] for b in blocks])  # coarse: many inversions
        cb = Codebook(layout=layout, centroids=cents)
        codes = CodeMatrix(codes=np.stack(
            [mahalanobis_assign(blocks[k], cents[k], np.eye(3)) for k in range(2)],
            axis=1))
        queries = make_set(rng.standard_normal((nq, 6)))
        every = reference.mine(cents, codes.codes, data, queries.data, 10 ** 6, 3)
        assert every, "instance mines nothing"
        for J in sorted({0, 1, TILE - 1, TILE, len(every) - 1, len(every), 10 ** 6}):
            assert (find_violated_constraints(cb, codes, vs, queries, layout, J, 3)
                    == reference.mine(cents, codes.codes, data, queries.data, J, 3))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("nq", EDGE_SIZES + [3 * TILE + 2])
    def test_mining_matches_viol_loop_on_ties(self, nq, seed):
        # each of the 9 code pairs is held by 4 or 5 of the 40 rows, so every
        # quantized score, the maximum too, is shared by several rows
        rng = np.random.default_rng([nq, seed])
        vs = make_set(rng.standard_normal((40, 6)))
        layout = make_chunk_layout(6, 2)
        cb = Codebook(layout=layout, centroids=rng.standard_normal((2, 3, 3)))
        pairs = np.array([(a, b) for a in range(3) for b in range(3)] * 5, dtype=np.int32)
        codes = CodeMatrix(codes=rng.permutation(pairs[:40]))
        queries = make_set(rng.standard_normal((nq, 6)))
        mine = functools.partial(reference.mine, cb.centroids, codes.codes, vs.data,
                                 queries.data)
        every = mine(10 ** 6, seed)
        for J in sorted({0, 1, TILE, len(every) - 1, len(every), 10 ** 6} - {-1}):
            assert (find_violated_constraints(cb, codes, vs, queries, layout, J, seed)
                    == mine(J, seed))
        tied = [t for t in every if np.sum((s := reference.scan(reference.table(
            queries.data[t.query_id], cb.centroids), codes.codes)) == s.max()) > 1]
        assert len(tied) == len(every)

    @pytest.mark.parametrize("l", [1, 3, 8, 16])
    @pytest.mark.parametrize("J", [0, 1, 200])
    def test_penalized_objective_matches_triplet_loop(self, l, J):
        rng = np.random.default_rng([l, J])
        K, C, n, nq = 3, 5, 60, 30
        layout = make_chunk_layout(K * l, K)
        q_blocks = _blocks_of(rng.standard_normal((nq, K * l)) * 4, layout)
        cents = rng.standard_normal((K, C, l))
        codes = rng.integers(0, C, (n, K)).astype(np.int32)
        # rows on their centroids: the quantization error is 0, so the
        # objective's bits are the hinge sum's
        blocks = np.stack([cents[k][codes[:, k]] for k in range(K)])
        cov = SubspaceCovariances(layout=layout, matrices=np.stack([np.eye(l)] * K),
                                  source="database")
        # margins of both signs, queries and rows repeated
        trips = [ConstraintTriplet(int(rng.integers(nq)), int(rng.integers(n)),
                                   int(rng.integers(n))) for _ in range(J)]
        for lam in (0.0, 0.01, 1.0):
            got = penalized_objective(cents, codes, blocks, cov, trips, q_blocks, lam)
            want = reference.penalized_objective(cents, codes, blocks, cov.matrices, trips,
                                                 q_blocks, lam)
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("nq", EDGE_SIZES)
    def test_memoized_top1_matches_per_query_loop(self, nq):
        # one dict across rounds whose codebooks differ, as in training: the
        # exact top-1 is computed once per block and the triplets stay exact
        rng = np.random.default_rng(nq)
        data = rng.standard_normal((40, 6))
        vs = make_set(data)
        layout = make_chunk_layout(6, 2)
        blocks = _blocks_of(data, layout)
        queries = make_set(rng.standard_normal((nq, 6)))
        top1, seen = {}, {}
        for r, J in enumerate((1, 10 ** 6, 2, 10 ** 6)):
            cents = np.stack([b[r:r + 3] for b in blocks])
            cb = Codebook(layout=layout, centroids=cents)
            codes = CodeMatrix(codes=np.stack(
                [mahalanobis_assign(blocks[k], cents[k], np.eye(3)) for k in range(2)],
                axis=1))
            assert (find_violated_constraints(cb, codes, vs, queries, layout, J, 3, top1)
                    == reference.mine(cents, codes.codes, data, queries.data, J, 3))
            assert all(top1[lo] is best for lo, best in seen.items())
            seen = dict(top1)
        assert sorted(top1) == [lo for lo, _ in train_module._row_tiles(nq, TILE)]


def _per_subspace_or_exit():
    """Child process body: exit 0 once _per_subspace returns its results."""
    sys.exit(0 if train_module._per_subspace(lambda k: k * k, 4) == [0, 1, 4, 9] else 1)


class TestPerSubspace:
    def test_threads_live_only_for_the_call(self, pooled_and_serial):
        def run():
            before = threading.active_count()
            names = train_module._per_subspace(lambda k: threading.current_thread().name, 5)
            return names, threading.active_count() - before

        (pooled, pooled_left), (serial, serial_left) = pooled_and_serial(run)
        assert all(name.startswith("quips") for name in pooled)
        assert serial == [threading.current_thread().name] * 5
        assert pooled_left == serial_left == 0

    def test_nested_call_returns_serial_results(self, pooled_and_serial):
        def outer(k):
            return train_module._per_subspace(lambda j: 10 * k + j, 4)

        out = []
        runner = threading.Thread(
            target=lambda: out.append(pooled_and_serial(
                lambda: train_module._per_subspace(outer, 6))), daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "nested call deadlocked"
        expected = [[10 * k + j for j in range(4)] for k in range(6)]
        assert out == [(expected, expected)]

    # bad and 6 fail.  On threads, 6 usually fails first in time, as bad sleeps
    # longer, and 7 is usually still running when bad fails.  The serial loop
    # runs `ran`, then stops at bad.
    @pytest.mark.parametrize("bad,ran", [(1, {0}), (0, set())])
    def test_error_reaches_caller_once_every_thread_is_done(self, pooled_and_serial,
                                                            bad, ran):
        lock = threading.Lock()
        started, returned = set(), set()

        def fn(k):
            with lock:
                started.add(k)
            try:
                time.sleep({bad: 0.2, 7: 0.4}.get(k, 0.01))
                if k in (bad, 6):
                    raise ValueError(f"subspace {k}")
            finally:
                with lock:
                    returned.add(k)

        def run():
            started.clear()
            returned.clear()
            with pytest.raises(ValueError, match=f"subspace {bad}$") as caught:
                train_module._per_subspace(fn, 8)
            assert caught.type is ValueError
            with lock:
                return set(started), set(returned)

        (pooled_started, pooled_returned), (serial_started, serial_returned) = \
            pooled_and_serial(run)
        assert pooled_started == pooled_returned >= ran | {bad}
        assert serial_started == serial_returned == ran | {bad}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_makes_its_own_pool(self, pooled_and_serial):
        def fork_child():
            # a call on worker threads first, then a fork
            train_module._per_subspace(lambda k: time.sleep(0.05), 4)
            time.sleep(0.1)
            child = multiprocessing.get_context("fork").Process(target=_per_subspace_or_exit)
            child.start()
            child.join(timeout=60)
            if child.is_alive():
                child.kill()
                child.join()
            return child.exitcode

        assert pooled_and_serial(fork_child) == (0, 0)


class TestParallelTraining:
    """Training on worker threads equals the serial loop bit for bit."""

    def _instance(self):
        rng = np.random.default_rng(21)
        vs = make_set(rng.standard_normal((300, 16)) * 2)
        queries = make_set(rng.standard_normal((40, 16)))
        cov = regularize(estimate_subspace_covariances(
            vs, make_chunk_layout(16, 4)), 1e-6)
        return vs, queries, cov

    @staticmethod
    def assert_same_run(a, b):
        assert_bits_equal(a[0].centroids, b[0].centroids)
        assert_bits_equal(a[1].codes, b[1].codes)
        assert a[2] == b[2]

    def test_train_quip(self, pooled_and_serial):
        vs, _, cov = self._instance()
        cfg = TrainConfig(K=4, C=8, T=6, seed=1)
        self.assert_same_run(*pooled_and_serial(lambda: train_quip(vs, cov, cfg)))

    def test_train_quip_opt(self, pooled_and_serial):
        vs, queries, cov = self._instance()
        cfg = TrainConfig(K=4, C=8, T=5, seed=1, J=15, lam=0.5)
        pooled, serial = pooled_and_serial(lambda: train_quip_opt(vs, queries, cov, cfg))
        assert any(e["n_constraints"] for e in pooled[2]), "instance mines nothing"
        self.assert_same_run(pooled, serial)
