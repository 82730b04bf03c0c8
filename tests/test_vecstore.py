import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quips.vecstore import (ChunkLayout, DataError, DenseVectorSet, _fwht, apply_preprocess,
                            generate_synthetic, load_vectors, make_chunk_layout,
                            make_preprocess, pad_to, save_fvecs, PreprocessSpec)

import reference
from reference import make_set


def balancedness(v: np.ndarray, layout: ChunkLayout) -> float:
    """Largest eta such that no block carries more than (1/K + (1-eta)) of ||v||^2."""
    v = pad_to(np.asarray(v, dtype=np.float64), layout.d_padded)
    total = float(np.dot(v, v))
    if total == 0.0:
        raise ValueError("balancedness undefined for the zero vector")
    frac = max(float(np.dot(b, b)) / total
               for b in (layout.block(v, k) for k in range(layout.K)))
    return 1.0 + 1.0 / layout.K - frac


class TestFvecs:
    def test_roundtrip_two_vectors(self, tmp_path):
        path = str(tmp_path / "v.fvecs")
        save_fvecs(make_set([[1, 2, 3], [4, 5, 6]]), path)
        vs = load_vectors(path, "fvecs")
        assert vs.n == 2 and vs.d == 3
        np.testing.assert_array_equal(vs.data, [[1, 2, 3], [4, 5, 6]])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.fvecs"
        path.write_bytes(b"")
        with pytest.raises(DataError, match="no vectors"):
            load_vectors(str(path), "fvecs")

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.fvecs"
        path.write_bytes(np.array([3], dtype="<i4").tobytes() + b"\x00" * 4)
        with pytest.raises(DataError, match="truncated"):
            load_vectors(str(path), "fvecs")

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "ragged.fvecs"
        rows = [np.array([3], dtype="<i4").tobytes() + np.ones(3, dtype="<f4").tobytes(),
                np.array([4], dtype="<i4").tobytes() + np.ones(4, dtype="<f4").tobytes(),
                np.array([3], dtype="<i4").tobytes() + np.ones(3, dtype="<f4").tobytes()]
        path.write_bytes(b"".join(rows))
        with pytest.raises(DataError, match="row 1 has dimensionality 4, expected 3"):
            load_vectors(str(path), "fvecs")

    @pytest.mark.parametrize("d", [0, -2])
    def test_nonpositive_dimensionality(self, tmp_path, d):
        path = tmp_path / "bad.fvecs"
        path.write_bytes(np.array([d], dtype="<i4").tobytes() + b"\x00" * 8)
        with pytest.raises(DataError, match=f"bad dimensionality {d}"):
            load_vectors(str(path), "fvecs")

    def test_non_finite_names_file_and_row(self, tmp_path):
        path = tmp_path / "nan.fvecs"
        header = np.array([2], dtype="<i4").tobytes()
        path.write_bytes(header + np.array([1, 2], dtype="<f4").tobytes()
                         + header + np.array([np.inf, 0], dtype="<f4").tobytes())
        with pytest.raises(DataError, match=r"nan\.fvecs: non-finite entry at row 1"):
            load_vectors(str(path), "fvecs")

    def test_roundtrip_bit_exact(self, tmp_path):
        vs = generate_synthetic(50, 7, 5.0, seed=3)
        p1, p2 = tmp_path / "a.fvecs", tmp_path / "b.fvecs"
        save_fvecs(vs, str(p1))
        loaded = load_vectors(str(p1), "fvecs")
        save_fvecs(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestCsv:
    def test_basic(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        vs = load_vectors(str(path), "csv")
        np.testing.assert_array_equal(vs.data, [[1, 2], [3, 4]])

    def test_ragged_row_named(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,2,3\n1,2,3,4\n1,2,3\n")
        with pytest.raises(DataError, match="row 1"):
            load_vectors(str(path), "csv")

    def test_id_column(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("7,1.5,2.5\n9,0.5,0.25\n")
        vs = load_vectors(str(path), "csv", id_column=True)
        np.testing.assert_array_equal(vs.ids, [7, 9])
        np.testing.assert_array_equal(vs.data, [[1.5, 2.5], [0.5, 0.25]])

    def test_duplicate_ids_name_the_file(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("7,1.5,2.5\n9,0.5,0.25\n7,1.0,1.0\n")
        with pytest.raises(DataError, match=r"v\.csv: ids are not unique"):
            load_vectors(str(path), "csv", id_column=True)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "v.csv"
        path.write_text("1,2\nnan,4\n")
        with pytest.raises(DataError, match="row 1"):
            load_vectors(str(path), "csv")


class TestDenseVectorSet:
    @pytest.mark.parametrize("ids", [[0, 0], [3, 1, 2, 1], [5, 4, 3, 2, 5],
                                     [-1, 2**62, -1]])
    def test_duplicate_ids_rejected(self, ids):
        with pytest.raises(DataError, match="ids are not unique"):
            DenseVectorSet(data=np.zeros((len(ids), 2)), ids=np.array(ids, dtype=np.int64))

    @pytest.mark.parametrize("ids", [[], [4], [3, 1, 2], [-1, 2**62, 0]])
    def test_distinct_ids_accepted(self, ids):
        vs = DenseVectorSet(data=np.zeros((len(ids), 2)), ids=np.array(ids, dtype=np.int64))
        assert vs.n == len(ids)


class TestSynthetic:
    def test_unit_spread(self):
        vs = generate_synthetic(100, 8, 1.0, seed=0)
        np.testing.assert_allclose(np.linalg.norm(vs.data, axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("spread", [0.5, float("nan"), float("inf"), float("-inf")])
    def test_spread_outside_one_to_inf(self, spread):
        with pytest.raises(ValueError, match=r"norm_spread must lie in \[1, inf\)"):
            generate_synthetic(10, 4, spread, seed=0)

    def test_deterministic(self):
        a = generate_synthetic(60, 12, 10.0, seed=5)
        b = generate_synthetic(60, 12, 10.0, seed=5)
        np.testing.assert_array_equal(a.data, b.data)

    def test_norm_range(self):
        vs = generate_synthetic(1000, 32, 10.0, seed=1)
        norms = np.linalg.norm(vs.data, axis=1)
        assert norms.min() == pytest.approx(1.0, rel=0.05)
        assert norms.max() == pytest.approx(10.0, rel=0.05)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 4, 2.0, seed=0)


class TestChunkLayout:
    @pytest.mark.parametrize("d,K,l,d_padded", [
        (150, 8, 19, 152),
        (8, 8, 1, 8),
        (5, 2, 3, 6),
    ])
    def test_arithmetic(self, d, K, l, d_padded):
        layout = make_chunk_layout(d, K)
        assert (layout.l, layout.d_padded) == (l, d_padded)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            make_chunk_layout(4, 5)


class TestPreprocess:
    def test_identity_is_exact(self):
        vs = generate_synthetic(10, 6, 3.0, seed=2)
        spec = PreprocessSpec(kind="identity", seed=0, d_padded=6)
        out = apply_preprocess(vs, spec)
        np.testing.assert_array_equal(out.data, vs.data)

    def test_permutation_definition(self):
        vs = make_set([[1.0, 2.0, 3.0]])
        spec = PreprocessSpec(kind="permutation", seed=11, d_padded=3)
        perm = np.random.default_rng(11).permutation(3)
        out = apply_preprocess(vs, spec)
        np.testing.assert_array_equal(out.data[0], vs.data[0][perm])

    def test_hadamard_preserves_dots(self):
        rng = np.random.default_rng(0)
        spec = PreprocessSpec(kind="hadamard_rotation", seed=4, d_padded=4)
        for _ in range(10):
            u, v = rng.standard_normal((2, 4))
            tu = apply_preprocess(make_set([u]), spec).data[0]
            tv = apply_preprocess(make_set([v]), spec).data[0]
            assert tu @ tv == pytest.approx(u @ v, abs=1e-6 * np.linalg.norm(u) * np.linalg.norm(v))

    @pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32, 64])
    def test_fwht_is_sylvester_matrix_product(self, d):
        sylvester = reference.sylvester(d)
        # small integers keep every partial sum exact, so equality is bitwise
        rows = np.random.default_rng(d).integers(-9, 10, size=(5, d)).astype(np.float64)
        np.testing.assert_array_equal(_fwht(rows.copy()), rows @ sylvester)
        np.testing.assert_array_equal(_fwht(rows[0].copy()), rows[0] @ sylvester)

    def test_hadamard_requires_pow2(self):
        with pytest.raises(ValueError):
            PreprocessSpec(kind="hadamard_rotation", seed=0, d_padded=6)

    def test_table_is_the_seeds_draw_and_not_compared(self):
        spec = PreprocessSpec(kind="permutation", seed=11, d_padded=5)
        assert spec.table.tolist() == np.random.default_rng(11).permutation(5).tolist()
        assert not spec.table.flags.writeable
        given = PreprocessSpec("permutation", 11, 5, table=np.arange(5)[::-1])
        assert given.table.tolist() == [4, 3, 2, 1, 0]
        assert given == spec and hash(given) == hash(spec)
        signs = PreprocessSpec(kind="hadamard_rotation", seed=4, d_padded=8).table
        assert signs.tolist() == np.random.default_rng(4).choice([-1.0, 1.0], size=8).tolist()
        assert PreprocessSpec(kind="identity", seed=9, d_padded=3).table.tolist() == [0, 1, 2]

    @pytest.mark.parametrize("kind, table, message", [
        ("identity", [1, 0, 2, 3], "identity table is not 0..3"),
        ("permutation", [0, 0, 2, 3], "not a permutation of 0..3"),
        ("permutation", [0, 1, 2, 4], "not a permutation of 0..3"),
        ("permutation", [0, 1, 2], r"shape \(3,\); d_padded is 4"),
        ("hadamard_rotation", [1, -1, 0, 1], "entry other than"),
        ("hadamard_rotation", [1, -1, 2, 1], "entry other than")])
    def test_given_table_is_checked(self, kind, table, message):
        with pytest.raises(ValueError, match=message):
            PreprocessSpec(kind, 0, 4, table=np.array(table))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0; got -1"):
            PreprocessSpec(kind="identity", seed=-1, d_padded=4)

    def test_make_preprocess_widens_for_hadamard(self):
        layout = make_chunk_layout(12, 4)
        spec, layout2 = make_preprocess("hadamard_rotation", 0, layout)
        assert spec.d_padded == 16 and layout2.d_padded == 16 and layout2.l == 4

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2 ** 31), st.sampled_from(["permutation", "hadamard_rotation"]),
           st.integers(0, 10 ** 6))
    def test_inner_product_invariance(self, seed, kind, vseed):
        spec = PreprocessSpec(kind=kind, seed=seed, d_padded=16)
        u, v = np.random.default_rng(vseed).standard_normal((2, 13))
        vs = make_set([u, v])
        out = apply_preprocess(vs, spec)
        tol = 1e-6 * np.linalg.norm(u) * np.linalg.norm(v) + 1e-12
        assert abs(out.data[0] @ out.data[1] - u @ v) <= tol

    def test_zero_padding_preserves_dots(self):
        u, v = np.random.default_rng(8).standard_normal((2, 5))
        assert pad_to(u, 9) @ pad_to(v, 9) == u @ v


class TestBalancedness:
    def test_perfectly_balanced(self):
        layout = make_chunk_layout(4, 2)
        assert balancedness(np.ones(4), layout) == pytest.approx(1.0)

    def test_all_in_one_block(self):
        layout = make_chunk_layout(2, 2)
        assert balancedness(np.array([1.0, 0.0]), layout) == pytest.approx(0.5)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            balancedness(np.zeros(4), make_chunk_layout(4, 2))

    def test_permutation_expected_block_norms(self):
        # Monte-Carlo: mean per-block squared norm over random permutations
        # approaches ||v||^2 / K.
        rng = np.random.default_rng(9)
        v = rng.standard_normal(128)
        layout = make_chunk_layout(128, 8)
        total = v @ v
        n_perms = 1000
        samples = np.zeros((n_perms, layout.K))
        for i in range(n_perms):
            pv = v[rng.permutation(128)]
            for k in range(layout.K):
                b = layout.block(pv, k)
                samples[i, k] = b @ b
        means = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(n_perms)
        assert np.all(np.abs(means - total / layout.K) <= 4.0 * se)

    def test_hadamard_balancedness_bound(self):
        # Empirical failure frequency vs the 2d*exp(-(1-eta)^2 K^2 / 2) bound;
        # report-only when the bound exceeds 1.
        d, K, eta = 64, 8, 0.5
        layout = make_chunk_layout(d, K)
        bound = 2 * d * np.exp(-((1 - eta) ** 2) * K * K / 2.0)
        rng = np.random.default_rng(3)
        fails = 0
        trials = 200
        for i in range(trials):
            v = rng.standard_normal(d)
            spec = PreprocessSpec(kind="hadamard_rotation", seed=1000 + i, d_padded=d)
            tv = apply_preprocess(make_set([v]), spec).data[0]
            if balancedness(tv, layout) < eta:
                fails += 1
        if bound <= 1.0:
            assert fails / trials <= bound + 3.0 * np.sqrt(bound / trials + 1e-9)
