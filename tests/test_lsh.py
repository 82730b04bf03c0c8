import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quips.lsh import (AlshParams, augment_set, bucket_match_search,
                       hamming_search, l2_alsh_augment, l2_encode,
                       signed_alsh_augment, simple_lsh_augment, srp_encode)

import reference
from reference import l2_hash


class TestL2Augment:
    def test_shapes(self):
        p = AlshParams(m=3, U0=0.85)
        d_aug = l2_alsh_augment(np.ones(4), "database", p, max_norm=2.0)
        q_aug = l2_alsh_augment(np.ones(4), "query", p, max_norm=2.0)
        assert d_aug.shape == (7,) and q_aug.shape == (7,)

    def test_norm_powers(self):
        # unit vector scaled so the shrunken copy has norm exactly 0.5
        p = AlshParams(m=3, U0=0.5)
        d = l2_alsh_augment(np.array([1.0, 0.0]), "database", p, max_norm=1.0)
        np.testing.assert_allclose(d[2:], [0.5 ** 2, 0.5 ** 4, 0.5 ** 8])

    def test_query_halves(self):
        p = AlshParams(m=2, U0=0.85)
        q = l2_alsh_augment(np.array([1.0, 2.0, 3.0]), "query", p, max_norm=1.0)
        np.testing.assert_array_equal(q[3:], [0.5, 0.5])
        np.testing.assert_array_equal(q[:3], [1.0, 2.0, 3.0])

    def test_largest_vector_hits_u0(self):
        p = AlshParams(m=1, U0=0.85)
        d = l2_alsh_augment(np.array([2.0, 0.0]), "database", p, max_norm=2.0)
        assert np.linalg.norm(d[:2]) == pytest.approx(0.85)

    def test_norm_term_decays_with_m(self):
        # the last appended power ||x~||^(2^m) vanishes as m grows
        for m in range(1, 6):
            p = AlshParams(m=m, U0=0.85)
            d = l2_alsh_augment(np.array([1.0, 0.0]), "database", p, max_norm=1.0)
            assert d[-1] == pytest.approx(0.85 ** (2 ** m))
        assert 0.85 ** (2 ** 5) < 1e-2

    def test_zero_max_norm_rejected(self):
        with pytest.raises(ValueError):
            l2_alsh_augment(np.ones(2), "database", AlshParams(), max_norm=0.0)


class TestSignedAugment:
    def test_database_terms(self):
        # with ||x~|| = 0.5 the appended terms are 1/2 - 0.5^(2^i)
        p = AlshParams(m=2, U0=0.5)
        d = signed_alsh_augment(np.array([1.0, 0.0]), "database", p, max_norm=1.0)
        np.testing.assert_allclose(d[2:], [0.5 - 0.25, 0.5 - 0.0625])

    def test_query_zero_padding(self):
        p = AlshParams(m=3, U0=0.85)
        q = signed_alsh_augment(np.array([4.0, 5.0]), "query", p, max_norm=1.0)
        np.testing.assert_array_equal(q[2:], 0.0)
        np.testing.assert_array_equal(q[:2], [4.0, 5.0])

    def test_inner_product_order_preserved_on_augmented(self):
        # q_aug . x_aug = q . x~ since the query tail is zero
        p = AlshParams(m=3, U0=0.85)
        rng = np.random.default_rng(0)
        q = rng.standard_normal(5)
        x = rng.standard_normal(5)
        d = signed_alsh_augment(x, "database", p, max_norm=3.0)
        qa = signed_alsh_augment(q, "query", p, max_norm=3.0)
        assert float(qa @ d) == pytest.approx(0.85 / 3.0 * float(q @ x))


class TestSimpleAugment:
    def test_database_unit_norm(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((20, 5))
        mx = float(np.linalg.norm(data, axis=1).max())
        for row in data:
            d = simple_lsh_augment(row, "database", mx)
            assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-9)

    def test_max_norm_vector_gets_zero_tail(self):
        d = simple_lsh_augment(np.array([3.0, 4.0]), "database", max_norm=5.0)
        np.testing.assert_allclose(d, [0.6, 0.8, 0.0])

    def test_query_normalized_zero_tail(self):
        q = simple_lsh_augment(np.array([0.0, 5.0]), "query", max_norm=2.0)
        np.testing.assert_allclose(q, [0.0, 1.0, 0.0])

    def test_zero_query_rejected(self):
        with pytest.raises(ValueError):
            simple_lsh_augment(np.zeros(3), "query", max_norm=1.0)


class TestAugmentSet:
    def test_dispatch_shapes(self):
        data = np.random.default_rng(2).standard_normal((6, 4))
        p = AlshParams(m=3)
        mx = float(np.linalg.norm(data, axis=1).max())
        for scheme, extra in (("l2_alsh", 3), ("signed_alsh", 3),
                              ("simple_lsh", 1)):
            d = augment_set(data, scheme, "database", p, mx)
            q = augment_set(data, scheme, "query", p, mx)
            assert d.shape == (6, 4 + extra)
            assert q.shape == (6, 4 + extra)

    def test_unknown_scheme(self):
        with pytest.raises(KeyError):
            augment_set(np.ones((1, 2)), "nope", "database", AlshParams(), 1.0)

    @pytest.mark.parametrize("side", ["database", "query"])
    @pytest.mark.parametrize("scheme", ["l2_alsh", "signed_alsh", "simple_lsh"])
    def test_rows_equal_per_row_oracle_bit_for_bit(self, scheme, side):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((2000, 64)) * rng.uniform(0.5, 10.0, size=(2000, 1))
        p = AlshParams()
        mx = float(np.linalg.norm(data, axis=1).max())
        got = augment_set(data, scheme, side, p, mx)
        want = np.stack([reference.augment(v, scheme, side, p, mx) for v in data])
        assert got.tobytes() == want.tobytes()


class TestL2Hash:
    def test_floor_semantics(self):
        proj = np.array([1.0, 0.0])
        assert l2_hash(np.array([0.0, 0.0]), proj, 0.0, r_lsh=2.5) == 0
        assert l2_hash(np.array([2.4, 0.0]), proj, 0.0, r_lsh=2.5) == 0
        # floor, not truncation: slightly negative projections land in bucket -1
        assert l2_hash(np.array([-0.1, 0.0]), proj, 0.0, r_lsh=2.5) == -1

    def test_offset_shift(self):
        proj = np.array([1.0])
        assert l2_hash(np.array([2.0]), proj, 0.0, r_lsh=1.0) == 2
        assert l2_hash(np.array([2.0]), proj, 0.9, r_lsh=1.0) == 2
        assert l2_hash(np.array([2.0]), proj, 1.0, r_lsh=1.0) == 3

    def test_encode_matches_scalar_hash(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((10, 4))
        buckets = l2_encode(data, n_hashes=6, r_lsh=2.0, seed=9)
        gen = np.random.default_rng(9)
        P = gen.standard_normal((6, 4))
        b = gen.uniform(0.0, 2.0, size=6)
        for i in range(10):
            for j in range(6):
                assert buckets[i, j] == l2_hash(data[i], P[j], float(b[j]), 2.0)

    def test_bucket_match_ranking(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((50, 6))
        codes = l2_encode(data, n_hashes=8, r_lsh=2.5, seed=3)
        matches = bucket_match_search(codes, codes[[7, 3]])
        assert matches.shape == (2, 50)
        assert matches[0, 7] == matches[1, 3] == 8
        np.testing.assert_array_equal(matches, (codes[[7, 3], None, :] == codes).sum(axis=2))

    def test_encode_deterministic(self):
        data = np.random.default_rng(5).standard_normal((10, 4))
        a = l2_encode(data, n_hashes=6, r_lsh=2.0, seed=9)
        b = l2_encode(data, n_hashes=6, r_lsh=2.0, seed=9)
        np.testing.assert_array_equal(a, b)


class TestSrp:
    def test_scalar_sign_oracle(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((12, 5))
        codes = srp_encode(data, b_bits=16, seed=4)
        bits = np.unpackbits(codes.packed, axis=1)[:, :16]
        proj = np.random.default_rng(4).standard_normal((16, 5))
        for i in range(12):
            for j in range(16):
                expect = 1 if float(proj[j] @ data[i]) >= 0.0 else 0
                assert bits[i, j] == expect

    def test_negation_flips_all_bits(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((4, 6))
        a = np.unpackbits(srp_encode(data, 24, seed=0).packed, axis=1)[:, :24]
        b = np.unpackbits(srp_encode(-data, 24, seed=0).packed, axis=1)[:, :24]
        np.testing.assert_array_equal(a, 1 - b)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((1, 6))
        a = srp_encode(q, 32, seed=1)
        b = srp_encode(2.0 * q, 32, seed=1)
        np.testing.assert_array_equal(a.packed, b.packed)

    def test_hamming_per_bit_oracle(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((30, 8))
        codes = srp_encode(data, b_bits=32, seed=2)
        qc = srp_encode(rng.standard_normal((3, 8)), b_bits=32, seed=2)
        dists = hamming_search(codes, qc)
        bits = np.unpackbits(codes.packed, axis=1)[:, :32]
        qbits = np.unpackbits(qc.packed, axis=1)[:, :32]
        assert dists.shape == (3, 30)
        for j in range(3):
            for i in range(30):
                assert dists[j, i] == (bits[i] != qbits[j]).sum()

    def test_self_distance_zero(self):
        data = np.random.default_rng(10).standard_normal((5, 4))
        codes = srp_encode(data, b_bits=64, seed=3)
        qc = srp_encode(data[2:3], b_bits=64, seed=3)
        assert hamming_search(codes, qc)[0, 2] == 0

    def test_bit_width_mismatch(self):
        a = srp_encode(np.ones((2, 3)), b_bits=16, seed=0)
        b = srp_encode(np.ones((1, 3)), b_bits=24, seed=0)
        with pytest.raises(ValueError):
            hamming_search(a, b)

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_bit_or_hash_rejected(self, count):
        with pytest.raises(ValueError, match="b_bits"):
            srp_encode(np.ones((2, 3)), count, seed=0)
        with pytest.raises(ValueError, match="n_hashes"):
            l2_encode(np.ones((2, 3)), count, r_lsh=2.5, seed=0)

    @given(st.integers(0, 2 ** 20 - 1))
    @settings(max_examples=30, deadline=None)
    def test_pack_roundtrip(self, value):
        bits = np.array([[int(b) for b in format(value, "020b")]], dtype=np.uint8)
        packed = np.packbits(bits, axis=1)
        back = np.unpackbits(packed, axis=1)[:, :20]
        np.testing.assert_array_equal(back, bits)
