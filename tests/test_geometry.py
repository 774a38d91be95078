"""Similarity primitives against hand values and oracles."""

import math

import numpy as np
import pytest

from fcre.geometry import as_embedding, cosine, euclidean, rank_scores, unit_normalize


class TestCosine:
    def test_hand_value(self):
        expected = 32.0 / (math.sqrt(14.0) * math.sqrt(77.0))
        np.testing.assert_allclose(cosine([1, 2, 3], [4, 5, 6]), expected, rtol=1e-12)

    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            v = rng.normal(size=6)
            np.testing.assert_allclose(cosine(v, v), 1.0, atol=1e-12)

    def test_bounded(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b = rng.normal(size=(2, 5))
            assert -1.0 <= cosine(a, b) <= 1.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(7)
        a, b = rng.normal(size=(2, 8))
        np.testing.assert_allclose(cosine(a, 3.5 * b), cosine(a, b), rtol=1e-12)

    def test_zero_norm_names_argument(self):
        with pytest.raises(ValueError, match="first argument"):
            cosine([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="second argument"):
            cosine([1.0, 0.0], [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match=r"^first argument\[1\] must be a finite numeric value, got nan$"):
            cosine([1.0, float("nan")], [1.0, 2.0])
        with pytest.raises(ValueError, match="^second argument contains non-finite entries$"):
            cosine([1.0, 2.0], np.array([1.0, float("inf")]))


class TestEuclidean:
    def test_sum_of_squares_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            a, b = rng.normal(size=(2, 8))
            expected = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))
            np.testing.assert_allclose(euclidean(a, b), expected, rtol=1e-12)

    def test_identity(self):
        assert euclidean([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b, c = rng.normal(size=(3, 4))
            assert euclidean(a, c) <= euclidean(a, b) + euclidean(b, c) + 1e-12


class TestRankScores:
    def test_simple_ordering(self):
        scores, ranks = rank_scores({3: 0.1, 1: 0.9, 2: 0.5})
        assert ranks == {1: 1, 2: 2, 3: 3}
        assert scores == {3: 0.1, 1: 0.9, 2: 0.5}

    def test_ties_break_by_ascending_id(self):
        table = rank_scores({5: 0.5, 2: 0.5, 9: 0.5})
        assert table.ranks == {2: 1, 5: 2, 9: 3}

    def test_sorted_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 12))
            ids = rng.choice(100, size=n, replace=False)
            # coarse values force frequent exact ties
            scores = {int(i): float(rng.integers(0, 4)) / 4.0 for i in ids}
            expected_order = sorted(scores, key=lambda r: (-scores[r], r))
            expected = {r: i + 1 for i, r in enumerate(expected_order)}
            assert rank_scores(scores).ranks == expected

    def test_ranks_are_a_bijection(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            scores = {i: float(rng.normal()) for i in range(n)}
            ranks = rank_scores(scores).ranks
            assert sorted(ranks.values()) == list(range(1, n + 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            rank_scores({})

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_scores({0: float("nan")})

    @pytest.mark.parametrize("key, shown", [(2.5, r"2\.5"), (True, "True"), ("7", "'7'")])
    def test_a_relation_id_that_is_not_an_integer_is_rejected(self, key, shown):
        # {2.5: 1.0, 2: 0.5} was ranked as one entry, {2: 0.5}
        with pytest.raises(ValueError, match=rf"^relation id must be an integer, got {shown}$"):
            rank_scores({key: 1.0, 2: 0.5})

    def test_numpy_integer_ids_are_ranked_as_python_ints(self):
        ranking = rank_scores({np.int64(4): 0.5, np.uint8(1): 0.9})
        assert ranking == ({4: 0.5, 1: 0.9}, {1: 1, 4: 2})
        assert all(type(rel) is int for rel in ranking.ranks)


class TestEmbeddingValidation:
    def test_as_embedding_coerces_to_float64(self):
        out = as_embedding([1, 2, 3])
        assert out.dtype == np.float64

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match=r"^embedding must be a non-empty 1-D array, got shape \(1, 2\)$"):
            as_embedding(np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match=r"^embedding\[0\] must be a finite numeric value, got \[1\.0, 2\.0\]$"):
            as_embedding([[1.0, 2.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_embedding([])

    def test_unit_normalize(self):
        v = unit_normalize([3.0, 4.0])
        np.testing.assert_allclose(v, [0.6, 0.8], rtol=1e-12)
        with pytest.raises(ValueError, match="zero norm"):
            unit_normalize([0.0, 0.0])
