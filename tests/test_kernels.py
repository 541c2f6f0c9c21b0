import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permkit.kernels import (
    Gaussian,
    GramMatrix,
    MultinomialIndicator,
    ProductWeighted,
    WeightedMultinomial,
    eval as kernel_eval,
    gram,
    product_weights,
    split_weights,
)


class TestEval:
    def test_indicator(self):
        k = MultinomialIndicator(10)
        assert kernel_eval(k, 2, 2) == 1.0
        assert kernel_eval(k, 2, 4) == 0.0

    def test_indicator_out_of_range(self):
        k = MultinomialIndicator(10)
        with pytest.raises(ValueError):
            kernel_eval(k, 10, 0)
        with pytest.raises(ValueError):
            kernel_eval(k, -1, 0)

    @pytest.mark.parametrize(
        "kernel, x, y",
        [
            (MultinomialIndicator(3), 1.5, 1),
            (WeightedMultinomial([0.75, 0.25]), 0, 0.5),
            (WeightedMultinomial(split_weights([0, 1, 2], 3)), 2.9, 2),
            (ProductWeighted([0.75, 0.25], [0.25, 0.75]), (0, 1.5), (0, 1)),
            (MultinomialIndicator(3), math.nan, 1),
            (MultinomialIndicator(3), 1, math.inf),
            (WeightedMultinomial([0.75, 0.25]), -math.inf, 0),
            (ProductWeighted([0.75, 0.25], [0.25, 0.75]), (0, math.nan), (0, 1)),
        ],
    )
    def test_categorical_evaluate_refuses_non_integers(self, kernel, x, y):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any warning-raising cast
            with pytest.raises(ValueError, match="integers"):
                kernel_eval(kernel, x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1.5, 1e30])
    def test_categorical_gram_refuses_non_integers(self, bad):
        points = np.array([0.0, 1.0, bad])
        for kernel in (MultinomialIndicator(3), WeightedMultinomial([0.5, 0.25, 0.25])):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="integers|range"):
                    gram(kernel, points)

    def test_gaussian_peak(self):
        k = Gaussian([1.0])
        assert kernel_eval(k, 0.3, 0.3) == pytest.approx(1 / math.sqrt(2 * math.pi))
        assert k.max_value == pytest.approx(0.3989423, abs=1e-7)

    def test_gaussian_dimension_mismatch(self):
        k = Gaussian([1.0, 2.0])
        with pytest.raises(ValueError):
            kernel_eval(k, [0.1], [0.2])

    def test_weighted_multinomial(self):
        k = WeightedMultinomial([0.75, 0.25])
        assert kernel_eval(k, 1, 1) == pytest.approx(4.0)
        assert kernel_eval(k, 0, 1) == 0.0

    def test_product_weighted(self):
        k = ProductWeighted([0.75, 0.25], [0.25, 0.75])
        assert kernel_eval(k, (0, 1), (0, 1)) == pytest.approx(1 / (0.75 * 0.75))
        assert kernel_eval(k, (0, 1), (1, 1)) == 0.0

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.05, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_gaussian_symmetry_exact(self, x, y, lam):
        k = Gaussian([lam])
        assert kernel_eval(k, x, y) == kernel_eval(k, y, x)

    @given(st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=50, deadline=None)
    def test_indicator_symmetry_and_binary(self, x, y):
        k = MultinomialIndicator(6)
        v = kernel_eval(k, x, y)
        assert v == kernel_eval(k, y, x)
        assert v in (0.0, 1.0)

    def test_gaussian_bounded_with_equality_iff_equal(self):
        k = Gaussian([0.5, 2.0])
        peak = k.max_value
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.normal(size=2), rng.normal(size=2)
            v = kernel_eval(k, x, y)
            assert 0.0 < v < peak
        assert kernel_eval(k, [1.0, 2.0], [1.0, 2.0]) == pytest.approx(peak)

    def test_gaussian_log_space_moderate_distance_positive(self):
        k = Gaussian([1.0])
        assert kernel_eval(k, 0.0, 10.0) > 0.0  # exp(-50), far below naive underflow


class TestSplitWeights:
    def test_hand_example(self):
        w = split_weights([0, 0], d=2)
        assert w == pytest.approx([0.75, 0.25])

    def test_uniform_holdout(self):
        w = split_weights([0, 1, 2], d=3)
        assert w == pytest.approx([1 / 3, 1 / 3, 1 / 3])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_weights([], d=3)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_floor_and_normalization(self, holdout):
        d = 5
        w = split_weights(holdout, d)
        assert abs(w.sum() - 1.0) < 1e-12
        assert np.all(w >= 1 / (2 * d) - 1e-12)


class TestProductWeights:
    def test_hand_example(self):
        pw = product_weights([0, 0], [1, 1], d1=2, d2=2)
        expected = np.outer([0.75, 0.25], [0.25, 0.75])
        assert pw.dense_weights() == pytest.approx(expected)

    def test_uniform_holdouts(self):
        pw = product_weights([0, 1], [0, 1], d1=2, d2=2)
        assert pw.dense_weights() == pytest.approx(np.full((2, 2), 0.25))

    def test_total_mass_one(self):
        rng = np.random.default_rng(1)
        pw = product_weights(rng.integers(0, 3, 7), rng.integers(0, 4, 9), d1=3, d2=4)
        assert pw.dense_weights().sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            product_weights([], [0], d1=2, d2=2)


class TestGram:
    def test_single_point_zero_diag(self):
        g = gram(MultinomialIndicator(3), np.array([1]), zero_diagonal=True)
        assert g.values.shape == (1, 1)
        assert g.values[0, 0] == 0.0

    def test_indicator_pattern(self):
        g = gram(MultinomialIndicator(2), np.array([0, 0, 1]), zero_diagonal=True)
        assert g.values[0, 1] == 1.0
        assert g.values[0, 2] == 0.0
        assert g.values[1, 2] == 0.0

    def test_gaussian_transpose_exact(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(20, 3))
        g = gram(Gaussian([0.5, 1.0, 2.0]), pts, zero_diagonal=False)
        assert np.array_equal(g.values, g.values.T)

    def test_diagonal_flag_validated(self):
        with pytest.raises(ValueError):
            GramMatrix(values=np.eye(3), diagonal_zeroed=True)

    def test_gram_matches_eval(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(6, 2))
        k = Gaussian([0.8, 1.3])
        g = gram(k, pts, zero_diagonal=False)
        for i in range(6):
            for j in range(6):
                assert g.values[i, j] == pytest.approx(
                    kernel_eval(k, pts[i], pts[j]), rel=1e-12
                )


class TestSpecValidation:
    def test_weight_floor_enforced(self):
        with pytest.raises(ValueError):
            WeightedMultinomial([0.9, 0.1])  # 0.1 < 1/(2*2) = 0.25

    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError):
            WeightedMultinomial([0.5, 0.4])

    def test_gaussian_positive_bandwidths(self):
        with pytest.raises(ValueError):
            Gaussian([1.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_gaussian_finite_bandwidths(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Gaussian([1.0, bad])

    def test_dense_refusal_above_limit(self):
        # factors valid and d1*d2 above the materialization cap
        d = 1100
        w = np.full(d, 1.0 / d)
        pw = ProductWeighted(w, w)
        with pytest.raises(ValueError):
            pw.dense_weights()
