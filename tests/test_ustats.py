import ast
import itertools
import math
import sys
import threading
import time
import warnings
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from permkit import perm_core, ustats
from permkit.concentration import TailReport
from permkit.kernels import (
    Gaussian,
    GramMatrix,
    MultinomialIndicator,
    ProductWeighted,
    WeightedMultinomial,
    gram,
)
from permkit.ustats import (
    Categorical,
    Continuous,
    PairedSample,
    PoissonCounts,
    TwoSamplePooled,
    independence_u,
    independence_u_many,
    independence_u_naive,
    linear_stat,
    linear_stat_many,
    multinomial_independence_u,
    multinomial_independence_u_many,
    multinomial_two_sample_u,
    multinomial_two_sample_u_counts,
    multinomial_two_sample_u_many,
    multinomial_two_sample_u_nested,
    poisson_chisq,
    poisson_chisq_many,
    two_sample_u,
    two_sample_u_many,
    two_sample_u_naive,
)


def _indicator_gram(values, d):
    return gram(MultinomialIndicator(d), np.asarray(values), zero_diagonal=True)


class TestTwoSampleU:
    def test_disjoint_singletons(self):
        g = _indicator_gram([0, 0, 1, 1], d=2)
        assert two_sample_u(g, 2, 2) == pytest.approx(2.0)
        assert two_sample_u_naive([0, 0], [1, 1], MultinomialIndicator(2)) == pytest.approx(2.0)

    def test_identical_samples_zero(self):
        g = _indicator_gram([0, 0, 0, 0], d=2)
        assert two_sample_u(g, 2, 2) == pytest.approx(0.0)

    def test_degenerate_sizes_rejected(self):
        g = _indicator_gram([0, 0, 1], d=2)
        with pytest.raises(ValueError):
            two_sample_u(g, 1, 2)

    def test_requires_zero_diagonal(self):
        g = gram(MultinomialIndicator(2), np.array([0, 0, 1, 1]), zero_diagonal=False)
        with pytest.raises(ValueError):
            two_sample_u(g, 2, 2)

    def test_matches_naive_on_random_categorical(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            d = int(rng.integers(2, 7))
            y = rng.integers(0, d, n1)
            z = rng.integers(0, d, n2)
            perm = rng.permutation(n1 + n2)
            k = MultinomialIndicator(d)
            g = gram(k, np.concatenate([y, z]), zero_diagonal=True)
            fast = two_sample_u(g, n1, n2, perm)
            slow = two_sample_u_naive(y, z, k, perm)
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n1, n2, band", [(6, 6, 4), (5, 8, 4), (7, 7, 3), (9, 11, 2)])
    def test_tiles_match_naive_on_random_gaussian(self, n1, n2, band, monkeypatch):
        monkeypatch.setattr(ustats, "_BAND_POINTS", band)  # 3 to 10 bands
        assert -(-(n1 + n2) // band) >= 3
        rng = np.random.default_rng(n1 + n2)
        y, z = rng.normal(size=(n1, 2)), rng.normal(size=(n2, 2))
        k = Gaussian(np.array([0.6, 1.1]))
        g = gram(k, np.concatenate([y, z]), zero_diagonal=True)
        perms = np.array([np.arange(n1 + n2)] + [rng.permutation(n1 + n2) for _ in range(4)])
        fast = two_sample_u_many(g, n1, n2, perms)
        slow = [two_sample_u_naive(y, z, k, perm) for perm in perms]
        scale = g.values.max() / n1  # the statistic's rounding noise sits near this scale
        np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-13 * scale)

    def test_naive_refuses_large_input(self):
        with pytest.raises(ValueError):
            two_sample_u_naive(
                np.zeros(16, dtype=int), np.zeros(16, dtype=int), MultinomialIndicator(2)
            )

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(9, 2))
        g = gram(Gaussian([0.6, 1.1]), pts, zero_diagonal=True)
        perms = np.array([rng.permutation(9) for _ in range(40)])
        batch = two_sample_u_many(g, 4, 5, perms)
        single = np.array([two_sample_u(g, 4, 5, p) for p in perms])
        np.testing.assert_allclose(batch, single, rtol=1e-12)


class TestMultinomialTwoSampleU:
    def test_hand_example(self):
        assert multinomial_two_sample_u([2, 0], [0, 2]) == pytest.approx(2.0)

    def test_point_mass_equal(self):
        assert multinomial_two_sample_u([5, 0, 0], [5, 0, 0]) == pytest.approx(0.0)

    def test_matches_naive(self):
        rng = np.random.default_rng(12)
        perm_rng = np.random.default_rng(112)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            n1, n2 = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            y = rng.integers(0, d, n1)
            z = rng.integers(0, d, n2)
            counts_y = np.bincount(y, minlength=d)
            counts_z = np.bincount(z, minlength=d)
            fast = multinomial_two_sample_u(counts_y, counts_z)
            slow = two_sample_u_naive(y, z, MultinomialIndicator(d))
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)
            # the batch form on relabelings of the pooled codes, against the
            # count form on each relabeling's group counts
            pooled = np.concatenate([y, z])
            rows = np.array([perm_rng.permutation(n1 + n2) for _ in range(6)])
            rows[0] = np.arange(n1 + n2)
            batch = multinomial_two_sample_u_many(pooled, n1, n2, rows)
            for row, value in zip(rows, batch):
                want = multinomial_two_sample_u(
                    np.bincount(pooled[row[:n1]], minlength=d),
                    np.bincount(pooled[row[n1:]], minlength=d),
                )
                assert value == pytest.approx(want, rel=1e-12, abs=1e-14)

    def test_weighted_matches_weighted_kernel_naive(self):
        rng = np.random.default_rng(13)
        d = 4
        w = np.array([0.3, 0.3, 0.2, 0.2])
        for _ in range(20):
            y = rng.integers(0, d, 4)
            z = rng.integers(0, d, 5)
            fast = multinomial_two_sample_u(
                np.bincount(y, minlength=d), np.bincount(z, minlength=d), weights=w
            )
            slow = two_sample_u_naive(y, z, WeightedMultinomial(w))
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)
            batch = multinomial_two_sample_u_many(
                np.concatenate([y, z]), 4, 5, np.arange(9)[None], inv_weights=1.0 / w
            )
            assert batch[0] == pytest.approx(slow, rel=1e-12, abs=1e-14)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            multinomial_two_sample_u([1, 0], [0, 2])

    @pytest.mark.parametrize(
        "bad, match",
        [
            ([3, -1], "nonnegative"),  # returned 3.333
            ([3.0, -1.0], "nonnegative"),
            ([2.5, 0.5], "integers"),  # returned -0.083
            ([math.nan, 4.0], "integers"),
            ([math.inf, 4.0], "integers"),
            ([1e30, 4.0], "below 2\\^63"),
            ([2**64, 3], "below 2\\^63"),  # an object array
            (["3", "1"], "integers"),
        ],
    )
    def test_bad_counts_refused_without_a_cast_warning(self, bad, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"counts_y: .*{match}"):
                multinomial_two_sample_u(bad, [2, 2])
            with pytest.raises(ValueError, match=f"counts_z: .*{match}"):
                multinomial_two_sample_u([2, 2], bad)

    def test_integral_float_counts_accepted(self):
        want = multinomial_two_sample_u([3, 1, 0], [2, 2, 1])
        got = multinomial_two_sample_u([3.0, 1.0, 0.0], np.array([2.0, 2.0, 1.0]))
        assert got == want

    @pytest.mark.parametrize("weighted", [False, True])
    def test_count_rows_match_the_index_rows(self, weighted):
        # the count-row form on each relabeling's first-group counts gives the
        # index-row form's values bit for bit
        rng = np.random.default_rng(31)
        codes = rng.permutation(np.arange(23) % 6)
        inv_w = 1.0 / rng.uniform(0.1, 1.0, 6) if weighted else None
        rows = np.array([np.arange(23)] + [rng.permutation(23) for _ in range(30)])
        c1 = np.array([np.bincount(codes[r[:9]], minlength=6) for r in rows])
        got = multinomial_two_sample_u_counts(np.bincount(codes), 9, c1, inv_w)
        want = multinomial_two_sample_u_many(codes, 9, 14, rows, inv_w)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "rows, match",
        [
            ([[1, 1, 2], [-1, 3, 2]], "nonnegative"),
            ([[1, 1, 2], [1, 1, 1]], "sum to n1"),
            ([[1, 1, 2], [4, 0, 0]], "within totals"),  # totals [3, 2, 4]
            ([[1, 1, 2], [1.5, 1.5, 1.0]], "integers"),
            ([[1, 3]], "\\(m, 3\\)"),
            ([1, 1, 2], "\\(m, 3\\)"),
        ],
    )
    def test_bad_count_rows_refused(self, rows, match):
        with pytest.raises(ValueError, match=match):
            multinomial_two_sample_u_counts([3, 2, 4], 4, rows)


def _exact_terms(c1, totals, n1) -> list[Fraction]:
    """Each category's term of the multinomial two-sample U-statistic of one count row."""
    n2 = sum(totals) - n1
    return [
        Fraction(x * (x - 1), n1 * (n1 - 1)) + Fraction((t - x) * (t - x - 1), n2 * (n2 - 1))
        - Fraction(2 * x * (t - x), n1 * n2)
        for x, t in zip(c1, totals)
    ]


def _exact_two_sample_u(c1, totals, n1, inv_weights=None) -> Fraction:
    """The multinomial two-sample U-statistic of one count row, in fractions."""
    weights = [1] * len(c1) if inv_weights is None else map(Fraction, inv_weights)
    return sum((w * term for w, term in zip(weights, _exact_terms(c1, totals, n1))), Fraction(0))


class TestCountIntegerForm:
    """One integer numerator over one integer denominator for every count form."""

    @pytest.mark.parametrize(
        "totals, n1", [([1, 2, 3, 4, 5], 6), ([2, 2, 3, 3, 4, 6], 8), ([1, 1, 2, 5, 7, 9], 9)]
    )
    def test_equal_sums_give_bit_equal_statistics(self, totals, n1):
        # every first-group count row of the totals: rows with equal S2 = sum c1^2 and
        # P = sum c1 t are tied relabelings, and must not split by rounding
        totals = np.array(totals)
        rows = np.array([r for r in itertools.product(*(range(t + 1) for t in totals))
                         if sum(r) == n1])
        values = multinomial_two_sample_u_counts(totals, n1, rows)
        by_sums = defaultdict(set)
        for row, value in zip(rows, values):
            by_sums[int(row @ row), int(row @ totals)].add(value)
        assert sum(len(v) == 1 for v in by_sums.values()) == len(by_sums) < len(rows)

    def test_swapping_two_points_of_one_category_keeps_the_statistic(self):
        codes = np.array([0, 1, 2, 2, 1, 0, 2, 1])
        row = np.arange(8)
        swapped = row.copy()
        swapped[[2, 6]] = swapped[[6, 2]]  # a category-2 point of group one for one of group two
        swapped[[1, 4]] = swapped[[4, 1]]  # and a category-1 point likewise
        values = multinomial_two_sample_u_many(codes, 4, 4, np.stack([row, swapped]))
        assert values[0].tobytes() == values[1].tobytes()

    def test_unweighted_is_the_correctly_rounded_value(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            totals = rng.integers(0, 40, int(rng.integers(2, 30)))
            totals[0] += 2
            n1 = int(rng.integers(2, totals.sum() - 1))
            rows = rng.multivariate_hypergeometric(totals, n1, size=20)
            got = multinomial_two_sample_u_counts(totals, n1, rows)
            want = [float(_exact_two_sample_u(r.tolist(), totals.tolist(), n1)) for r in rows]
            assert got.tolist() == want

    def test_a_true_zero_is_zero(self):
        # rows whose U is 0 in fractions come out as 0.0, not as rounding noise
        rows = [[1, 1, 1, 2], [2, 0, 1, 2], [3, 1, 1, 0], [2, 2, 1, 0]]
        assert all(_exact_two_sample_u(r, [4, 2, 2, 2], 5) == 0 for r in rows)
        assert multinomial_two_sample_u_counts([4, 2, 2, 2], 5, rows).tolist() == [0.0] * 4

    def test_weighted_matches_fractions(self):
        # each category's term is an exact integer; only the weighted sum rounds, so
        # the error is bounded by the summed magnitude of the weighted terms
        rng = np.random.default_rng(42)
        for _ in range(40):
            totals = rng.integers(0, 40, int(rng.integers(2, 30)))
            totals[0] += 2
            n1 = int(rng.integers(2, totals.sum() - 1))
            inv_w = 1.0 / rng.uniform(0.05, 1.0, totals.size)
            rows = rng.multivariate_hypergeometric(totals, n1, size=20)
            got = multinomial_two_sample_u_counts(totals, n1, rows, inv_w)
            for row, value in zip(rows.tolist(), got):
                want = _exact_two_sample_u(row, totals.tolist(), n1, inv_w.tolist())
                terms = _exact_terms(row, totals.tolist(), n1)
                scale = sum(abs(t) * Fraction(w) for t, w in zip(terms, inv_w.tolist()))
                assert abs(Fraction(float(value)) - want) <= Fraction(1e-14) * scale

    @pytest.mark.parametrize("weighted", [False, True])
    def test_past_the_int64_numerator(self, weighted):
        totals = np.array([30_000, 40_000, 20_000, 10_000])
        inv_w = np.array([1.0, 2.5, 0.5, 3.0]) if weighted else None
        rows = np.random.default_rng(43).multivariate_hypergeometric(totals, 50_000, size=20)
        # n1 = n2 = 50,000: R P alone, R = 2(B + C), passes 2^63, so an int64 numerator wraps
        assert 2 * (50_000 * 49_999 + 49_999**2) * int(rows[0] @ totals) >= 2**63
        got = multinomial_two_sample_u_counts(totals, 50_000, rows, inv_w)
        for row, value in zip(rows.tolist(), got):
            want = _exact_two_sample_u(row, totals.tolist(), 50_000, inv_w)
            assert abs(Fraction(float(value)) - want) <= Fraction(1e-15) * abs(want)


class TestNestedCounts:
    @staticmethod
    def _partitions(rng, u, ks):
        """One increasing ``ends`` array of k runs up to u for each k in ``ks``."""
        return [np.append(np.sort(rng.choice(np.arange(1, u), k - 1, replace=False)), u) for k in ks]

    @staticmethod
    def _assert_columns_are_the_partitions_tests(codes, n1, n2, rows, ends):
        # column j equals the index-row form on the codes that name partition j's runs
        got = multinomial_two_sample_u_nested(codes, n1, n2, rows, ends)
        assert got.shape == (rows.shape[0], len(ends))
        for j, e in enumerate(ends):
            coarse = np.searchsorted(e, codes, side="right")
            want = multinomial_two_sample_u_many(coarse, n1, n2, rows)
            assert got[:, j].tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kind, u, n1, n2, ks, m",
        [
            ("cyclic", 7, 9, 6, (1, 3, 3, 7), 31),
            ("cyclic", 12, 5, 8, (1, 3, 6, 12), 31),
            ("cyclic", 2, 3, 3, (1, 1, 2, 2), 31),
            ("cyclic", 11, 6, 5, (1, 3, 5, 11), 31),  # u = n1 + n2: every code holds one point
            ("mixed", 15, 8, 11, (1, 4, 9, 15), 31),  # single points, empty codes and fuller runs
            ("mixed", 15, 8, 11, (15,), 31),  # K = 1, the finest partition alone
            ("mixed", 15, 11, 4, (1,), 31),  # K = 1, one run holding every point
            ("cyclic", 11, 4, 7, (2, 11), 1),  # the identity row alone
            ("mixed", 15, 5, 9, (1, 6, 15), 2),
        ],
    )
    def test_columns_are_the_partitions_tests(self, kind, u, n1, n2, ks, m, monkeypatch):
        rng = np.random.default_rng(44)
        n = n1 + n2
        if kind == "mixed":
            # codes 0..4 hold one point each, the others share the remaining points
            codes = np.concatenate([np.arange(5), rng.integers(5, u, n - 5)])
            codes[-1] = u - 1
        else:
            codes = np.arange(n) % u
        codes = rng.permutation(codes)
        ends = self._partitions(rng, u, ks)
        rows = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(m - 1)])
        self._assert_columns_are_the_partitions_tests(codes, n1, n2, rows, ends)
        whole = multinomial_two_sample_u_nested(codes, n1, n2, rows, ends)
        monkeypatch.setattr(ustats, "_PIECE_ENTRIES", 1)  # every row counted on its own
        assert multinomial_two_sample_u_nested(codes, n1, n2, rows, ends).tobytes() == whole.tobytes()

    def test_starts_no_thread(self, monkeypatch):
        # 150 + 150 points in 100 codes of 3 and 153 kept runs: 1000 rows hold
        # 407 entries each, past a quarter of the budget, where the helper used
        # to take pieces of every slice; the pieces are counted on the calling thread
        rng = np.random.default_rng(46)
        codes = rng.permutation(np.arange(300) % 100)
        ends = [np.arange(1, 101), np.arange(2, 101, 2), np.array([50, 100]), np.array([100])]
        rows = np.array([np.arange(300)] + [rng.permutation(300) for _ in range(999)])
        assert rows.shape[0] * (101 + 2 * 153) > ustats.CHUNK_ENTRIES // 4
        monkeypatch.setattr(threading, "Thread", _CountingThread)
        monkeypatch.setattr(_CountingThread, "started", 0)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        # the index-row form of each partition, at most 100 codes, takes no helper either
        self._assert_columns_are_the_partitions_tests(codes, 150, 150, rows, ends)
        assert _CountingThread.started == 0

    def test_past_the_int64_numerator(self):
        # 30,000 + 31,000 points: S2 and P reach the statistic as Python integers
        rng = np.random.default_rng(45)
        n1, n2 = 30_000, 31_000
        assert not ustats._two_sample_terms(n1, n2)[-1]
        codes = rng.permutation(np.concatenate([np.arange(8), rng.integers(8, 40, n1 + n2 - 8)]))
        ends = [np.array([40]), np.array([4, 8, 20, 40]), np.array([8, 9, 10, 40]), np.arange(1, 41)]
        rows = np.array([np.arange(n1 + n2), rng.permutation(n1 + n2)])
        self._assert_columns_are_the_partitions_tests(codes, n1, n2, rows, ends)

    @pytest.mark.parametrize(
        "ends",
        [[[2, 4]], [[0, 3, 5]], [[3, 2, 5]], [[2, 2, 5]], [[1, 5], []], [[[5]]],
         [[2, 5], [2, 7, 5]], [[2, 5], 5], []],
        ids=["short", "empty-run", "decreasing", "repeated", "no-runs", "2-d",
             "past-u", "scalar", "no-partitions"],
    )
    def test_bad_ends_refused(self, ends):
        codes = np.array([0, 1, 2, 3, 4, 0, 1, 2])
        with pytest.raises(ValueError, match="increase strictly up to u = 5"):
            multinomial_two_sample_u_nested(codes, 4, 4, np.arange(8)[None], ends)


class TestIndependenceU:
    def test_zero_z_gram(self):
        gy = _indicator_gram([0, 1, 0, 1], d=2)
        gz = gram(MultinomialIndicator(2), np.array([0, 1, 0, 1]), zero_diagonal=True)
        zeroed = type(gz)(values=np.zeros((4, 4)), diagonal_zeroed=True)
        assert independence_u(gy, zeroed) == pytest.approx(0.0)

    def test_hand_case_matches_naive(self):
        y = np.array([0, 0, 1, 1])
        z = np.array([0, 0, 1, 1])
        k = MultinomialIndicator(2)
        fast = independence_u(_indicator_gram(y, 2), _indicator_gram(z, 2))
        slow = independence_u_naive(y, z, k, k)
        assert fast == pytest.approx(slow, rel=1e-14)

    def test_random_instances_match_naive(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            n = int(rng.integers(4, 9))
            d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            y = rng.integers(0, d1, n)
            z = rng.integers(0, d2, n)
            perm = rng.permutation(n)
            ky, kz = MultinomialIndicator(d1), MultinomialIndicator(d2)
            fast = independence_u(_indicator_gram(y, d1), _indicator_gram(z, d2), perm)
            slow = independence_u_naive(y, z, ky, kz, perm)
            counts = multinomial_independence_u(y, z, d1, d2, perm)
            batch = multinomial_independence_u_many(y, z, np.stack([np.arange(n), perm]))
            assert fast == pytest.approx(slow, rel=1e-12, abs=1e-14)
            assert counts == pytest.approx(slow, rel=1e-12, abs=1e-14)
            assert batch[1] == pytest.approx(slow, rel=1e-12, abs=1e-14)
            assert batch[0] == pytest.approx(
                independence_u_naive(y, z, ky, kz), rel=1e-12, abs=1e-14
            )

    @pytest.mark.parametrize("d2", [2, 1])
    def test_counts_out_of_range_refused(self, d2):
        # at d2 = 2 the z code 2 used to land in the next y row's cell: 2.1333
        y = [0, 1, 0, 1, 0, 1]
        z = [2, 0, 1, 0, 2, 1]
        with pytest.raises(ValueError, match="z: category out of range"):
            multinomial_independence_u(y, z, 2, d2)
        with pytest.raises(ValueError, match="y: category out of range"):
            multinomial_independence_u(z, y, d2, 2)
        with pytest.raises(ValueError, match="y: category out of range"):
            multinomial_independence_u([-1, 0, 1, 0], [0, 1, 0, 1], 2, 2)
        want = independence_u(_indicator_gram(y, 2), _indicator_gram(z, 3))
        assert want == pytest.approx(0.35555555555555557, rel=1e-12)
        assert multinomial_independence_u(y, z, 2, 3) == pytest.approx(want, rel=1e-12)

    def test_gaussian_matches_naive(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            y = rng.normal(size=n)
            z = rng.normal(size=n)
            ky, kz = Gaussian([0.7]), Gaussian([1.2])
            gy = gram(ky, y, zero_diagonal=True)
            gz = gram(kz, z, zero_diagonal=True)
            fast = independence_u(gy, gz)
            slow = independence_u_naive(y, z, ky, kz)
            assert fast == pytest.approx(slow, rel=1e-11)

    def test_small_n_rejected(self):
        gy = _indicator_gram([0, 1, 0], d=2)
        gz = _indicator_gram([0, 1, 1], d=2)
        with pytest.raises(ValueError):
            independence_u(gy, gz)

    def test_naive_refuses_large(self):
        y = np.zeros(11, dtype=int)
        with pytest.raises(ValueError):
            independence_u_naive(y, y, MultinomialIndicator(2), MultinomialIndicator(2))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(16)
        y = rng.normal(size=8)
        z = rng.normal(size=8)
        gy = gram(Gaussian([0.9]), y, zero_diagonal=True)
        gz = gram(Gaussian([0.5]), z, zero_diagonal=True)
        perms = np.array([rng.permutation(8) for _ in range(30)])
        batch = independence_u_many(gy, gz, perms)
        single = np.array([independence_u(gy, gz, p) for p in perms])
        np.testing.assert_allclose(batch, single, rtol=1e-12)


def _hsic_gather_reference(gram_y, gram_z, rows):
    """`independence_u_many` with the relabeled z Gram built by a 2-D fancy index."""
    ky, kz = gram_y.values, gram_z.values
    n = ky.shape[0]
    row_y, row_z = ky.sum(axis=1), kz.sum(axis=1)
    kz_p = kz[rows[:, :, None], rows[:, None, :]]
    s1 = (ky * kz_p).sum(axis=(1, 2))
    r = (row_y * row_z[rows]).sum(axis=1)
    return ustats._indep_from_sums(n, s1, r, float(row_y.sum()), float(row_z.sum()))


class TestHsicGather:
    @staticmethod
    def _asymmetric(rng, n):
        values = rng.normal(size=(n, n))
        np.fill_diagonal(values, 0.0)
        return GramMatrix(values, True)

    @pytest.mark.parametrize("n", [4, 7, 30, 150])
    def test_bit_identical_to_the_fancy_index(self, n):
        rng = np.random.default_rng(n)
        y, z = rng.normal(size=n), rng.normal(size=n)
        pairs = [
            (gram(Gaussian([0.8]), y, zero_diagonal=True), gram(Gaussian([1.3]), z, zero_diagonal=True)),
            # an asymmetric z Gram: the gather must not transpose a block
            (gram(Gaussian([0.8]), y, zero_diagonal=True), self._asymmetric(rng, n)),
            (self._asymmetric(rng, n), self._asymmetric(rng, n)),
        ]
        # the Monte Carlo plan's identity and replicate rows, as perm_core draws them
        row_sets = [rows for _, rows in perm_core._monte_carlo_chunks(n, 60, 11, 64)]
        if n == 4:  # the exact plan's rows: all 4! relabelings
            row_sets += [rows for _, rows in perm_core._enumeration_chunks(4, 24)]
        for gy, gz in pairs:
            for rows in row_sets:
                got = independence_u_many(gy, gz, rows)
                want = _hsic_gather_reference(gy, gz, rows)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_out_of_range_rows_refused(self, bad):
        # an all-ones Gram (zero diagonal) gave 0.0 for the row below with -1
        ones = GramMatrix(np.ones((6, 6)) - np.eye(6), True)
        rows = np.array([[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, bad]])
        with pytest.raises(ValueError, match="index range\\(6\\)"):
            independence_u_many(ones, ones, rows)
        with pytest.raises(ValueError, match="index range\\(6\\)"):
            independence_u_many(ones, ones, rows[1:])


def _count_independence_reference(y, z, rows):
    """`multinomial_independence_u_many` written for one code pair: its own table and mat-vec."""
    n = y.size
    cy, cz = np.bincount(y).astype(float), np.bincount(z).astype(float)
    joint = perm_core.bincount_rows(y[None, :] * cz.size + z[rows], cy.size * cz.size)
    s1 = (joint * joint).sum(axis=1) - n
    r = (cz[z] - 1.0)[rows] @ (cy[y] - 1.0)
    ty, tz = float((cy * cy).sum()) - n, float((cz * cz).sum()) - n
    return ustats._indep_from_sums(n, s1, r, ty, tz)


class TestStackedIndependence:
    """(K, n) codes give column k the bytes the (n,) form gives pair k alone."""

    @staticmethod
    def _row_sets(n):
        # the Monte Carlo identity, a full chunk and a short one (copied: they share a buffer)
        sets = [rows.copy() for _, rows in perm_core._monte_carlo_chunks(n, 70, 5, 64)]
        if n <= 5:  # and an exact plan's rows in chunks, all n! of them
            sets += [rows for _, rows in perm_core._enumeration_chunks(n, 50)]
        return sets + [np.random.default_rng(n).permutation(n)[None]]  # a one-row batch

    @pytest.mark.parametrize(
        "n, y_widths, z_widths",
        [
            (30, (2, 5, 13), (3, 9, 30)),  # grids of different widths
            (24, (1, 4), (6, 1)),  # a single category on one side of each grid
            (4, (2, 3, 4), (4, 1, 2)),
            (5, (2,), (3,)),  # K = 1
            (40, (2, 4, 8, 16, 32, 40), (2, 4, 8, 16, 32, 40)),
        ],
    )
    def test_columns_are_the_pairs_alone(self, n, y_widths, z_widths):
        rng = np.random.default_rng(n)
        # every category present, in a shuffled order
        ys = np.array([rng.permutation(np.arange(n) % w) for w in y_widths])
        zs = np.array([rng.permutation(np.arange(n) % w) for w in z_widths])
        for rows in self._row_sets(n):
            got = multinomial_independence_u_many(ys, zs, rows)
            assert got.shape == (rows.shape[0], len(y_widths))
            for k, (y, z) in enumerate(zip(ys, zs)):
                alone = multinomial_independence_u_many(y, z, rows)
                assert alone.shape == (rows.shape[0],)
                assert got[:, k].tobytes() == alone.tobytes()
                assert alone.tobytes() == _count_independence_reference(y, z, rows).tobytes()

    def test_fine_grids_over_several_slices(self):
        # grids with more joint cells than points, as the adaptive test's finest
        # grids have, and 1000 rows in four slices of the budget
        n = 60
        rng = np.random.default_rng(7)
        ys = np.array([rng.permutation(np.arange(n) % w) for w in (2, 15, 60)])
        zs = np.array([rng.permutation(np.arange(n) % w) for w in (3, 20, 60)])
        rows = np.array([np.arange(n)] + [rng.permutation(n) for _ in range(999)])
        per_row = 2 * 3 + 15 * 20 + 60 * 60 + 3 * n  # the joint cells and the gathered keys
        assert 3 * (ustats.CHUNK_ENTRIES // per_row) < rows.shape[0]
        got = multinomial_independence_u_many(ys, zs, rows)
        for k, (y, z) in enumerate(zip(ys, zs)):
            assert got[:, k].tobytes() == _count_independence_reference(y, z, rows).tobytes()

    def test_narrow_codes_give_the_same_values(self):
        # uint8 codes used to wrap in the joint cell numbers (30 x 200 cells)
        rng = np.random.default_rng(6)
        y, z = rng.integers(0, 30, 60), rng.integers(0, 200, 60)
        rows = np.array([rng.permutation(60) for _ in range(5)])
        want = multinomial_independence_u_many(y, z, rows)
        got = multinomial_independence_u_many(y.astype(np.uint8), z.astype(np.uint8), rows)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "y, z, message",
        [
            (np.zeros((2, 6), int), np.zeros((3, 6), int), "paired"),
            (np.zeros(6, int), np.zeros(5, int), "paired"),
            (np.zeros(6, int), np.zeros((1, 6), int), "paired"),
            (np.zeros((1, 1, 6), int), np.zeros((1, 1, 6), int), "paired"),
            (np.zeros((0, 6), int), np.zeros((0, 6), int), "paired"),
            (np.zeros(3, int), np.zeros(3, int), "n >= 4"),
            (np.zeros((2, 3), int), np.zeros((2, 3), int), "n >= 4"),
            (np.array([[0, 1, 0, 1], [0, 1, 0, 1]]), np.array([[0, 1, 1, 0], [1, 0, -1, 0]]),
             "negative"),
        ],
        ids=["grids", "lengths", "dimensions", "3-d", "no-grids", "n-3", "stacked-n-3", "negative"],
    )
    def test_bad_codes_refused(self, y, z, message):
        rows = np.arange(y.shape[-1])[None]
        with pytest.raises(ValueError, match=message):
            multinomial_independence_u_many(y, z, rows)


class TestIndexRowsRefused:
    """Every index-row batch form refuses an entry outside ``range(n)``.

    A -1 used to wrap: for the second row below, ``multinomial_two_sample_u_many``
    returned -0.667, ``poisson_chisq_many`` 3.571 and ``linear_stat_many`` -6.25.
    """

    FORMS = {
        "two-sample": lambda rows: two_sample_u_many(
            GramMatrix(np.ones((6, 6)) - np.eye(6), True), 3, 3, rows),
        "multinomial-two-sample": lambda rows: multinomial_two_sample_u_many(
            np.array([0, 1, 0, 1, 2, 2]), 3, 3, rows),
        "poisson": lambda rows: poisson_chisq_many(
            np.array([[1, 0], [2, 1], [0, 3], [1, 1], [4, 0], [0, 2]]), 3, rows),
        "multinomial-independence": lambda rows: multinomial_independence_u_many(
            np.array([0, 1, 0, 1, 2, 2]), np.array([1, 0, 1, 1, 0, 0]), rows),
        "linear": lambda rows: linear_stat_many(np.arange(6.0), np.arange(6.0) ** 2, rows),
    }

    @pytest.mark.parametrize("bad", [-1, 6])
    @pytest.mark.parametrize("form", list(FORMS))
    def test_out_of_range_rows_refused(self, form, bad):
        rows = np.array([[0, 1, 2, 3, 4, 5], [bad, 1, 2, 3, 4, 0]])
        self.FORMS[form](rows[:1])  # the identity alone is accepted
        with pytest.raises(ValueError, match="index range\\(6\\)"):
            self.FORMS[form](rows)


class TestDegeneracyUnderPermutation:
    def test_two_sample_mean_over_relabelings_zero(self):
        rng = np.random.default_rng(17)
        for n1, n2 in [(2, 3), (3, 3), (2, 4)]:
            n = n1 + n2
            pts = rng.normal(size=n)
            g = gram(Gaussian([0.8]), pts, zero_diagonal=True)
            vals = [
                two_sample_u(g, n1, n2, np.array(p))
                for p in itertools.permutations(range(n))
            ]
            assert abs(math.fsum(vals) / len(vals)) < 1e-12

    def test_independence_mean_over_relabelings_zero(self):
        rng = np.random.default_rng(18)
        for n in (4, 5, 6):
            y = rng.integers(0, 3, n)
            z = rng.integers(0, 3, n)
            gy = _indicator_gram(y, 3)
            gz = _indicator_gram(z, 3)
            vals = [
                independence_u(gy, gz, np.array(p))
                for p in itertools.permutations(range(n))
            ]
            assert abs(math.fsum(vals) / len(vals)) < 1e-12


class TestPoissonChisq:
    def test_hand_examples(self):
        # group totals alone are one-row groups
        assert poisson_chisq(PoissonCounts([[3]], [[3]])) == pytest.approx(-1.0)
        assert poisson_chisq(PoissonCounts([[0]], [[0]])) == pytest.approx(0.0)
        assert poisson_chisq(PoissonCounts([[2]], [[0]])) == pytest.approx(1.0)

    def test_totals_are_the_column_sums(self):
        ym = np.array([[1, 0, 2], [0, 3, 1]])
        zm = np.array([[2, 2, 0], [1, 0, 0]])
        counts = PoissonCounts(ym, zm)
        assert counts.v.tolist() == [1, 3, 3] and counts.w.tolist() == [3, 2, 0]
        assert counts.d == 3 and counts.group_size == 2

    def test_within_group_relabeling_invariant(self):
        rng = np.random.default_rng(19)
        ym = rng.poisson(1.0, (4, 3))
        zm = rng.poisson(1.0, (4, 3))
        counts = PoissonCounts(ym, zm)
        base = poisson_chisq(counts, relabeling=np.arange(8))
        for _ in range(10):
            perm = np.concatenate([rng.permutation(4), 4 + rng.permutation(4)])
            assert poisson_chisq(counts, relabeling=perm) == pytest.approx(base)

    def test_batch_matches_literal_group_sums(self):
        rng = np.random.default_rng(23)
        for n, d in [(1, 1), (2, 3), (4, 5), (6, 2)]:
            ym = rng.poisson(0.8, (n, d))
            zm = rng.poisson(1.3, (n, d))
            pooled = np.vstack([ym, zm])
            rows = np.array([np.arange(2 * n)] + [rng.permutation(2 * n) for _ in range(8)])
            batch = poisson_chisq_many(pooled, n, rows)
            assert poisson_chisq_many(pooled.tolist(), n, rows).tobytes() == batch.tobytes()
            for row, value in zip(rows, batch):
                v = pooled[row[:n]].sum(axis=0)
                w = pooled[row[n:]].sum(axis=0)
                want = math.fsum(
                    ((int(v[k]) - int(w[k])) ** 2 - (v[k] + w[k])) / (v[k] + w[k])
                    for k in range(d)
                    if v[k] + w[k] > 0
                )
                assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
                assert poisson_chisq(PoissonCounts(ym, zm), row) == value

    def test_unequal_group_sizes_rejected(self):
        with pytest.raises(ValueError, match="equal group sizes"):
            PoissonCounts(np.zeros((3, 2), int), np.zeros((4, 2), int))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (-1, "nonnegative"),  # an integer array
            (-1.0, "nonnegative"),
            (1.7, "integers"),
            (math.nan, "integers"),
            (math.inf, "integers"),
            (-math.inf, "integers"),
            (1e30, "below 2\\^63"),
            (np.uint64(2**63), "below 2\\^63"),  # would wrap to a negative int64
            (2**64, "below 2\\^63"),  # an object array
        ],
    )
    def test_bad_counts_refused_without_a_cast_warning(self, bad, match):
        ym = np.array([[bad, 2], [3, 0]], dtype=np.asarray(bad).dtype)
        zm = np.array([[1, 1], [0, 2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                PoissonCounts(ym, zm)
            with pytest.raises(ValueError, match=match):
                PoissonCounts(zm, ym)
            # the batch form refuses them too: it used to compute with them, a NaN
            # category dropping out of the sum
            with pytest.raises(ValueError, match=match):
                poisson_chisq_many(np.vstack([zm, ym]), 2, np.arange(4)[None])

    @pytest.mark.parametrize(
        "ym, zm",
        [
            ([1, 2], [0, 1]),  # 1-D totals
            ([[1, 2]], [0, 1]),
            ([[[1]]], [[[1]]]),
            ([[1, 2]], [[1, 2, 3]]),  # mismatched d
            ([[1, 2], [0, 0]], [[1, 2]]),  # mismatched group sizes
        ],
    )
    def test_bad_shapes_refused(self, ym, zm):
        with pytest.raises(ValueError, match="n x d|equal group sizes"):
            PoissonCounts(ym, zm)


class TestLinearStat:
    def test_hand_example(self):
        assert linear_stat([1, 2], [1, 2]) == pytest.approx(0.25)

    def test_constant_z(self):
        assert linear_stat([1.0, 5.0, -2.0], [3.0, 3.0, 3.0]) == pytest.approx(0.0)

    def test_mean_over_relabelings_exactly_zero(self):
        rng = np.random.default_rng(20)
        for n in (2, 4, 6):
            y = rng.normal(size=n)
            z = rng.normal(size=n)
            vals = [
                linear_stat(y, z, np.array(p)) for p in itertools.permutations(range(n))
            ]
            assert abs(math.fsum(vals) / len(vals)) < 1e-14

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            linear_stat([1.0], [1.0])
        with pytest.raises(ValueError):
            linear_stat_many([1.0], [1.0], [[0]])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            linear_stat([1, 2, 3], [1, 2, 3, 10, 20])
        with pytest.raises(ValueError):
            linear_stat_many([1, 2, 3], [1, 2, 3, 10, 20], [[0, 1, 2]])

    def test_batch_matches_single(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=12)
        z = rng.normal(size=12)
        perms = np.array([rng.permutation(12) for _ in range(25)])
        batch = linear_stat_many(y, z, perms)
        single = np.array([linear_stat(y, z, p) for p in perms])
        np.testing.assert_allclose(batch, single, rtol=1e-12)


def _scalar_forms(n):
    """Each scalar form and naive oracle of ``ustats`` on n points, as a function of a labeling."""
    rng = np.random.default_rng(24)
    y = rng.integers(0, 2, n)
    z = rng.integers(0, 3, n)
    gy, gz = _indicator_gram(y, 2), _indicator_gram(z, 3)
    k2, k3 = MultinomialIndicator(2), MultinomialIndicator(3)
    counts = PoissonCounts(rng.poisson(1.0, (n // 2, 3)), rng.poisson(1.0, (n // 2, 3)))
    return {
        "two_sample_u": lambda p: two_sample_u(gy, n // 2, n - n // 2, p),
        "two_sample_u_naive": lambda p: two_sample_u_naive(y[: n // 2], y[n // 2 :], k2, p),
        "independence_u": lambda p: independence_u(gy, gz, p),
        "independence_u_naive": lambda p: independence_u_naive(y, z, k2, k3, p),
        "multinomial_independence_u": lambda p: multinomial_independence_u(y, z, 2, 3, p),
        "poisson_chisq": lambda p: poisson_chisq(counts, p),
        "linear_stat": lambda p: linear_stat(y, z, p),
    }


class TestLabelingsMustBePermutations:
    @pytest.mark.parametrize("form", list(_scalar_forms(6)))
    @pytest.mark.parametrize(
        "labeling",
        [[0, 0, 0, 1, 1, 1], [1, 2, 3, 4, 5, 6], [-1, 0, 1, 2, 3, 4], [1, 1, 0, 0, 2, 3]],
        ids=["repeats", "shifted", "negative", "one-repeat"],
    )
    def test_non_bijective_labeling_refused(self, form, labeling):
        evaluate = _scalar_forms(6)[form]
        value = evaluate(np.array([5, 3, 1, 0, 2, 4]))  # a permutation is accepted
        assert np.isfinite(value)
        with pytest.raises(ValueError, match=r"permutation of range\(6\)"):
            evaluate(np.array(labeling))
        with pytest.raises(ValueError, match=r"permutation of range\(6\)"):
            evaluate(np.arange(5))

    @pytest.mark.parametrize("form", ["two_sample_u_many", "independence_u_many"])
    @pytest.mark.parametrize("bad", [[0, 0, 0, 1, 1, 1], [1, 1, 0, 0, 2, 3]], ids=["repeats", "one-repeat"])
    def test_gram_batch_forms_refuse_a_repeating_row(self, form, bad):
        rng = np.random.default_rng(24)
        gy, gz = _indicator_gram(rng.integers(0, 2, 6), 2), _indicator_gram(rng.integers(0, 3, 6), 3)
        evaluate = {
            "two_sample_u_many": lambda rows: two_sample_u_many(gy, 3, 3, rows),
            "independence_u_many": lambda rows: independence_u_many(gy, gz, rows),
        }[form]
        assert np.isfinite(evaluate(np.array([[5, 3, 1, 0, 2, 4], np.arange(6)]))).all()
        with pytest.raises(ValueError, match="distinct|permutation"):
            evaluate(np.array([np.arange(6), bad]))

    def test_two_sample_batch_form_reads_only_the_first_group(self):
        gy = _indicator_gram(np.random.default_rng(24).integers(0, 2, 6), 2)
        values = two_sample_u_many(gy, 3, 3, [[0, 1, 2, 3, 4, 5], [0, 1, 2, 0, 0, 0]])
        assert values[0] == values[1]


def _sliced_case(name):
    """``(evaluate, per_row)`` for one caller of ``ustats._by_row_slices`` on 12 points."""
    rng = np.random.default_rng(31)
    codes = np.arange(12) % 5
    if name == "two_sample_u_many":
        g = gram(Gaussian(np.array([0.7, 0.7])), rng.normal(size=(12, 2)))
        return lambda rows: two_sample_u_many(g, 6, 6, rows), 2 * 12
    if name == "independence_u_many":
        gy, gz = (gram(Gaussian(np.array([1.0])), rng.normal(size=12)) for _ in "yz")
        return lambda rows: independence_u_many(gy, gz, rows), 2 * 12 * 12
    weights = 1.0 / rng.integers(1, 4, 5) if name.endswith("weighted") else None
    if name.startswith("multinomial_two_sample_u_many"):
        return lambda rows: multinomial_two_sample_u_many(codes, 6, 6, rows, weights), 5
    if name.startswith("multinomial_two_sample_u_counts"):
        totals = np.bincount(codes)
        return (
            lambda rows: multinomial_two_sample_u_counts(
                totals, 6, perm_core.bincount_rows(codes[rows[:, :6]], 5), weights
            ),
            5,
        )
    if name == "multinomial_independence_u_many":
        y = np.arange(12) % 3
        # the joint table of 3 x 5 cells and the gathered keys
        return lambda rows: multinomial_independence_u_many(y, codes, rows), 3 * 5 + 12
    if name == "multinomial_independence_u_many-stacked":
        ys = np.array([np.arange(12) % 3, np.arange(12) % 2, np.arange(12) % 6])
        zs = np.array([codes, np.arange(12) % 4, (np.arange(12) // 2) % 6])
        # 3 * 5 + 2 * 4 + 6 * 6 joint cells and the 3 grids' gathered keys
        return lambda rows: multinomial_independence_u_many(ys, zs, rows), 59 + 3 * 12
    pooled = rng.poisson(1.0, (12, 4))
    return lambda rows: poisson_chisq_many(pooled, 6, rows), 6 * 4


_SLICED = [
    "two_sample_u_many",
    "independence_u_many",
    "multinomial_two_sample_u_many",
    "multinomial_two_sample_u_many-weighted",
    "multinomial_two_sample_u_counts",
    "multinomial_two_sample_u_counts-weighted",
    "multinomial_independence_u_many",
    "multinomial_independence_u_many-stacked",
    "poisson_chisq_many",
]
# forms taking a BLAS product of non-integral floats keep whole slices; the
# weighted count forms evaluate them on the calling thread, the Gram
# two-sample form shares each slice's tiles with the helper
_WHOLE_SLICES = [
    "two_sample_u_many",
    "multinomial_two_sample_u_many-weighted",
    "multinomial_two_sample_u_counts-weighted",
]
_THREADED = [name for name in _SLICED if name not in _WHOLE_SLICES]  # pieces of slices


class _CountingThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


class TestThreadedSlices:
    """A helper thread shares an evaluation's slices; the values stay those of one thread."""

    @pytest.mark.parametrize("name", _SLICED)
    def test_threaded_bytes_equal_serial_bytes(self, name, monkeypatch):
        evaluate, per_row = _sliced_case(name)
        rng = np.random.default_rng(32)
        rows = np.array([np.arange(12)] + [rng.permutation(12) for _ in range(40)])
        monkeypatch.setattr(ustats, "_BAND_POINTS", 4)  # 3 bands of the 12 points, 6 tiles
        monkeypatch.setattr(ustats, "_blas_on_one_thread", lambda: True)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 1)
        whole = evaluate(rows)  # one slice under the default budget
        assert ustats.CHUNK_ENTRIES // per_row >= rows.shape[0]
        monkeypatch.setattr(ustats, "CHUNK_ENTRIES", 4 * 3 * per_row)  # 4 slices, 14 pieces
        monkeypatch.setattr(threading, "Thread", _CountingThread)
        monkeypatch.setattr(_CountingThread, "started", 0)
        serial = evaluate(rows)
        assert _CountingThread.started == 0
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        threaded = evaluate(rows)
        # one helper for all the pieces, or one for each slice's tiles
        assert _CountingThread.started == {"two_sample_u_many": 4}.get(name, name in _THREADED)
        assert serial.shape == threaded.shape == whole.shape
        assert serial.tobytes() == threaded.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("step", range(1, 10))
    def test_pieces_split_each_slice_in_up_to_four(self, step, monkeypatch):
        monkeypatch.setattr(ustats, "CHUNK_ENTRIES", step)  # slices of `step` rows
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        for m in range(41):
            pieces = []

            def values(block):
                pieces.append((int(block[0, 0]), block.shape[0]))
                return block[:, 0].astype(float)

            out = ustats._by_row_slices(np.arange(m)[:, None], 1, values)
            assert out.tobytes() == np.arange(m, dtype=float).tobytes()
            pieces.sort()
            covered = [r for start, size in pieces for r in range(start, start + size)]
            assert covered == list(range(m))
            for first in range(0, m, step):
                sizes = [size for start, size in pieces if first <= start < first + step]
                assert sum(sizes) == min(step, m - first)
                assert max(sizes) - min(sizes) <= 1
                # rows holding at most a quarter of the budget keep whole slices
                assert len(sizes) == (min(4, sum(sizes)) if m > step // 4 else 1)

    @pytest.mark.parametrize("n", [300, 500, 1000, 1500])
    def test_full_size_gram_products_keep_their_bits(self, n, monkeypatch):
        # at n = 4 mod 8 (300, 500, 1500) the rows of one BLAS product change in
        # their last bits where the product is cut; tiles cut no product
        rng = np.random.default_rng(35)
        g = gram(Gaussian(np.array([0.7, 0.7])), rng.normal(size=(n, 2)))
        step = ustats.CHUNK_ENTRIES // (2 * n)
        rows = rng.permuted(np.tile(np.arange(n), (step + step // 2, 1)), axis=1)  # two slices
        monkeypatch.setattr(threading, "Thread", _CountingThread)
        monkeypatch.setattr(_CountingThread, "started", 0)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(ustats, "_blas_on_one_thread", lambda: True)
        serial = two_sample_u_many(g, n // 2, n - n // 2, rows)
        assert _CountingThread.started == 0
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(ustats, "_blas_on_one_thread", lambda: False)
        assert two_sample_u_many(g, n // 2, n - n // 2, rows).tobytes() == serial.tobytes()
        assert _CountingThread.started == 0
        monkeypatch.setattr(ustats, "_blas_on_one_thread", lambda: True)
        assert two_sample_u_many(g, n // 2, n - n // 2, rows).tobytes() == serial.tobytes()
        assert _CountingThread.started == 2  # one helper for each slice's tiles

    @pytest.mark.parametrize(
        "env, one",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"MKL_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "", "OMP_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "2"}, False),
            ({"OMP_NUM_THREADS": "4"}, False),
        ],
    )
    def test_blas_thread_count_read_from_its_variables(self, env, one, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert ustats._blas_on_one_thread() is one

    def test_one_row_starts_no_thread(self, monkeypatch):
        rng = np.random.default_rng(36)
        g = gram(Gaussian(np.array([0.7, 0.7])), rng.normal(size=(1000, 2)))
        monkeypatch.setattr(threading, "Thread", _CountingThread)
        monkeypatch.setattr(_CountingThread, "started", 0)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(ustats, "_blas_on_one_thread", lambda: True)
        assert np.isfinite(two_sample_u(g, 500, 500))  # the identity row
        assert np.isfinite(two_sample_u_many(g, 500, 500, [rng.permutation(1000)])).all()
        assert _CountingThread.started == 0

    @pytest.mark.parametrize("name", _SLICED)
    def test_short_switch_interval_changes_no_value(self, name, monkeypatch):
        evaluate, _ = _sliced_case(name)
        rng = np.random.default_rng(34)
        rows = np.array([rng.permutation(12) for _ in range(200)])
        monkeypatch.setattr(ustats, "CHUNK_ENTRIES", 1)  # one slice a row
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 1)
        serial = evaluate(rows)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [evaluate(rows) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(values.tobytes() == serial.tobytes() for values in threaded)

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    @pytest.mark.parametrize("name", _THREADED)
    def test_a_failure_propagates_and_stops_both_threads(self, name, failing, monkeypatch):
        evaluate, _ = _sliced_case(name)
        rng = np.random.default_rng(33)
        count = 200
        rows = np.array([rng.permutation(12) for _ in range(count)])
        monkeypatch.setattr(ustats, "CHUNK_ENTRIES", 1)  # one slice a row
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        caller = threading.current_thread()
        both_evaluating = threading.Event()
        taken = []
        by_row_slices = ustats._by_row_slices

        def failing_slices(rows, per_row, block_values, columns=(), **options):
            def values(block):
                taken.append(block)
                here = "caller" if threading.current_thread() is caller else "helper"
                if here == "helper":
                    both_evaluating.set()
                else:
                    assert both_evaluating.wait(10)
                if here == failing:
                    raise KeyError(here)
                time.sleep(0.001)  # all 200 slices take 0.2 s if the failure is ignored
                return block_values(block)

            return by_row_slices(rows, per_row, values, columns, **options)

        monkeypatch.setattr(ustats, "_by_row_slices", failing_slices)
        before = threading.active_count()
        with pytest.raises(KeyError, match=failing):
            evaluate(rows)
        assert threading.active_count() == before
        assert len(taken) < count


class TestModuleBoundary:
    @pytest.mark.parametrize("module", ["testing.py", "simlab.py"])
    def test_imports_from_ustats_are_public(self, module):
        # every evaluator formula lives in ustats behind its public names
        source = Path(ustats.__file__).with_name(module).read_text()
        imported = [
            alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "ustats" and node.level == 1
            for alias in node.names
        ]
        assert imported
        assert [name for name in imported if name not in ustats.__all__] == []

    @pytest.mark.parametrize("path", sorted(Path(ustats.__file__).parent.glob("*.py")),
                             ids=lambda path: path.name)
    def test_no_private_name_crosses_a_module(self, path):
        # a private name is the business of its own module; others use the public ones
        crossing = [
            f"{node.module}.{alias.name}"
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert crossing == []


_ARRAY_RECORDS = {
    "TwoSamplePooled": lambda: TwoSamplePooled(
        y=np.array([0, 1, 2]), z=np.array([1, 1, 0]), domain=Categorical(3)),
    "PairedSample": lambda: PairedSample(
        y=np.array([0, 1, 0, 1]), z=np.array([1, 1, 0, 0]),
        y_domain=Categorical(2), z_domain=Categorical(2)),
    "PoissonCounts": lambda: PoissonCounts(np.array([[1, 0], [2, 1]]), np.array([[0, 3], [1, 1]])),
    "GramMatrix": lambda: GramMatrix(np.ones((3, 3)) - np.eye(3), True),
    "PermutationDistribution": lambda: perm_core.PermutationDistribution(
        0.0, np.array([0.0, 1.0]), perm_core.PermutationPlan.exact()),
    "Gaussian": lambda: Gaussian(np.array([0.5, 0.7])),
    "WeightedMultinomial": lambda: WeightedMultinomial(np.array([0.5, 0.5])),
    "ProductWeighted": lambda: ProductWeighted(np.array([0.5, 0.5]), np.array([1.0])),
    "TailReport": lambda: TailReport(*(np.array([0.1, 0.2]) for _ in range(4))),
}


class TestDataTypes:
    @pytest.mark.parametrize("name", list(_ARRAY_RECORDS))
    def test_array_records_compare_by_identity(self, name):
        # with the default value equality, == compared arrays and raised
        first, second = _ARRAY_RECORDS[name](), _ARRAY_RECORDS[name]()
        assert not first == second
        assert first != second
        assert first == first
        assert len({first, second, first}) == 2

    def test_two_sample_needs_two_each(self):
        with pytest.raises(ValueError):
            TwoSamplePooled(y=np.array([0]), z=np.array([0, 1]), domain=Categorical(2))

    def test_paired_needs_four(self):
        with pytest.raises(ValueError):
            PairedSample(
                y=np.array([0, 1, 0]),
                z=np.array([0, 1, 0]),
                y_domain=Categorical(2),
                z_domain=Categorical(2),
            )

    def test_categorical_range_checked(self):
        with pytest.raises(ValueError):
            TwoSamplePooled(y=np.array([0, 3]), z=np.array([0, 1]), domain=Categorical(3))

    def test_continuous_dim_checked(self):
        with pytest.raises(ValueError):
            TwoSamplePooled(
                y=np.zeros((3, 2)), z=np.zeros((3, 3)), domain=Continuous(2)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_continuous_must_be_finite(self, bad):
        y = np.zeros((4, 2))
        y[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TwoSamplePooled(y=y, z=np.zeros((3, 2)), domain=Continuous(2))
        with pytest.raises(ValueError, match="finite"):
            PairedSample(
                y=np.zeros(4), z=y[:, 0], y_domain=Continuous(1), z_domain=Continuous(1)
            )

    def test_unbiasedness_small_monte_carlo(self):
        # cheap version of the unbiasedness property (the acceptance suite
        # runs the full-size one)
        rng = np.random.default_rng(22)
        p_y = np.array([0.5, 0.3, 0.2])
        p_z = np.array([0.2, 0.3, 0.5])
        target = float(((p_y - p_z) ** 2).sum())
        reps = 4000
        vals = np.empty(reps)
        for r in range(reps):
            y = rng.choice(3, 12, p=p_y)
            z = rng.choice(3, 10, p=p_z)
            vals[r] = multinomial_two_sample_u(
                np.bincount(y, minlength=3), np.bincount(z, minlength=3)
            )
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) <= 3 * se
