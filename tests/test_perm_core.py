import dataclasses
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from permkit import perm_core
from permkit.perm_core import (
    BLOCK_ROWS,
    CHUNK_ENTRIES,
    PermutationDistribution,
    PermutationPlan,
    StatisticEvaluationError,
    critical_value,
    enumerate_permutations,
    p_value,
    permutation_distribution,
    replicate_rng,
    run_test,
    split_seed,
)


def _dist(replicates, observed=None, plan=None, n=3):
    """A hand-built distribution; the observed value defaults to the first replicate."""
    plan = plan or PermutationPlan.exact()
    observed = float(replicates[0]) if observed is None else observed
    return PermutationDistribution(
        observed=observed, replicates=np.sort(np.asarray(replicates, float)), plan=plan, n=n
    )


class TestEnumeratePermutations:
    def test_n3_six_distinct(self):
        perms = [tuple(p) for p in enumerate_permutations(3)]
        assert len(perms) == 6
        assert len(set(perms)) == 6

    def test_n1(self):
        assert [tuple(p) for p in enumerate_permutations(1)] == [(0,)]

    def test_n4_contains_extremes(self):
        perms = {tuple(p) for p in enumerate_permutations(4)}
        assert len(perms) == 24
        assert (0, 1, 2, 3) in perms
        assert (3, 2, 1, 0) in perms

    def test_over_limit_refused(self):
        assert perm_core.ENUMERATION_LIMIT == math.factorial(10)
        with pytest.raises(ValueError, match="enumeration limit"):
            list(enumerate_permutations(11))


class TestPermutationDistribution:
    def test_constant_statistic(self):
        dist = permutation_distribution(
            lambda data, perm: 7.0, None, 4, PermutationPlan.exact()
        )
        assert np.all(dist.replicates == 7.0)
        assert dist.observed == 7.0

    def test_exact_replicate_count(self):
        dist = permutation_distribution(
            lambda data, perm: float(perm[0]), None, 3, PermutationPlan.exact()
        )
        assert dist.size == 6

    def test_monte_carlo_appends_identity(self):
        plan = PermutationPlan.monte_carlo(10, seed=3)
        dist = permutation_distribution(
            lambda data, perm: float(perm[0]), None, 4, plan
        )
        assert dist.size == 11
        assert dist.observed == 0.0 and dist.observed in dist.replicates

    @pytest.mark.parametrize("observed", [-1.0, 2.5, 1000.0, math.nan])
    def test_pool_without_observed_refused(self, observed):
        with pytest.raises(ValueError, match="must hold the observed"):
            _dist([0.0, 1.0, 2.0, 3.0], observed=observed)

    def test_observed_within_tie_tolerance_accepted(self):
        dist = _dist([1.0, 2.0, 3.0], observed=2.0 * (1 + 1e-14))
        assert p_value(dist) == pytest.approx(2 / 3)

    def test_sortedness_check_makes_no_float_copy(self):
        replicates = np.arange(2.0**20)  # 8 MiB; np.diff would allocate as much again
        plan = PermutationPlan.exact()
        tracemalloc.start()
        try:
            PermutationDistribution(observed=0.0, replicates=replicates, plan=plan, n=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < replicates.nbytes / 4
        with pytest.raises(ValueError, match="sorted"):
            PermutationDistribution(observed=0.0, replicates=replicates[::-1], plan=plan, n=10)

    def test_failure_carries_replicate_index(self):
        def bad(data, perm):
            if perm[0] == perm.size - 1:  # identity ok, some replicate fails
                raise RuntimeError("boom")
            return 0.0

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(bad, None, 3, PermutationPlan.exact())
        assert err.value.replicate_index >= 0

    def test_monte_carlo_deterministic_and_scheduler_independent(self):
        # same seed -> bit-identical replicates, whether or not the evaluator
        # advertises batch evaluation (the block streams fix the draws)
        data = np.arange(6, dtype=float)

        def loop_stat(d, perm):
            return float(d[perm[:3]].sum())

        class BatchStat:
            def __call__(self, d, perm):
                return float(d[perm[:3]].sum())

            def evaluate_many(self, d, perms):
                return d[perms[:, :3]].sum(axis=1)

        plan = PermutationPlan.monte_carlo(64, seed=99)
        d1 = permutation_distribution(loop_stat, data, 6, plan)
        d2 = permutation_distribution(BatchStat(), data, 6, plan)
        d3 = permutation_distribution(loop_stat, data, 6, plan)
        assert np.array_equal(d1.replicates, d2.replicates)
        assert np.array_equal(d1.replicates, d3.replicates)

    @pytest.mark.parametrize(
        "plan", [PermutationPlan.exact(), PermutationPlan.monte_carlo(300, seed=6)]
    )
    def test_batch_evaluator_is_never_called_row_by_row(self, plan):
        data = np.random.default_rng(3).normal(size=7)

        class BatchOnly:
            def __call__(self, d, perm):
                raise AssertionError("evaluated row by row")

            def evaluate_many(self, d, perms):
                return d[perms[:, :3]].sum(axis=1)

        batch = permutation_distribution(BatchOnly(), data, 7, plan)
        plain = permutation_distribution(lambda d, perm: d[perm[:3]].sum(), data, 7, plan)
        assert batch.observed == plain.observed
        assert np.array_equal(batch.replicates, plain.replicates)


class _RecordingStat:
    """Batch evaluator that keeps a copy of every row it is handed."""

    def __init__(self):
        self.chunks = []

    def __call__(self, data, perm):
        return 0.0

    def evaluate_many(self, data, perms):
        self.chunks.append(perms.copy())
        return np.zeros(perms.shape[0])

    @property
    def rows(self):
        return np.concatenate(self.chunks)


def _mc_rows(n, replicates, seed):
    """The replicate rows a Monte Carlo plan hands to ``evaluate_many``, by chunk."""
    stat = _RecordingStat()
    permutation_distribution(stat, None, n, PermutationPlan.monte_carlo(replicates, seed))
    # the first batch is the identity row alone, whose value is the observed statistic
    identity, *stat.chunks = stat.chunks
    assert identity.tolist() == [list(range(n))]
    return stat


def _contract_rows(n, replicates, seed):
    """All rows in one array, straight from the documented block contract."""
    blocks = -(-replicates // BLOCK_ROWS)
    rows = np.tile(np.arange(n, dtype=np.intp), (blocks * BLOCK_ROWS, 1))
    for k in range(blocks):
        block = rows[k * BLOCK_ROWS : (k + 1) * BLOCK_ROWS]
        replicate_rng(seed, k).permuted(block, axis=1, out=block)
    return rows[:replicates]


class TestMonteCarloStream:
    @pytest.mark.parametrize("replicates", [1, 63, 64, 65, 1000])
    def test_every_row_is_a_permutation(self, replicates):
        rows = _mc_rows(9, replicates, seed=11).rows
        assert rows.shape == (replicates, 9)
        assert np.array_equal(np.sort(rows, axis=1), np.broadcast_to(np.arange(9), rows.shape))

    def test_prefix_stable(self):
        short = _mc_rows(12, 100, seed=21).rows
        long = _mc_rows(12, 300, seed=21).rows
        assert np.array_equal(short, long[:100])

    def test_rows_follow_block_contract(self):
        # replicate i is row i % 64 of block stream (seed, i // 64)
        rows = _mc_rows(7, 2 * BLOCK_ROWS + 3, seed=5).rows
        assert np.array_equal(rows, _contract_rows(7, 2 * BLOCK_ROWS + 3, seed=5))

    def test_chunking_leaves_values_unchanged(self):
        n = 5000
        chunk_rows = BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))
        replicates = 2 * chunk_rows + 50
        chunks = _mc_rows(n, replicates, seed=8).chunks
        assert len(chunks) >= 3
        assert all(c.shape[0] % BLOCK_ROWS == 0 for c in chunks[:-1])
        data = np.random.default_rng(0).normal(size=n)

        class SumStat:
            def __call__(self, d, perm):
                return float(d[perm[:100]].sum())

            def evaluate_many(self, d, perms):
                return d[perms[:, :100]].sum(axis=1)

        plan = PermutationPlan.monte_carlo(replicates, seed=8)
        chunked = permutation_distribution(SumStat(), data, n, plan)
        rows = np.concatenate([np.arange(n)[None, :], _contract_rows(n, replicates, 8)])
        one_batch = np.sort(SumStat().evaluate_many(data, rows))  # the identity, then the draws
        assert np.array_equal(chunked.replicates, one_batch)

    def test_uniform_over_all_permutations(self):
        # chi-square goodness of fit over the 24 permutations of n=4, with
        # the draws spread over many blocks
        replicates = 24 * 250
        rows = _mc_rows(4, replicates, seed=17).rows
        index = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        counts = np.bincount([index[tuple(r)] for r in rows.tolist()], minlength=24)
        expected = replicates / 24
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < sps.chi2.ppf(0.999, df=23)

    def test_loop_failure_reports_global_index(self):
        n = 5000
        chunk_rows = BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))
        target = chunk_rows + 7  # in chunk 1
        calls = []

        def bad(data, perm):
            calls.append(None)  # call 0 is the identity, call i + 1 replicate i
            if len(calls) == target + 2:
                raise RuntimeError("boom")
            return 0.0

        plan = PermutationPlan.monte_carlo(2 * chunk_rows, seed=4)
        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(bad, None, n, plan)
        assert err.value.replicate_index == target
        assert isinstance(err.value.__cause__, RuntimeError)


class _EncodingStat:
    """Batch evaluator whose value is the row read as a base-n number.

    The values are exact integers, so they fix the row order; it also
    records whether every row it was handed is a permutation.
    """

    def __init__(self):
        self.values = []
        self.all_permutations = True

    def evaluate_many(self, data, perms):
        n = perms.shape[1]
        self.all_permutations &= bool(
            np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(n), perms.shape))
        )
        values = (perms @ (n ** np.arange(n - 1, -1, -1))).astype(float)
        self.values.append(values)
        return values


class TestExactStream:
    @pytest.mark.parametrize("n", [7, 9])  # from the enumeration cache, then chunk by chunk
    def test_chunking_leaves_values_unchanged(self, n, monkeypatch):
        total = math.factorial(n)
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", 2 * total * n)
        one = _EncodingStat()
        one_dist = permutation_distribution(one, None, n, PermutationPlan.exact())
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", total * n // 3 - 1)
        many = _EncodingStat()
        many_dist = permutation_distribution(many, None, n, PermutationPlan.exact())
        assert len(one.values) == 1 and len(many.values) >= 3
        assert one.all_permutations and many.all_permutations
        values = np.concatenate(many.values)
        assert values.tobytes() == one.values[0].tobytes()
        assert many_dist.replicates.tobytes() == one_dist.replicates.tobytes()
        # n! distinct rows in lexicographic order, the identity first
        assert values.size == total and np.all(np.diff(values) > 0)
        assert many_dist.observed == values[0]

    def test_enumerate_permutations_matches_plan_rows(self):
        stat = _EncodingStat()
        permutation_distribution(stat, None, 6, PermutationPlan.exact())
        rows = np.array(list(enumerate_permutations(6)))
        assert rows.tolist() == [list(p) for p in itertools.permutations(range(6))]
        assert np.array_equal(stat.values[0], rows @ (6 ** np.arange(5, -1, -1)))

    def test_peak_memory_is_bounded_by_the_chunk(self):
        class ZeroStat:
            def evaluate_many(self, data, perms):
                return np.zeros(perms.shape[0])

        # all 9! x 9 index rows at once would take 26 MB as intp, 77 MB as tuples
        tracemalloc.start()
        try:
            permutation_distribution(ZeroStat(), None, 9, PermutationPlan.exact())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestNonFiniteStatistic:
    def test_non_finite_observed(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(StatisticEvaluationError) as err:
                permutation_distribution(
                    lambda d, perm: bad, None, 4, PermutationPlan.monte_carlo(9, 0)
                )
            assert err.value.replicate_index == -1

    def test_non_finite_replicate_reports_index(self):
        class NanAt:
            def __call__(self, d, perm):
                return 0.0

            def evaluate_many(self, d, perms):
                out = np.zeros(perms.shape[0])
                if perms.shape[0] > 30:  # the one-row identity batch stays finite
                    out[30] = np.nan
                return out

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(NanAt(), None, 5, PermutationPlan.monte_carlo(99, 1))
        assert err.value.replicate_index == 30

    def test_non_finite_exact_replicate(self):
        def stat(d, perm):
            return -math.inf if perm[0] == 2 else float(perm[0])

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(stat, None, 3, PermutationPlan.exact())
        assert err.value.replicate_index == 4  # (2, 0, 1) in lexicographic order

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "raise"])
    def test_exact_identity_row_reports_observed_index(self, bad):
        def stat(d, perm):
            if perm[0] == 0 and perm[1] == 1:
                if bad == "raise":
                    raise RuntimeError("boom")
                return bad
            return 0.0

        class BatchStat:
            def evaluate_many(self, d, perms):
                return np.array([stat(d, p) for p in perms])

        for evaluator in (stat, BatchStat()):
            with pytest.raises(StatisticEvaluationError) as err:
                permutation_distribution(evaluator, None, 3, PermutationPlan.exact())
            assert err.value.replicate_index == -1


class _SumOf:
    """Batch evaluator: sum of the data at the first ``k`` relabeled positions."""

    def __init__(self, k, power=1):
        self.k = k
        self.power = power

    def evaluate_many(self, data, perms):
        return (data[perms[:, : self.k]] ** self.power).sum(axis=1)


class _Stacked:
    """Column j is ``stats[j]``'s value on the same rows."""

    def __init__(self, *stats):
        self.stats = stats
        self.batches = 0

    def evaluate_many(self, data, perms):
        self.batches += 1
        return np.stack([s.evaluate_many(data, perms) for s in self.stats], axis=1)


def _assert_same_distribution(got, want):
    assert got.observed.hex() == want.observed.hex()
    assert got.replicates.tobytes() == want.replicates.tobytes()
    assert got.plan == want.plan and got.n == want.n


class TestStackedEvaluator:
    STATS = (_SumOf(3), _SumOf(50, power=2), _SumOf(7, power=3))

    @pytest.mark.parametrize("partial_block", [True, False])
    def test_monte_carlo_columns_equal_their_own_distributions(self, partial_block):
        n = 5000
        chunk_rows = BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))
        tail = 50 if partial_block else BLOCK_ROWS  # rows in the last chunk
        plan = PermutationPlan.monte_carlo(2 * chunk_rows + tail, 8)
        data = np.random.default_rng(0).normal(size=n)
        stacked = _Stacked(*self.STATS)
        dists = permutation_distribution(stacked, data, n, plan)
        assert stacked.batches >= 1 + 3  # the identity row, then three chunks
        assert len(dists) == len(self.STATS)
        for stat, dist in zip(self.STATS, dists):
            _assert_same_distribution(dist, permutation_distribution(stat, data, n, plan))

    def test_exact_columns_equal_their_own_distributions(self, monkeypatch):
        n = 7
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", math.factorial(n) * n // 3 - 1)
        data = np.random.default_rng(1).normal(size=n)
        stacked = _Stacked(*self.STATS)
        dists = permutation_distribution(stacked, data, n, PermutationPlan.exact())
        assert stacked.batches >= 3
        for stat, dist in zip(self.STATS, dists):
            own = permutation_distribution(stat, data, n, PermutationPlan.exact())
            _assert_same_distribution(dist, own)

    @pytest.mark.parametrize("plan", [PermutationPlan.monte_carlo(99, 3), PermutationPlan.exact()])
    def test_run_test_decides_each_column(self, plan):
        data = np.random.default_rng(2).normal(size=6)
        outcomes = run_test(_Stacked(*self.STATS), data, 6, plan, 0.1)
        assert outcomes == tuple(run_test(s, data, 6, plan, 0.1) for s in self.STATS)

    @pytest.mark.parametrize(
        "plan, row, index",
        [
            (PermutationPlan.monte_carlo(99, 1), 30, 30),
            (PermutationPlan.monte_carlo(99, 1), 0, -1),
            (PermutationPlan.exact(), 4, 4),
            (PermutationPlan.exact(), 0, -1),
        ],
    )
    def test_non_finite_column_reports_its_row(self, plan, row, index):
        n = 5

        class NanInColumnOne:
            def evaluate_many(self, data, perms):
                values = np.zeros((perms.shape[0], 3))
                # under a Monte Carlo plan the identity row comes alone, first
                is_identity_batch = perms.shape[0] == 1
                if plan.mode == "exact" or (row == 0) == is_identity_batch:
                    values[row, 1] = np.nan
                return values

        with pytest.raises(StatisticEvaluationError, match="column 1:") as err:
            permutation_distribution(NanInColumnOne(), None, n, plan)
        assert err.value.replicate_index == index


class TestCriticalValue:
    def test_order_statistic(self):
        assert critical_value(_dist([1, 2, 3, 4, 5]), 0.2) == 4.0

    def test_all_equal(self):
        for alpha in (0.01, 0.2, 0.5, 0.99):
            assert critical_value(_dist([7, 7, 7]), alpha) == 7.0

    def test_ties(self):
        assert critical_value(_dist([0, 0, 1]), 0.5) == 0.0

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            critical_value(_dist([1.0]), 0.0)
        with pytest.raises(ValueError):
            critical_value(_dist([1.0]), 1.0)

    def test_empty_rejected_at_construction(self):
        with pytest.raises(ValueError, match="non-empty"):
            _dist([], observed=0.0)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_member_and_monotone(self, values, a1, a2):
        dist = _dist(values)
        c1 = critical_value(dist, a1)
        assert c1 in dist.replicates
        lo, hi = sorted((a1, a2))
        assert critical_value(dist, lo) >= critical_value(dist, hi)


class TestPValue:
    def test_observed_above_all(self):
        # the pool: 99 sampled replicates plus the identity's value
        plan = PermutationPlan.monte_carlo(99, seed=0)
        dist = _dist(np.append(np.arange(99), 1000.0), observed=1000.0, plan=plan)
        assert p_value(dist) == 1 / 100

    def test_observed_equal_everywhere(self):
        plan = PermutationPlan.monte_carlo(99, seed=0)
        dist = _dist(np.full(100, 5.0), observed=5.0, plan=plan)
        assert p_value(dist) == 1.0

    def test_exact_antisymmetric_pair(self):
        # n=2 two-sample with statistic values {+a, -a}: hand enumeration
        data = np.array([1.0, -1.0])
        dist = permutation_distribution(
            lambda d, perm: float(d[perm[0]]), data, 2, PermutationPlan.exact()
        )
        assert dist.observed == 1.0
        assert p_value(dist) == 0.5

    def test_identity_not_double_counted(self):
        plan = PermutationPlan.monte_carlo(4, seed=0)
        # pool: 4 sampled below observed + the identity
        dist = _dist([1, 2, 3, 4, 10.0], observed=10.0, plan=plan)
        assert p_value(dist) == pytest.approx(1 / 5)

    def test_in_unit_interval(self):
        plan = PermutationPlan.monte_carlo(9, seed=1)
        dist = permutation_distribution(
            lambda d, perm: float(perm[0]), None, 5, plan
        )
        assert 0.0 < p_value(dist) <= 1.0


class TestTieScale:
    @given(st.integers(-20, 20))
    @settings(max_examples=41, deadline=None)
    def test_p_invariant_to_statistic_units(self, k):
        data = np.array([1.0] * 10 + [0.0] * 10)
        plan = PermutationPlan.monte_carlo(199, seed=5)

        def p_at(scale):
            stat = lambda d, perm: scale * float(d[perm[:10]].sum())  # noqa: E731
            return p_value(permutation_distribution(stat, data, 20, plan))

        assert p_at(10.0**k) == p_at(1.0)

    def test_all_zero_values_use_plain_equality(self):
        dist = _dist([0.0, 0.0, 0.0], observed=0.0)
        assert dist.tie_tolerance == 0.0
        assert p_value(dist) == 1.0


class TestRunTest:
    def test_unreachable_level_warns(self):
        plan = PermutationPlan.monte_carlo(19, seed=0)
        with pytest.warns(RuntimeWarning, match="never reject"):
            run_test(lambda d, p: float(p[0]), None, 4, plan, 0.01)

    def test_level_zero_raises_before_the_warning(self):
        plan = PermutationPlan.monte_carlo(19, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="alpha"):
                run_test(lambda d, p: float(p[0]), None, 4, plan, 0.0)

    def test_constant_never_rejects(self):
        for alpha in (0.05, 0.5, 0.9):
            out = run_test(lambda d, p: 1.0, None, 4, PermutationPlan.exact(), alpha)
            assert not out.reject

    def test_reject_iff_above_critical(self):
        data = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
        out = run_test(
            lambda d, perm: float(d[perm[0]]), data, 5, PermutationPlan.exact(), 0.05
        )
        # observed 5 sits above the 0.95 quantile of {5 w.p. 1/5, 0 w.p. 4/5}... not quite:
        # F(0) = 4/5 < 0.95 so critical value is 5 and the test must NOT reject.
        assert out.critical_value == 5.0
        assert not out.reject
        out2 = run_test(
            lambda d, perm: float(d[perm[0]]), data, 5, PermutationPlan.exact(), 0.25
        )
        assert out2.critical_value == 0.0
        assert out2.reject

    # B = 100 and 200 make B(1 - alpha) an integer for every alpha below;
    # n = 6 gives 20 distinct values (many ties), n = 12 gives 924
    def test_p_le_alpha_implies_reject(self):
        for n in (6, 12):
            rng = np.random.default_rng(5)
            data = rng.normal(size=n)
            for replicates in (37, 100, 200):
                for alpha in (0.05, 0.1, 0.3, 0.6):
                    for seed in range(20):
                        plan = PermutationPlan.monte_carlo(replicates, seed=seed)
                        out = run_test(
                            lambda d, perm: float(d[perm[: n // 2]].sum()),
                            data,
                            n,
                            plan,
                            alpha,
                        )
                        assert out.reject == (out.p_value <= alpha), (n, replicates)


class TestLevelProperties:
    def test_exact_level_small_n(self):
        # exchangeable null (iid normals), exact plan: P(reject) <= alpha
        rng = np.random.default_rng(7)
        trials = 2000
        alpha = 0.1
        plan = PermutationPlan.exact()
        rejects = 0
        for _ in range(trials):
            data = rng.normal(size=5)
            out = run_test(
                lambda d, perm: float(d[perm[0]] - d[perm[1]]), data, 5, plan, alpha
            )
            rejects += out.reject
        se = math.sqrt(alpha * (1 - alpha) / trials)
        assert rejects / trials <= alpha + 3 * se

    def test_p_super_uniform(self):
        rng = np.random.default_rng(8)
        trials = 3000
        plan = PermutationPlan.exact()
        pvals = np.empty(trials)
        for t in range(trials):
            data = rng.normal(size=5)
            dist = permutation_distribution(
                lambda d, perm: float(d[perm[0]] * 2 + d[perm[1]]), data, 5, plan
            )
            pvals[t] = p_value(dist)
        for u in (0.01, 0.05, 0.1):
            se = math.sqrt(u * (1 - u) / trials)
            assert (pvals <= u).mean() <= u + 3 * se


class TestSeedSplitting:
    def test_split_seed_is_mix(self):
        s1 = split_seed(42, 0)
        s2 = split_seed(42, 1)
        s3 = split_seed(43, 0)
        assert len({s1, s2, s3}) == 3
        assert all(0 <= s < 2**64 for s in (s1, s2, s3))

    def test_streams_reproducible(self):
        a = replicate_rng(7, 3).permutation(10)
        b = replicate_rng(7, 3).permutation(10)
        assert np.array_equal(a, b)


class TestPlanValidation:
    def test_monte_carlo_needs_replicates(self):
        with pytest.raises(ValueError):
            PermutationPlan(mode="monte_carlo")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            PermutationPlan(mode="bootstrap")

    def test_exact_limit_enforced_at_build(self):
        with pytest.raises(ValueError, match="enumeration limit"):
            permutation_distribution(lambda d, p: 0.0, None, 11, PermutationPlan.exact())

    @pytest.mark.parametrize("replicates", [99.5, True, False, np.True_, "99", None, 0, -3])
    def test_monte_carlo_replicates_must_be_a_positive_integer(self, replicates):
        with pytest.raises(ValueError, match="replicates"):
            PermutationPlan.monte_carlo(replicates, 1)

    @pytest.mark.parametrize("replicates", [1, 99, np.int64(99), np.int32(7)])
    def test_monte_carlo_integer_replicates_accepted(self, replicates):
        assert PermutationPlan.monte_carlo(replicates, 1).replicates == replicates

    @pytest.mark.parametrize("replicates", [5, 0])
    def test_exact_refuses_replicates(self, replicates):
        with pytest.raises(ValueError, match="no replicates"):
            PermutationPlan("exact", replicates=replicates)

    def test_plan_has_only_mode_replicates_and_seed(self):
        names = [f.name for f in dataclasses.fields(PermutationPlan)]
        assert names == ["mode", "replicates", "seed"]
