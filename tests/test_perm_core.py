import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from permkit import perm_core, ustats
from permkit.dataio import outcome_record, write_outcome_json
from permkit.perm_core import (
    BLOCK_ROWS,
    CHUNK_ENTRIES,
    GroupCounts,
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


def _stat(evaluate_many):
    """A statistic evaluator with the batch form ``evaluate_many(data, rows)``."""
    return SimpleNamespace(evaluate_many=evaluate_many)


def _constant(value):
    """The evaluator whose every value is ``value``."""
    return _stat(lambda data, rows: np.full(rows.shape[0], value))


# the first relabeled index, as a float
_FIRST = _stat(lambda data, rows: rows[:, 0].astype(float))


def _dist(replicates, observed=None, plan=None):
    """A hand-built distribution; the observed value defaults to the first replicate."""
    plan = plan or PermutationPlan.exact()
    observed = float(replicates[0]) if observed is None else observed
    return PermutationDistribution(
        observed=observed, replicates=np.sort(np.asarray(replicates, float)), plan=plan
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
        dist = permutation_distribution(_constant(7.0), None, 4, PermutationPlan.exact())
        assert np.all(dist.replicates == 7.0)
        assert dist.observed == 7.0

    def test_exact_replicate_count(self):
        dist = permutation_distribution(_FIRST, None, 3, PermutationPlan.exact())
        assert dist.size == 6

    def test_monte_carlo_appends_identity(self):
        plan = PermutationPlan.monte_carlo(10, seed=3)
        dist = permutation_distribution(_FIRST, None, 4, plan)
        assert dist.size == 11
        assert dist.observed == 0.0 and dist.observed in dist.replicates

    @pytest.mark.parametrize("observed", [-1.0, 2.5, 1000.0, math.nan, math.inf, -math.inf])
    def test_pool_without_observed_refused(self, observed):
        with pytest.raises(ValueError, match="must hold the observed"):
            _dist([0.0, 1.0, 2.0, 3.0], observed=observed)

    @pytest.mark.parametrize(
        "observed, replicates, match",
        [
            # an infinite end would make the tie tolerance infinite and p = 1
            (1.0, [0.0, 1.0, np.inf], "finite"),
            (1.0, [-np.inf, 0.0, 1.0], "finite"),
            (0.0, [0.0, np.nan, 1.0], "finite"),
            (0.0, [0.0, 1.0, np.nan], "finite"),
            (np.nan, [np.nan], "finite"),
            (0.0, ["0.0", "1.0"], "real numbers"),
            (0.0, [0.0, None], "real numbers"),
            ("0.0", [0.0, 1.0], "real numbers"),
            (0.0, [[[0.0]]], r"\(pool,\) or \(pool, K\)"),
            (0.0, np.zeros((0, 2)), "non-empty"),
            (np.zeros(2), [0.0, 1.0], r"observed must have shape \(\)"),
            # a stacked pool: one observed value per column, each column sorted and holding it
            (np.zeros(3), np.zeros((4, 2)), r"observed must have shape \(2,\)"),
            (0.0, np.zeros((4, 2)), r"observed must have shape \(2,\)"),
            (np.zeros(2), np.array([[0.0, 1.0], [1.0, 0.0]]), "sorted"),
            (np.array([0.0, 5.0]), np.array([[0.0, 0.0], [1.0, 1.0]]), "must hold the observed"),
            (np.zeros(2), np.array([[0.0, 0.0], [1.0, np.inf]]), "finite"),
            (np.zeros(2), np.array([[0.0, np.nan], [1.0, 1.0]]), "finite"),
        ],
    )
    def test_bad_pool_refused(self, observed, replicates, match):
        with pytest.raises(ValueError, match=match):
            PermutationDistribution(observed, replicates, PermutationPlan.exact())

    def test_array_likes_are_converted(self):
        dist = PermutationDistribution(1, [0, 1, 2], PermutationPlan.exact())
        assert dist.replicates.dtype == float and type(dist.observed) is float
        assert p_value(dist) == 2 / 3 and critical_value(dist, 0.4) == 1.0

    def test_observed_within_tie_tolerance_accepted(self):
        dist = _dist([1.0, 2.0, 3.0], observed=2.0 * (1 + 1e-14))
        assert p_value(dist) == pytest.approx(2 / 3)

    def test_sortedness_check_makes_no_float_copy(self):
        replicates = np.arange(2.0**20)  # 8 MiB; np.diff would allocate as much again
        plan = PermutationPlan.exact()
        tracemalloc.start()
        try:
            PermutationDistribution(observed=0.0, replicates=replicates, plan=plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < replicates.nbytes / 4
        with pytest.raises(ValueError, match="sorted"):
            PermutationDistribution(observed=0.0, replicates=replicates[::-1], plan=plan)

    def test_failure_carries_replicate_index(self):
        def bad(data, rows):
            if (rows[:, 0] == rows.shape[1] - 1).any():  # identity ok, a replicate batch fails
                raise RuntimeError("boom")
            return np.zeros(rows.shape[0])

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(_stat(bad), None, 3, PermutationPlan.monte_carlo(9, 0))
        assert err.value.replicate_index == 0  # the first row of the failing batch

    def test_monte_carlo_deterministic_and_scheduler_independent(self, monkeypatch):
        # same seed -> bit-identical replicates, whatever the chunk size (the
        # block streams fix the draws)
        data = np.arange(6, dtype=float)
        plan = PermutationPlan.monte_carlo(200, seed=99)
        d1 = permutation_distribution(_SumOf(3), data, 6, plan)
        d2 = permutation_distribution(_SumOf(3), data, 6, plan)
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", 1)  # one block of 64 rows per chunk
        d3 = permutation_distribution(_SumOf(3), data, 6, plan)
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
        _assert_same_distribution(batch, permutation_distribution(_SumOf(3), data, 7, plan))

    @pytest.mark.parametrize("plan", [PermutationPlan.exact(), PermutationPlan.monte_carlo(9, 0)])
    def test_statistic_without_evaluate_many_refused_before_any_row(self, plan, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was built")

        for name in ("_enumeration_chunks", "_monte_carlo_chunks", "_count_chunks"):
            monkeypatch.setattr(perm_core, name, no_rows)
        for stat in (lambda d, perm: 0.0, _SumOf(3).evaluate_many, object()):
            with pytest.raises(TypeError, match=r"evaluate_many=lambda d, rows: np\.array"):
                permutation_distribution(stat, np.zeros(4), 4, plan)
            with pytest.raises(TypeError, match="evaluate_many"):
                run_test(stat, np.zeros(4), 4, plan, 0.5)

    @pytest.mark.parametrize("k", [5, -1, True, False, 2.0, "2", np.int64(5)])
    def test_bad_subset_size_refused_before_any_row(self, k, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was built")

        monkeypatch.setattr(perm_core, "_enumeration_chunks", no_rows)
        stat = _SubsetRows(k)
        with pytest.raises(ValueError, match=r"subset_size must be an integer in \[0, 4\]"):
            permutation_distribution(stat, None, 4, PermutationPlan.exact())
        with pytest.raises(ValueError, match="subset_size"):
            permutation_distribution(stat, GroupCounts(np.array([0, 1, 1, 0]), 2), 4,
                                     PermutationPlan.exact())

    @pytest.mark.parametrize("k", [0, 4, np.int64(2), np.uint8(3)])
    def test_integer_subset_size_in_range_accepted(self, k):
        dist = permutation_distribution(_SubsetRows(k), None, 4, PermutationPlan.exact())
        assert dist.replicates.size == math.comb(4, int(k))


class _RecordingStat:
    """Batch evaluator that keeps a copy of every row it is handed."""

    def __init__(self):
        self.chunks = []

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

    def test_batch_failure_reports_the_chunks_first_replicate(self):
        n = 5000
        chunk_rows = BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))
        calls = []

        def bad(data, rows):
            calls.append(rows.shape[0])  # the identity, then chunks 0 and 1
            if len(calls) == 3:
                raise RuntimeError("boom")
            return np.zeros(rows.shape[0])

        plan = PermutationPlan.monte_carlo(3 * chunk_rows, seed=4)
        failed = f"from replicate {chunk_rows}$"
        with pytest.raises(StatisticEvaluationError, match=failed) as err:
            permutation_distribution(_stat(bad), None, n, plan)
        assert calls == [1, chunk_rows, chunk_rows]
        assert err.value.replicate_index == chunk_rows  # chunk 1's first replicate
        assert isinstance(err.value.__cause__, RuntimeError)


def _count_rows(counts, replicates, seed):
    """The identity row and the replicate rows a Monte Carlo plan hands over for ``counts``."""
    stat = _RecordingStat()
    plan = PermutationPlan.monte_carlo(replicates, seed)
    permutation_distribution(stat, counts, counts.codes.size, plan)
    identity, *stat.chunks = stat.chunks
    return identity, stat.rows


def _contract_count_rows(codes, n1, replicates, seed):
    """Count rows straight from the documented block contract."""
    present, first = np.unique(codes, return_index=True)
    order = present[np.argsort(first)]  # categories by first appearance
    totals = np.bincount(codes)
    rows = np.zeros((replicates, totals.size), dtype=np.int64)
    method = "marginals" if n1 >= 10 * order.size else "count"
    blocks = [
        replicate_rng(seed, k).multivariate_hypergeometric(
            totals[order], n1, size=BLOCK_ROWS, method=method
        )
        for k in range(-(-replicates // BLOCK_ROWS))
    ]
    rows[:, order] = np.concatenate(blocks)[:replicates]
    return rows


# 40 codes over 6 categories, category 3 appearing first and 5 absent from the first group
_CODES = np.array([3, 0, 1, 3, 2, 0, 4, 1, 1, 3] * 3 + [5, 5, 2, 0, 4, 4, 1, 2, 3, 0])


class TestCountRows:
    """``GroupCounts`` data: rows are the first group's count vectors, drawn directly."""

    def test_identity_row_is_the_first_groups_counts(self):
        identity, _ = _count_rows(GroupCounts(_CODES, 17), 10, seed=1)
        assert identity.tolist() == [np.bincount(_CODES[:17], minlength=6).tolist()]

    # 17 draws over 6 categories use "count", 27 over 2 use "marginals"
    @pytest.mark.parametrize("codes, n1", [(_CODES, 17), (_CODES % 2, 27)], ids=["count", "marginals"])
    def test_rows_follow_block_contract(self, codes, n1):
        _, rows = _count_rows(GroupCounts(codes, n1), 2 * BLOCK_ROWS + 3, seed=5)
        assert np.array_equal(rows, _contract_count_rows(codes, n1, 2 * BLOCK_ROWS + 3, 5))

    def test_prefix_stable(self):
        _, short = _count_rows(GroupCounts(_CODES, 17), 100, seed=21)
        _, long = _count_rows(GroupCounts(_CODES, 17), 300, seed=21)
        assert np.array_equal(short, long[:100])

    @pytest.mark.parametrize("budget", [6 * BLOCK_ROWS, 1])
    def test_chunk_size_changes_no_row(self, budget, monkeypatch):
        counts = GroupCounts(_CODES, 17)
        _, whole = _count_rows(counts, 1000, seed=9)
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", budget)  # one block per chunk
        stat = _RecordingStat()
        permutation_distribution(stat, counts, _CODES.size, PermutationPlan.monte_carlo(1000, 9))
        assert len(stat.chunks) == 1 + -(-1000 // BLOCK_ROWS)
        assert np.array_equal(np.concatenate(stat.chunks[1:]), whole)

    def test_rows_sum_to_n1_within_the_totals(self):
        _, rows = _count_rows(GroupCounts(_CODES, 17), 500, seed=3)
        assert rows.shape == (500, 6)
        assert (rows.sum(axis=1) == 17).all()
        assert ((rows >= 0) & (rows <= np.bincount(_CODES))).all()

    def test_renaming_categories_renames_the_counts(self):
        rename = np.array([4, 2, 5, 0, 1, 3])
        _, rows = _count_rows(GroupCounts(_CODES, 17), 200, seed=6)
        _, renamed = _count_rows(GroupCounts(rename[_CODES], 17), 200, seed=6)
        assert np.array_equal(renamed[:, rename], rows)

    # 4 draws over 3 categories use "count"; 20 over 2 (24 points) use "marginals"
    @pytest.mark.parametrize(
        "codes, n1",
        [(np.array([0, 1, 2, 0, 1, 2, 0, 1, 0]), 4), (np.arange(24) % 3 % 2, 20)],
        ids=["count", "marginals"],
    )
    def test_law_matches_subset_enumeration(self, codes, n1):
        # chi-square goodness of fit of the drawn c1 against the law of c1
        # over all C(n, n1) subsets, the rows an exact plan enumerates
        exact = GroupCounts(codes, n1).of_rows(
            np.array(list(itertools.combinations(range(codes.size), n1)))
        )
        support, want = np.unique(exact, axis=0, return_counts=True)
        replicates = 20000
        _, rows = _count_rows(GroupCounts(codes, n1), replicates, seed=17)
        index = {tuple(c): i for i, c in enumerate(support.tolist())}
        got = np.bincount([index[tuple(r)] for r in rows.tolist()], minlength=len(support))
        expected = replicates * want / want.sum()
        chi2 = float(((got - expected) ** 2 / expected).sum())
        assert chi2 < sps.chi2.ppf(0.999, df=len(support) - 1)

    @pytest.mark.parametrize("data", [None, _CODES], ids=["None", "codes"])
    def test_other_data_gets_index_rows(self, data):
        stat = _RecordingStat()
        permutation_distribution(stat, data, 40, PermutationPlan.monte_carlo(70, 4))
        rows = stat.rows
        assert rows.shape == (71, 40)
        assert np.array_equal(rows[1:], _contract_rows(40, 70, 4))

    @pytest.mark.parametrize("k", [None, 3], ids=["undeclared", "declared"])
    def test_exact_rows_are_the_enumerated_subsets_counted(self, k):
        codes = np.array([2, 0, 1, 1, 0, 2, 2])
        stat = _RecordingStat()
        stat.subset_size = k
        dist = permutation_distribution(stat, GroupCounts(codes, 3), 7, PermutationPlan.exact())
        ((_, enumerated),) = perm_core._enumeration_chunks(7, 5040, 3)
        assert stat.rows.shape == (35, 3)
        assert np.array_equal(stat.rows, GroupCounts(codes, 3).of_rows(enumerated))
        assert dist.multiplicity == math.factorial(3) * math.factorial(4)

    @pytest.mark.parametrize("n", [8, 12])
    def test_undeclared_counts_decide_as_the_enumerated_relabelings(self, n):
        # 12! index rows exceed the enumeration limit; C(12, 6) = 924 count rows do not
        codes, half = np.random.default_rng(8).permutation(np.arange(n) % 4), n // 2
        counted = _stat(lambda c, rows: ustats.multinomial_two_sample_u_counts(c.totals, half, rows))
        dist = permutation_distribution(counted, GroupCounts(codes, half), n, PermutationPlan.exact())
        assert len(dist.replicates) == math.comb(n, half)
        assert dist.size == math.factorial(n)
        if n == 8:  # every relabeling on index rows
            indexed = _stat(lambda c, rows: ustats.multinomial_two_sample_u_many(c, 4, 4, rows))
            full = permutation_distribution(indexed, codes, 8, PermutationPlan.exact())
            assert len(full.replicates) == full.size == math.factorial(8)
            assert p_value(dist) == p_value(full)
            assert critical_value(dist, 0.1) == critical_value(full, 0.1)

    @pytest.mark.parametrize(
        "codes, n1, match",
        [
            (np.array([0.0, 1.0, 1.0]), 1, "integer"),
            (np.array([[0, 1], [1, 0]]), 1, "1-D"),
            (np.array([0, -1, 1]), 1, "negative"),
            (np.array([0, 1, 1]), 0, "n1"),
            (np.array([0, 1, 1]), 4, "n1"),
            (np.array([0, 1, 1]), 1.0, "n1"),
        ],
    )
    def test_bad_record_refused(self, codes, n1, match):
        with pytest.raises(ValueError, match=match):
            GroupCounts(codes, n1)

    def test_mismatched_n_or_subset_size_refused(self):
        counts = GroupCounts(_CODES, 17)
        with pytest.raises(ValueError, match="not n = 39"):
            permutation_distribution(_RecordingStat(), counts, 39, PermutationPlan.exact())
        with pytest.raises(ValueError, match="subset_size 3"):
            permutation_distribution(_SubsetRows(3), GroupCounts(_CODES[:8], 4), 8,
                                     PermutationPlan.exact())


def test_absent_categories_count_zero_in_every_chunk(monkeypatch):
    # categories 1 and 6 never occur; the chunks of one block each share one buffer
    codes = np.array([0, 2, 3, 4, 5, 7])[_CODES]
    counts = GroupCounts(codes, 17)
    assert np.flatnonzero(counts.totals == 0).tolist() == [1, 6]
    monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", 1)
    stat = _RecordingStat()
    permutation_distribution(stat, counts, codes.size, PermutationPlan.monte_carlo(300, 2))
    assert len(stat.chunks) == 1 + -(-300 // BLOCK_ROWS)
    assert np.array_equal(np.concatenate(stat.chunks[1:]), _contract_count_rows(codes, 17, 300, 2))


class _CountingThread(threading.Thread):
    """``threading.Thread`` that counts the threads started through it."""

    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def _all_rows(data, n, replicates, seed):
    """Every row a Monte Carlo plan hands to ``evaluate_many``, the identity first."""
    stat = _RecordingStat()
    permutation_distribution(stat, data, n, PermutationPlan.monte_carlo(replicates, seed))
    return stat.rows


# 40 index entries or 40 count categories a row: 4095 replicates (64 blocks)
# cross the real threshold, 1000 (16 blocks) do not
_WIDTH = 40
_THREAD_CASES = {
    "index": (None, _WIDTH),
    "counts": (GroupCounts(np.arange(800) % _WIDTH, 400), 800),
}


class TestThreadedDraws:
    """A helper thread shares a chunk's blocks; the rows stay those of a serial draw."""

    @pytest.mark.parametrize("threshold", ["real", "zero"])
    @pytest.mark.parametrize("replicates", [1, 63, 64, 65, 1000, 4095])
    @pytest.mark.parametrize("kind", list(_THREAD_CASES))
    def test_threaded_rows_equal_serial_rows(self, kind, replicates, threshold, monkeypatch):
        data, n = _THREAD_CASES[kind]
        if threshold == "zero":
            monkeypatch.setattr(perm_core, "_THREAD_ENTRIES", 0)
        monkeypatch.setattr(threading, "Thread", _CountingThread)
        monkeypatch.setattr(_CountingThread, "started", 0)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 1)
        serial = _all_rows(data, n, replicates, seed=13)
        assert _CountingThread.started == 0
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        threaded = _all_rows(data, n, replicates, seed=13)
        blocks = -(-replicates // BLOCK_ROWS)
        entries = blocks * BLOCK_ROWS * _WIDTH
        assert _CountingThread.started == (blocks > 1 and entries >= perm_core._THREAD_ENTRIES)
        assert serial.dtype == threaded.dtype and np.array_equal(serial, threaded)

    @pytest.mark.parametrize("kind", list(_THREAD_CASES))
    def test_short_switch_interval_changes_no_row(self, kind, monkeypatch):
        data, n = _THREAD_CASES[kind]
        monkeypatch.setattr(perm_core, "_THREAD_ENTRIES", 0)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 1)
        serial = _all_rows(data, n, 4095, seed=14)
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = [_all_rows(data, n, 4095, seed=14) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(serial, rows) for rows in threaded)

    def test_helper_failure_propagates_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        caller = threading.current_thread()
        helper_drew = threading.Event()
        rng = perm_core.replicate_rng

        def failing_in_helper(seed, k):
            if threading.current_thread() is caller:
                assert helper_drew.wait(10)  # the helper takes a block while the caller waits
                return rng(seed, k)
            helper_drew.set()
            raise KeyError(k)

        monkeypatch.setattr(perm_core, "replicate_rng", failing_in_helper)
        before = threading.active_count()
        for data, n in _THREAD_CASES.values():
            helper_drew.clear()
            with pytest.raises(KeyError):
                permutation_distribution(_RecordingStat(), data, n, PermutationPlan.monte_carlo(4095, 2))
            assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_failure_stops_both_threads_taking_blocks(self, failing, monkeypatch):
        monkeypatch.setattr(perm_core, "_usable_cpus", lambda: 2)
        caller = threading.current_thread()
        both_drawing = threading.Event()
        taken = []
        count = 200

        def task(j):
            taken.append(j)
            here = "caller" if threading.current_thread() is caller else "helper"
            if here == "helper":
                both_drawing.set()
            else:
                assert both_drawing.wait(10)
            if here == failing:
                raise KeyError(j)
            time.sleep(0.001)  # all 200 blocks take 0.2 s if the failure is ignored

        before = threading.active_count()
        with pytest.raises(KeyError):
            perm_core._draw_blocks(task, count, perm_core._THREAD_ENTRIES)
        assert threading.active_count() == before
        assert len(taken) < count

    def test_importing_permkit_starts_no_thread(self):
        code = ("import sys, threading; import permkit; "
                "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
        src = str(Path(perm_core.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1", "False"]


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


class _SubsetRows:
    """Declares ``subset_size = k``; its value encodes the set ``perm[:k]`` exactly.

    Records every row it is handed.
    """

    def __init__(self, k):
        self.subset_size = k
        self.rows = []

    def evaluate_many(self, data, perms):
        self.rows.append(perms.copy())
        return (2.0 ** perms[:, : self.subset_size]).sum(axis=1)


class TestSubsetEnumeration:
    @pytest.mark.parametrize("n, k", [(1, 0), (1, 1), (4, 2), (5, 1), (6, 6), (9, 4)])
    def test_rows_are_subsets_then_complements(self, n, k):
        stat = _SubsetRows(k)
        dist = permutation_distribution(stat, None, n, PermutationPlan.exact())
        rows = np.concatenate(stat.rows)
        subsets = list(itertools.combinations(range(n), k))
        assert rows[:, :k].tolist() == [list(c) for c in subsets]  # lexicographic
        assert rows[:, k:].tolist() == [sorted(set(range(n)) - set(c)) for c in subsets]
        assert rows[0].tolist() == list(range(n))
        assert dist.replicates.size == math.comb(n, k)
        assert dist.multiplicity == math.factorial(k) * math.factorial(n - k)
        assert dist.size == math.factorial(n)

    def test_chunking_leaves_rows_unchanged(self, monkeypatch):
        n, k = 10, 5  # past the enumeration cache, so built chunk by chunk
        one = _SubsetRows(k)
        permutation_distribution(one, None, n, PermutationPlan.exact())
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", 1)  # one block of 64 rows per chunk
        many = _SubsetRows(k)
        permutation_distribution(many, None, n, PermutationPlan.exact())
        assert len(one.rows) == 1 and len(many.rows) == 4  # C(10, 5) = 252 rows
        assert np.concatenate(many.rows).tobytes() == one.rows[0].tobytes()

    @pytest.mark.parametrize("n, k", [(5, 2), (7, 3), (8, 4)])
    def test_same_decision_as_all_permutations(self, n, k):
        # integers, so summing a subset in any order gives the same float
        data = np.random.default_rng(n).integers(-50, 50, n).astype(float)
        subsets = permutation_distribution(_SubsetSum(k), data, n, PermutationPlan.exact())
        full = permutation_distribution(_SumOf(k), data, n, PermutationPlan.exact())
        assert subsets.replicates.size == math.comb(n, k) and full.replicates.size == full.size
        assert subsets.size == full.size
        assert subsets.observed.hex() == full.observed.hex()
        assert np.repeat(subsets.replicates, subsets.multiplicity).tobytes() == (
            full.replicates.tobytes()
        )
        assert p_value(subsets).hex() == p_value(full).hex()
        for alpha in np.linspace(0.001, 0.999, 211):
            assert critical_value(subsets, alpha) == critical_value(full, alpha), alpha
        outcomes = (run_test(stat, data, n, PermutationPlan.exact(), 0.1)
                    for stat in (_SubsetSum(k), _SumOf(k)))
        assert len({dataclasses.astuple(o) for o in outcomes}) == 1

    @given(
        st.lists(st.integers(0, 6), min_size=1, max_size=30),
        st.integers(1, 30),
        st.floats(0.001, 0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicity_is_an_expanded_pool(self, values, multiplicity, alpha):
        reps = np.sort(np.asarray(values, float))
        plan = PermutationPlan.exact()
        for observed in (reps[0], reps[-1]):
            packed = PermutationDistribution(observed, reps, plan, multiplicity)
            expanded = PermutationDistribution(observed, np.repeat(reps, multiplicity), plan)
            assert packed.size == expanded.size
            assert critical_value(packed, alpha) == critical_value(expanded, alpha)
            assert p_value(packed) == p_value(expanded)

    @pytest.mark.parametrize("multiplicity", [0, -2, 1.5, True, "2", None])
    def test_multiplicity_must_be_a_positive_integer(self, multiplicity):
        with pytest.raises(ValueError, match="multiplicity"):
            PermutationDistribution(0.0, np.zeros(3), PermutationPlan.exact(), multiplicity)

    @pytest.mark.parametrize("n, k, alpha", [(23, 4, 0.2), (25, 2, 0.05), (171, 2, 0.2)])
    def test_critical_value_far_past_float_precision(self, n, k, alpha):
        # n! is far beyond 2^53 (171! beyond the float range) and C(n, k) (1 -
        # alpha) is an integer: the rank must be the exact subset order
        # statistic, every subset value being distinct
        dist = permutation_distribution(_SubsetRows(k), None, n, PermutationPlan.exact())
        assert dist.size == math.factorial(n)
        rank = math.ceil(math.comb(n, k) * (1 - Fraction(str(alpha))))
        assert critical_value(dist, alpha) == dist.replicates[rank - 1] > dist.replicates[rank - 2]

    def test_limit_counts_the_subsets(self):
        # C(14, 7) = 3432 rows stand for 14! relabelings, far past the 10! limit
        dist = permutation_distribution(_SubsetSum(7), np.arange(14.0), 14, PermutationPlan.exact())
        assert dist.replicates.size == 3432 and dist.size == math.factorial(14)
        assert math.comb(24, 12) <= perm_core.ENUMERATION_LIMIT < math.comb(25, 12)
        with pytest.raises(ValueError, match=r"C\(25, 12\) = 5200300 subsets exceeds"):
            permutation_distribution(_SubsetSum(12), None, 25, PermutationPlan.exact())
        with pytest.raises(ValueError, match="11! = 39916800 permutations exceeds"):
            permutation_distribution(_SumOf(7), None, 11, PermutationPlan.exact())

    def test_monte_carlo_plan_ignores_the_declaration(self):
        data = np.random.default_rng(3).normal(size=12)
        plan = PermutationPlan.monte_carlo(99, 4)
        subsets = permutation_distribution(_SubsetSum(5), data, 12, plan)
        _assert_same_distribution(subsets, permutation_distribution(_SumOf(5), data, 12, plan))
        assert subsets.multiplicity == 1 and subsets.size == 100

    def test_stacked_columns_share_the_multiplicity(self):
        n, k = 8, 3
        data = np.random.default_rng(2).integers(-50, 50, n).astype(float)
        stacked = _Stacked(_SumOf(k), _SumOf(k, power=2))
        stacked.subset_size = k
        dist = permutation_distribution(stacked, data, n, PermutationPlan.exact())
        assert dist.replicates.shape == (math.comb(n, k), 2)
        for j, power in enumerate((1, 2)):
            own = permutation_distribution(_SubsetSum(k, power), data, n, PermutationPlan.exact())
            _assert_same_distribution(dist, own, column=j)
            assert dist.multiplicity == own.multiplicity == 3 * 2 * 5 * 4 * 3 * 2


class TestNonFiniteStatistic:
    def test_non_finite_observed(self):
        plan = PermutationPlan.monte_carlo(9, 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(StatisticEvaluationError) as err:
                permutation_distribution(_constant(bad), None, 4, plan)
            assert err.value.replicate_index == -1

    def test_non_finite_replicate_reports_index(self):
        class NanAt:
            def evaluate_many(self, d, perms):
                out = np.zeros(perms.shape[0])
                if perms.shape[0] > 30:  # the one-row identity batch stays finite
                    out[30] = np.nan
                return out

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(NanAt(), None, 5, PermutationPlan.monte_carlo(99, 1))
        assert err.value.replicate_index == 30

    def test_non_finite_exact_replicate(self):
        def stat(d, rows):
            return np.where(rows[:, 0] == 2, -math.inf, rows[:, 0])

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(_stat(stat), None, 3, PermutationPlan.exact())
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

        with pytest.raises(StatisticEvaluationError) as err:
            permutation_distribution(BatchStat(), None, 3, PermutationPlan.exact())
        assert err.value.replicate_index == -1


class _SumOf:
    """Batch evaluator: sum of the data at the first ``k`` relabeled positions."""

    def __init__(self, k, power=1, scale=1.0):
        self.k = k
        self.power = power
        self.scale = scale

    def evaluate_many(self, data, perms):
        return (data[perms[:, : self.k]] ** self.power).sum(axis=1) * self.scale


class _SubsetSum(_SumOf):
    """``_SumOf`` declaring that it reads only ``perm[:k]``."""

    @property
    def subset_size(self):
        return self.k


class _Stacked:
    """Column j is ``stats[j]``'s value on the same rows."""

    def __init__(self, *stats):
        self.stats = stats
        self.batches = 0

    def evaluate_many(self, data, perms):
        self.batches += 1
        return np.stack([s.evaluate_many(data, perms) for s in self.stats], axis=1)


def _assert_same_distribution(got, want, column=None):
    """``got`` is ``want`` bit for bit; with ``column`` j, stacked ``got``'s column j is."""
    observed, replicates, tol = got.observed, got.replicates, got.tie_tolerance
    if column is not None:
        observed, replicates, tol = observed[column], replicates[:, column], tol[column]
    assert float(observed).hex() == want.observed.hex()
    assert replicates.tobytes() == want.replicates.tobytes()
    assert float(tol).hex() == want.tie_tolerance.hex()
    assert (got.plan, got.multiplicity, got.size) == (want.plan, want.multiplicity, want.size)


def _outcome_bits(outcome):
    """An outcome's fields, each float as its type and bits."""
    fields = dataclasses.astuple(outcome)
    return tuple((type(v), v.hex()) if isinstance(v, float) else v for v in fields)


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
        dist = permutation_distribution(stacked, data, n, plan)
        assert stacked.batches >= 1 + 3  # the identity row, then three chunks
        assert dist.replicates.shape == (plan.replicates + 1, len(self.STATS))
        for j, stat in enumerate(self.STATS):
            own = permutation_distribution(stat, data, n, plan)
            _assert_same_distribution(dist, own, column=j)

    def test_exact_columns_equal_their_own_distributions(self, monkeypatch):
        n = 7
        monkeypatch.setattr(perm_core, "CHUNK_ENTRIES", math.factorial(n) * n // 3 - 1)
        data = np.random.default_rng(1).normal(size=n)
        stacked = _Stacked(*self.STATS)
        dist = permutation_distribution(stacked, data, n, PermutationPlan.exact())
        assert stacked.batches >= 3
        assert dist.replicates.shape == (math.factorial(n), len(self.STATS))
        for j, stat in enumerate(self.STATS):
            own = permutation_distribution(stat, data, n, PermutationPlan.exact())
            _assert_same_distribution(dist, own, column=j)

    @pytest.mark.parametrize("plan", [PermutationPlan.monte_carlo(99, 3), PermutationPlan.exact()])
    def test_run_test_decides_each_column(self, plan):
        rng = np.random.default_rng(2)
        normal, binary = rng.normal(size=6), rng.integers(0, 2, 6).astype(float)
        # sums cluster within 1e-6 of integers: distinct at their own scale,
        # but ties under the tolerance of a column 10^9 times larger
        near_ties = binary + 1e-7 * rng.normal(size=6)
        cases = [
            (self.STATS, normal, None),
            # tie-heavy: sums of 0/1 data take a handful of values
            ((_SumOf(3), _SumOf(2), _SumOf(4, power=2)), binary, None),
            # an all-zero column (signed zeros), whose tolerance is 0, beside nonzero ones
            ((_SumOf(3), _SumOf(3, scale=0.0), _SumOf(2, power=3)), normal, None),
            # scales 10^9 apart, and each column's tolerance follows its own
            ((_SumOf(3), _SumOf(3, scale=1e9), _SumOf(2, scale=1e9)), near_ties, None),
            # subsets of 3 standing for 3! 3! relabelings each under an exact plan
            ((_SubsetSum(3), _SubsetSum(3, power=2), _SubsetSum(3, scale=1e9)), binary, 3),
        ]
        for stats, data, subset_size in cases:
            stacked = _Stacked(*stats)
            if subset_size is not None:
                stacked.subset_size = subset_size
            outcomes = run_test(stacked, data, 6, plan, 0.1)
            own = [run_test(s, data, 6, plan, 0.1) for s in stats]
            assert [_outcome_bits(o) for o in outcomes] == [_outcome_bits(o) for o in own]
        if plan.mode == "exact":  # the last case enumerated C(6, 3) subsets
            assert permutation_distribution(stacked, data, 6, plan).multiplicity == 36

    def test_run_test_decides_through_the_module_functions_once(self, monkeypatch):
        # perfbench times the decision by wrapping these module globals
        calls = []
        for name in ("critical_value", "p_value"):
            def counted(*args, _decide=getattr(perm_core, name), _name=name):
                calls.append(_name)
                return _decide(*args)

            monkeypatch.setattr(perm_core, name, counted)
        data = np.random.default_rng(2).normal(size=6)
        outcomes = run_test(_Stacked(*self.STATS), data, 6, PermutationPlan.monte_carlo(99, 3), 0.1)
        assert len(outcomes) == len(self.STATS)
        assert sorted(calls) == ["critical_value", "p_value"]

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
        dist = permutation_distribution(_SumOf(1), data, 2, PermutationPlan.exact())
        assert dist.observed == 1.0
        assert p_value(dist) == 0.5

    def test_identity_not_double_counted(self):
        plan = PermutationPlan.monte_carlo(4, seed=0)
        # pool: 4 sampled below observed + the identity
        dist = _dist([1, 2, 3, 4, 10.0], observed=10.0, plan=plan)
        assert p_value(dist) == pytest.approx(1 / 5)

    def test_in_unit_interval(self):
        plan = PermutationPlan.monte_carlo(9, seed=1)
        dist = permutation_distribution(_FIRST, None, 5, plan)
        assert 0.0 < p_value(dist) <= 1.0


class TestTieScale:
    @given(st.integers(-20, 20))
    @settings(max_examples=41, deadline=None)
    def test_p_invariant_to_statistic_units(self, k):
        data = np.array([1.0] * 10 + [0.0] * 10)
        plan = PermutationPlan.monte_carlo(199, seed=5)

        def p_at(scale):
            return p_value(permutation_distribution(_SumOf(10, scale=scale), data, 20, plan))

        assert p_at(10.0**k) == p_at(1.0)

    def test_all_zero_values_use_plain_equality(self):
        dist = _dist([0.0, 0.0, 0.0], observed=0.0)
        assert dist.tie_tolerance == 0.0
        assert p_value(dist) == 1.0


class TestRunTest:
    def test_unreachable_level_warns(self):
        plan = PermutationPlan.monte_carlo(19, seed=0)
        with pytest.warns(RuntimeWarning, match="never reject"):
            run_test(_FIRST, None, 4, plan, 0.01)

    def test_level_zero_raises_before_the_warning(self):
        plan = PermutationPlan.monte_carlo(19, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="alpha"):
                run_test(_FIRST, None, 4, plan, 0.0)

    def test_constant_never_rejects(self):
        for alpha in (0.05, 0.5, 0.9):
            out = run_test(_constant(1.0), None, 4, PermutationPlan.exact(), alpha)
            assert not out.reject

    def test_reject_iff_above_critical(self):
        data = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
        out = run_test(_SumOf(1), data, 5, PermutationPlan.exact(), 0.05)
        # observed 5 sits above the 0.95 quantile of {5 w.p. 1/5, 0 w.p. 4/5}... not quite:
        # F(0) = 4/5 < 0.95 so critical value is 5 and the test must NOT reject.
        assert out.critical_value == 5.0
        assert not out.reject
        out2 = run_test(_SumOf(1), data, 5, PermutationPlan.exact(), 0.25)
        assert out2.critical_value == 0.0
        assert out2.reject

    # B = 100 and 200 make B(1 - alpha) an integer for every alpha below;
    # n = 6 gives 20 distinct values (many ties), n = 12 gives 924.  The
    # reported critical value must agree with the decision: the observed
    # statistic exceeds it, beyond the tie tolerance, exactly when p <= alpha.
    def test_p_le_alpha_implies_reject(self):
        for n in (6, 12):
            rng = np.random.default_rng(5)
            data = rng.normal(size=n)
            stat = _SumOf(n // 2)
            for replicates in (37, 100, 200):
                for alpha in (0.05, 0.1, 0.3, 0.6):
                    for seed in range(20):
                        plan = PermutationPlan.monte_carlo(replicates, seed=seed)
                        out = run_test(stat, data, n, plan, alpha)
                        assert out.reject == (out.p_value <= alpha), (n, replicates)
                        dist = permutation_distribution(stat, data, n, plan)
                        above = dist.observed > critical_value(dist, alpha) + dist.tie_tolerance
                        assert above == out.reject, (n, replicates, alpha, seed)


class TestLevelProperties:
    def test_exact_level_small_n(self):
        # exchangeable null (iid normals), exact plan: P(reject) <= alpha
        rng = np.random.default_rng(7)
        trials = 2000
        alpha = 0.1
        plan = PermutationPlan.exact()
        stat = _stat(lambda d, rows: d[rows[:, 0]] - d[rows[:, 1]])
        rejects = 0
        for _ in range(trials):
            data = rng.normal(size=5)
            out = run_test(stat, data, 5, plan, alpha)
            rejects += out.reject
        se = math.sqrt(alpha * (1 - alpha) / trials)
        assert rejects / trials <= alpha + 3 * se

    def test_p_super_uniform(self):
        rng = np.random.default_rng(8)
        trials = 3000
        plan = PermutationPlan.exact()
        stat = _stat(lambda d, rows: d[rows[:, 0]] * 2 + d[rows[:, 1]])
        pvals = np.empty(trials)
        for t in range(trials):
            data = rng.normal(size=5)
            dist = permutation_distribution(stat, data, 5, plan)
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
            permutation_distribution(_constant(0.0), None, 11, PermutationPlan.exact())

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

    @pytest.mark.parametrize("seed", [1.5, 3.0, True, np.True_, "3", None, -1, 2**64, np.int64(-2)])
    def test_monte_carlo_seed_must_be_a_64_bit_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            PermutationPlan.monte_carlo(99, seed)

    @pytest.mark.parametrize(
        "replicates, seed",
        [(49, 0), (np.int64(49), 1), (49, np.uint64(3)), (np.int32(7), np.int64(5)),
         (49, 2**64 - 1), (49, np.uint64(2**64 - 1))],
    )
    def test_monte_carlo_plan_stores_python_ints(self, replicates, seed):
        plan = PermutationPlan.monte_carlo(replicates, seed)
        assert type(plan.replicates) is int and plan.replicates == replicates
        assert type(plan.seed) is int and plan.seed == seed

    @pytest.mark.parametrize("replicates, seed", [(np.int64(49), 1), (49, np.uint64(3))])
    def test_numpy_integer_plan_record_round_trips_through_json(self, replicates, seed):
        plan = PermutationPlan.monte_carlo(replicates, seed)
        outcome = run_test(_FIRST, None, 5, plan, 0.1)
        record = json.loads(write_outcome_json(outcome_record("plan", outcome)))
        assert record["B"] == 49 and record["seed"] == int(seed)
        assert record["reject"] is outcome.reject and record["p_value"] == outcome.p_value

    def test_plan_has_only_mode_replicates_and_seed(self):
        names = [f.name for f in dataclasses.fields(PermutationPlan)]
        assert names == ["mode", "replicates", "seed"]
