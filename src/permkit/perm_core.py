"""Permutation calibration core: replicate generation, critical values, p-values.

A permutation test compares an observed statistic against the multiset of
statistic values obtained by relabeling the data.  This module owns that
machinery and nothing else: drawing or enumerating permutations, evaluating a
statistic evaluator under each relabeling, and turning the resulting replicate
multiset into a critical value, a p-value and an accept/reject decision.

Conventions
-----------
* Permutations are 0-based index arrays of length ``n`` (bijections on
  ``range(n)``).
* Monte Carlo replicates come in blocks of ``BLOCK_ROWS`` (64) rows.  Block
  ``k`` starts as 64 copies of ``arange(n)`` and is shuffled in place, row
  by row, by ``replicate_rng(seed, k).permuted(block, axis=1, out=block)``:
  each row is an independent Fisher-Yates shuffle, drawn in row order from
  the block's stream.  Replicate ``i`` is row ``i % 64`` of block
  ``i // 64``, a function of ``(seed, i)`` alone, so a plan with fewer
  replicates is a prefix of one with more, and neither the chunk size nor
  the worker count changes any row.
* Monte Carlo rows are generated and evaluated one chunk at a time: a chunk
  is a whole number of blocks holding about ``CHUNK_ENTRIES`` (2^20) index
  entries, so peak index memory is O(chunk * n), not O(B * n).
* The Monte Carlo p-value is ``(1 + #{sampled replicates >= observed}) /
  (B + 1)``, which is valid in finite samples.  With
  ``include_identity=True`` (the default) the identity relabeling's value is
  also appended to the replicate pool used for the critical value.
* The test is the conservative, non-randomized one: reject iff the observed
  statistic strictly exceeds the critical value.
* Tie comparisons use a relative float tolerance: ``TIE_REL`` times the
  largest absolute value among the observed statistic and the replicates,
  and plain equality when all of them are 0.  Many statistics take exactly
  equal values on symmetric relabelings and the level guarantee counts
  those as ties; rounding noise from different summation orders must not
  split them, or the test turns anti-conservative.  The tolerance has no
  absolute floor, so the decision does not depend on the units of the
  statistic.
* A statistic value that is not finite (NaN or infinite) raises
  :class:`StatisticEvaluationError`; it is never ranked.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "DEFAULT_ENUMERATION_LIMIT",
    "PermutationPlan",
    "PermutationDistribution",
    "TestOutcome",
    "StatisticEvaluationError",
    "split_seed",
    "replicate_rng",
    "sample_permutation",
    "enumerate_permutations",
    "permutation_distribution",
    "critical_value",
    "p_value",
    "run_test",
]

DEFAULT_ENUMERATION_LIMIT = math.factorial(10)

# relative scale for treating replicate-vs-observed comparisons as ties
TIE_REL = 1e-12

# Monte Carlo rows drawn from one block stream; part of the stream contract
BLOCK_ROWS = 64
# index entries generated and evaluated at a time (rounded to whole blocks)
CHUNK_ENTRIES = 1 << 20

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def split_seed(master_seed: int, index: int) -> int:
    """Derive the 64-bit seed for replicate ``index`` from ``master_seed``.

    SplitMix64 finalizer applied to ``master_seed + (index + 1) * gamma``
    with the usual golden-ratio gamma.  Documented so that independent
    implementations (or a parallel scheduler) can reproduce the exact
    per-replicate streams.
    """
    z = (master_seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_rng(master_seed: int, index: int) -> np.random.Generator:
    """RNG stream for replicate ``index`` under ``master_seed``."""
    return np.random.Generator(np.random.PCG64(split_seed(master_seed, index)))


class StatisticEvaluationError(RuntimeError):
    """A statistic evaluator raised while processing one relabeling.

    Also raised when the evaluator returns a value that is not finite.
    ``replicate_index`` is the 0-based replicate number; -1 marks the
    observed (identity) evaluation and -2 an exception inside a batched
    evaluation, where no single index exists.  The original exception, if
    any, is chained as ``__cause__``.
    """

    def __init__(self, replicate_index: int, message: str = "") -> None:
        self.replicate_index = replicate_index
        super().__init__(
            message or f"statistic evaluator failed at replicate {replicate_index}"
        )


@dataclass(frozen=True)
class PermutationPlan:
    """How to build the permutation distribution.

    ``mode`` is ``"exact"`` (full enumeration of all n! relabelings, only
    allowed when n! does not exceed ``enumeration_limit``) or
    ``"monte_carlo"`` (``replicates`` uniform draws seeded by ``seed``).
    """

    mode: str
    replicates: int | None = None
    seed: int = 0
    include_identity: bool = True
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown plan mode: {self.mode!r}")
        if self.mode == "monte_carlo":
            if self.replicates is None or self.replicates < 1:
                raise ValueError("monte_carlo mode requires replicates >= 1")
            if not 0 <= int(self.seed) <= _MASK64:
                raise ValueError("seed must fit in 64 unsigned bits")
        if self.enumeration_limit < 1:
            raise ValueError("enumeration_limit must be positive")

    @classmethod
    def exact(cls, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT) -> "PermutationPlan":
        return cls(mode="exact", enumeration_limit=enumeration_limit)

    @classmethod
    def monte_carlo(
        cls, replicates: int, seed: int, include_identity: bool = True
    ) -> "PermutationPlan":
        return cls(
            mode="monte_carlo",
            replicates=replicates,
            seed=seed,
            include_identity=include_identity,
        )

    def reseeded(self, seed: int) -> "PermutationPlan":
        """Copy of this plan with a different master seed."""
        return replace(self, seed=seed)


@dataclass(frozen=True)
class PermutationDistribution:
    """Observed statistic plus the sorted multiset of permuted replicates."""

    observed: float
    replicates: np.ndarray  # sorted, non-decreasing
    plan: PermutationPlan
    n: int

    def __post_init__(self) -> None:
        if self.replicates.size < 1:
            raise ValueError("replicate set must be non-empty")
        if np.any(np.diff(self.replicates) < 0):
            raise ValueError("replicates must be sorted non-decreasing")

    @property
    def size(self) -> int:
        return int(self.replicates.size)

    @property
    def tie_tolerance(self) -> float:
        """Absolute slack under which a replicate ties the observed value.

        Relative to the largest absolute value in play, so rescaling the
        statistic rescales the slack; 0 (plain equality) when every value is 0.
        """
        scale = max(abs(self.observed), float(np.abs(self.replicates).max()))
        return TIE_REL * scale


@dataclass(frozen=True)
class TestOutcome:
    """Result of one permutation test run."""

    statistic: float
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    replicate_count: int
    plan: PermutationPlan


def sample_permutation(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random permutation of ``range(n)`` (Fisher-Yates)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.permutation(n)


def enumerate_permutations(
    n: int, enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
) -> Iterator[np.ndarray]:
    """Yield all n! permutations of ``range(n)`` in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = math.factorial(n)
    if total > enumeration_limit:
        raise ValueError(
            f"{n}! = {total} permutations exceeds the enumeration limit "
            f"{enumeration_limit}; use a monte_carlo plan"
        )
    for perm in itertools.permutations(range(n)):
        yield np.array(perm, dtype=np.intp)


def _enumeration_matrix(n: int, enumeration_limit: int) -> np.ndarray:
    """All n! permutations stacked as an (n!, n) index matrix."""
    total = math.factorial(n)
    if total > enumeration_limit:
        raise ValueError(
            f"{n}! = {total} permutations exceeds the enumeration limit "
            f"{enumeration_limit}; use a monte_carlo plan"
        )
    return _cached_enumeration(n)


_ENUM_CACHE: dict[int, np.ndarray] = {}
_ENUM_CACHE_MAX_N = 8  # 8! rows cached at most; larger built on demand


def _cached_enumeration(n: int) -> np.ndarray:
    mat = _ENUM_CACHE.get(n)
    if mat is None:
        mat = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        if n <= _ENUM_CACHE_MAX_N:
            _ENUM_CACHE[n] = mat
    return mat


def _evaluate(
    stat: Callable[[Any, np.ndarray], float],
    data: Any,
    perms: np.ndarray,
    offset: int = 0,
) -> np.ndarray:
    """Evaluate ``stat`` on every row of ``perms``.

    Uses the evaluator's vectorized ``evaluate_many`` when present; otherwise
    calls ``stat`` once per row.  ``offset`` is the replicate index of row 0,
    so failures and non-finite values report their global replicate index.
    """
    many = getattr(stat, "evaluate_many", None)
    if many is not None:
        try:
            values = np.asarray(many(data, perms), dtype=float)
        except Exception as exc:  # noqa: BLE001
            raise StatisticEvaluationError(-2, "batched statistic evaluation failed") from exc
    else:
        values = np.empty(perms.shape[0], dtype=float)
        for i, perm in enumerate(perms):
            try:
                values[i] = stat(data, perm)
            except Exception as exc:  # noqa: BLE001 - annotate with replicate index
                raise StatisticEvaluationError(offset + i) from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        index = offset + int(bad[0])
        raise StatisticEvaluationError(
            index, f"statistic is not finite at replicate {index}: {values[bad[0]]}"
        )
    return values


def _monte_carlo_values(
    stat: Callable[[Any, np.ndarray], float],
    data: Any,
    n: int,
    replicates: int,
    seed: int,
) -> np.ndarray:
    """Statistic values of replicates ``0 .. replicates - 1``, chunk by chunk.

    A chunk is a whole number of blocks, so every block is shuffled in one
    ``permuted`` call from its own stream; rows past ``replicates`` in the
    last block are never drawn.
    """
    chunk = BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))
    values = np.empty(replicates, dtype=float)
    buffer = np.empty((min(chunk, replicates), n), dtype=np.intp)
    for start in range(0, replicates, chunk):
        rows = buffer[: min(chunk, replicates - start)]
        rows[...] = np.arange(n, dtype=np.intp)
        for first in range(0, rows.shape[0], BLOCK_ROWS):
            block = rows[first : first + BLOCK_ROWS]
            k = (start + first) // BLOCK_ROWS
            replicate_rng(seed, k).permuted(block, axis=1, out=block)
        values[start : start + rows.shape[0]] = _evaluate(stat, data, rows, start)
    return values


def permutation_distribution(
    stat: Callable[[Any, np.ndarray], float],
    data: Any,
    n: int,
    plan: PermutationPlan,
) -> PermutationDistribution:
    """Observed statistic plus replicates of ``stat`` under relabelings.

    ``stat(data, perm)`` must be a pure function of its arguments; ``perm``
    is a 0-based index array of length ``n``.  In ``monte_carlo`` mode with
    ``include_identity=True`` the identity permutation's value (equal to the
    observed statistic) is appended to the replicate pool.  Monte Carlo
    replicates are generated and evaluated one chunk of rows at a time.
    Raises :class:`StatisticEvaluationError` if ``stat`` raises or returns a
    value that is not finite.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    identity = np.arange(n, dtype=np.intp)
    try:
        observed = float(stat(data, identity))
    except Exception as exc:  # noqa: BLE001
        raise StatisticEvaluationError(-1, "statistic failed on identity") from exc
    if not math.isfinite(observed):
        raise StatisticEvaluationError(-1, f"observed statistic is not finite: {observed}")

    if plan.mode == "exact":
        perms = _enumeration_matrix(n, plan.enumeration_limit)
        values = _evaluate(stat, data, perms)
        # lexicographic row 0 is the identity; pin it to the observed value so
        # the tie count #{replicates >= observed} always includes it, even
        # when batched and single evaluation differ in the last ulp (level
        # exactness depends on this tie)
        values[0] = observed
    else:
        values = _monte_carlo_values(stat, data, n, int(plan.replicates), int(plan.seed))
        if plan.include_identity:
            values = np.append(values, observed)
    values = np.sort(values)
    return PermutationDistribution(observed=observed, replicates=values, plan=plan, n=n)


def critical_value(dist: PermutationDistribution, alpha: float) -> float:
    """Smallest replicate ``t`` with ``#{replicates <= t} / M >= 1 - alpha``.

    This is the 1 - alpha quantile of the empirical permutation distribution,
    realized as an order statistic of the replicate multiset (ties kept).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    reps = dist.replicates
    m = reps.size
    if m == 0:
        raise ValueError("empty replicate set")
    # k = smallest integer with k/M >= 1 - alpha; tiny slack guards against
    # float round-up on exact multiples like 0.8 * 5.
    k = math.ceil(m * (1.0 - alpha) - 1e-9)
    k = min(max(k, 1), m)
    return float(reps[k - 1])


def p_value(dist: PermutationDistribution) -> float:
    """Finite-sample valid permutation p-value.

    Exact mode: ``#{replicates >= observed} / M``.  Monte Carlo mode:
    ``(1 + #{sampled replicates >= observed}) / (B + 1)`` where the appended
    identity value, if any, is not double counted.  Replicates within the
    tie tolerance of the observed value count as greater-or-equal.
    """
    reps = dist.replicates
    m = reps.size
    if m == 0:
        raise ValueError("empty replicate set")
    cutoff = dist.observed - dist.tie_tolerance
    count_ge = m - int(np.searchsorted(reps, cutoff, side="left"))
    if dist.plan.mode == "exact":
        return count_ge / m
    b = int(dist.plan.replicates)
    if dist.plan.include_identity:
        # pool = B sampled + identity; identity contributes exactly one >=.
        return count_ge / (b + 1)
    return (1 + count_ge) / (b + 1)


def run_test(
    stat: Callable[[Any, np.ndarray], float],
    data: Any,
    n: int,
    plan: PermutationPlan,
    alpha: float,
) -> TestOutcome:
    """Assemble distribution, critical value and p-value into a decision.

    Warns when a Monte Carlo plan cannot reach ``alpha``: the smallest
    attainable p-value is 1/(B+1), so below it the test never rejects.
    """
    if plan.mode == "monte_carlo" and alpha < 1.0 / (plan.replicates + 1):
        warnings.warn(
            f"level {alpha:.4g} is below 1/(B+1) = {1.0 / (plan.replicates + 1):.4g}, "
            "the smallest Monte Carlo p-value; the test can never reject. "
            "Increase the replicate count.",
            RuntimeWarning,
            stacklevel=2,
        )
    dist = permutation_distribution(stat, data, n, plan)
    return outcome_from_distribution(dist, alpha)


def outcome_from_distribution(
    dist: PermutationDistribution, alpha: float
) -> TestOutcome:
    """Decision at level ``alpha`` from an already-built distribution.

    Rejects iff the observed statistic exceeds the critical value by more
    than the tie tolerance, which keeps ``reject`` equivalent to
    ``p_value <= alpha``.
    """
    crit = critical_value(dist, alpha)
    pval = p_value(dist)
    return TestOutcome(
        statistic=dist.observed,
        critical_value=crit,
        p_value=pval,
        reject=bool(dist.observed > crit + dist.tie_tolerance),
        alpha=alpha,
        replicate_count=dist.size,
        plan=dist.plan,
    )
