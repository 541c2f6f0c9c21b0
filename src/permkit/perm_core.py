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
* Exact plans enumerate the n! permutations in lexicographic order, so row
  0 is the identity.  Rows of both modes are generated and evaluated one
  chunk at a time, a whole number of blocks holding about ``CHUNK_ENTRIES``
  (2^20) index entries.  The batch evaluators of ``ustats`` and ``testing``
  slice each chunk by the same budget, so their temporaries (count tables,
  Gram gathers and products) also hold about ``CHUNK_ENTRIES`` entries:
  peak memory follows the budget, not B * n or n! * n.
* Evaluators have one protocol, ``evaluate_many(data, rows)`` on an (m, n)
  matrix of index rows; a plain callable ``stat(data, perm)`` is called once
  per row.  The observed statistic is the identity row's value (exact row
  0, or a one-row batch under a Monte Carlo plan), so it equals its own
  replicate exactly.  An evaluator may stack K statistics, returning (m, K)
  values; each column becomes its own distribution over the same rows.
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
from dataclasses import dataclass
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

    Also raised when the evaluator returns a value that is not finite; for a
    stacked (m, K) evaluator the message names the first such column.
    ``replicate_index`` is the 0-based replicate number of the failing row;
    -1 marks the identity row, whose value is the observed statistic.  When
    an ``evaluate_many`` call raises, no single row is known and the index
    is that of the batch's first row.  The original exception, if any, is
    chained as ``__cause__``.
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
        # compare neighbours: np.diff would allocate a float copy of the replicates
        if np.any(self.replicates[1:] < self.replicates[:-1]):
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
    _enumeration_size(n, enumeration_limit)
    for _, rows in _enumeration_chunks(n, _chunk_rows(n)):
        yield from np.array(rows)


def _enumeration_size(n: int, enumeration_limit: int) -> int:
    """n!, refused when it exceeds ``enumeration_limit``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = math.factorial(n)
    if total > enumeration_limit:
        raise ValueError(
            f"{n}! = {total} permutations exceeds the enumeration limit "
            f"{enumeration_limit}; use a monte_carlo plan"
        )
    return total


_ENUM_CACHE: dict[int, np.ndarray] = {}
_ENUM_CACHE_MAX_N = 8  # 8! rows cached at most; larger built chunk by chunk


def _permutation_rows(perms: Iterator[tuple], rows: int, n: int) -> np.ndarray:
    """The next ``rows`` tuples of ``perms`` as a (rows, n) index matrix."""
    flat = itertools.chain.from_iterable(itertools.islice(perms, rows))
    return np.fromiter(flat, dtype=np.intp, count=rows * n).reshape(rows, n)


def _enumeration_chunks(n: int, chunk: int) -> Iterator[tuple[int, np.ndarray]]:
    """All n! permutations in lexicographic order as ``(start, rows)`` chunks.

    Up to ``_ENUM_CACHE_MAX_N`` the whole matrix is built once, kept read-only
    and sliced; above it each chunk is built from the tuple stream, so only
    one chunk of rows exists at a time.  Row 0 is the identity.
    """
    total = math.factorial(n)
    perms = itertools.permutations(range(n))
    cached = _ENUM_CACHE.get(n)
    if cached is None and n <= _ENUM_CACHE_MAX_N:
        cached = _ENUM_CACHE[n] = _permutation_rows(perms, total, n)
        cached.flags.writeable = False
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        if cached is None:
            yield start, _permutation_rows(perms, rows, n)
        else:
            yield start, cached[start : start + rows]


def _monte_carlo_chunks(
    n: int, replicates: int, seed: int, chunk: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Replicates ``0 .. replicates - 1`` as ``(start, rows)`` chunks.

    A chunk is a whole number of blocks, so every block is shuffled in one
    ``permuted`` call from its own stream; rows past ``replicates`` in the
    last block are never drawn.  The rows share one buffer, overwritten by
    the next chunk.
    """
    buffer = np.empty((min(chunk, replicates), n), dtype=np.intp)
    for start in range(0, replicates, chunk):
        rows = buffer[: min(chunk, replicates - start)]
        rows[...] = np.arange(n, dtype=np.intp)
        for first in range(0, rows.shape[0], BLOCK_ROWS):
            block = rows[first : first + BLOCK_ROWS]
            k = (start + first) // BLOCK_ROWS
            replicate_rng(seed, k).permuted(block, axis=1, out=block)
        yield start, rows


def _chunk_rows(n: int) -> int:
    """Rows per chunk: whole blocks holding about ``CHUNK_ENTRIES`` entries."""
    return BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))


def _evaluate(
    stat: Any, data: Any, rows: np.ndarray, start: int, identity_first: bool
) -> np.ndarray:
    """Values of ``stat`` on the index ``rows``, as finite floats.

    Calls ``stat.evaluate_many(data, rows)``, or a plain ``stat(data, perm)``
    once per row.  Row i is replicate ``start + i``, except that with
    ``identity_first`` row 0 is the identity (observed) row, index -1.  A
    batch evaluator that raises reports the index of row 0.
    """
    many = getattr(stat, "evaluate_many", None)
    if many is None:
        values = np.empty(rows.shape[0], dtype=float)
        for i, perm in enumerate(rows):
            try:
                values[i] = stat(data, perm)
            except Exception as exc:  # noqa: BLE001 - annotate with the replicate index
                raise StatisticEvaluationError(
                    _replicate_index(start, i, identity_first)
                ) from exc
    else:
        try:
            values = np.asarray(many(data, rows), dtype=float)
        except Exception as exc:  # noqa: BLE001 - annotate with the batch's first index
            index = _replicate_index(start, 0, identity_first)
            raise StatisticEvaluationError(
                index, f"batched statistic evaluation failed from replicate {index}"
            ) from exc
    if np.isfinite(values).all():
        return values
    row, column = (int(i) for i in np.argwhere(~np.isfinite(values.reshape(len(values), -1)))[0])
    index = _replicate_index(start, row, identity_first)
    where = f"replicate {index}, column {column}" if values.ndim == 2 else f"replicate {index}"
    raise StatisticEvaluationError(index, f"statistic is not finite at {where}: {values[row]}")


def _replicate_index(start: int, row: int, identity_first: bool) -> int:
    """Replicate index of ``row`` in a batch whose row 0 is replicate ``start``."""
    return -1 if identity_first and row == 0 else start + row


def permutation_distribution(
    stat: Callable[[Any, np.ndarray], float],
    data: Any,
    n: int,
    plan: PermutationPlan,
) -> PermutationDistribution | tuple[PermutationDistribution, ...]:
    """Observed statistic plus replicates of ``stat`` under relabelings.

    ``stat`` is evaluated through its ``evaluate_many(data, rows)``, which
    maps an (m, n) matrix of 0-based index rows to m values; a plain
    callable ``stat(data, perm)`` without it is called once per row.  Either
    must be a pure function of its arguments.  The observed statistic is the
    identity row's value: row 0 of the exact enumeration, or a one-row batch
    under a ``monte_carlo`` plan, which with ``include_identity=True`` also
    appends it to the replicate pool.  Rows are generated and evaluated one
    chunk at a time in both modes.  Raises :class:`StatisticEvaluationError`
    if ``stat`` raises or returns a value that is not finite.
    An ``evaluate_many`` returning (m, K) values stacks K statistics on the
    same rows and gives a tuple of K distributions, one per column.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    exact = plan.mode == "exact"
    if exact:
        total = _enumeration_size(n, plan.enumeration_limit)
        chunks = _enumeration_chunks(n, _chunk_rows(n))
    else:
        total = int(plan.replicates)
        identity = np.arange(n, dtype=np.intp)[None, :]
        observed = _evaluate(stat, data, identity, 0, identity_first=True)[0]
        chunks = _monte_carlo_chunks(n, total, int(plan.seed), _chunk_rows(n))
    values = None
    for start, rows in chunks:
        batch = _evaluate(stat, data, rows, start, identity_first=exact and start == 0)
        if values is None:  # (pool, K) for a stacked statistic
            values = np.empty((total + (not exact and plan.include_identity),) + batch.shape[1:])
        values[start : start + len(rows)] = batch
    if exact:
        observed = values[0].copy()
    values[total:] = observed  # the appended identity value; nothing under an exact plan
    values.sort(axis=0)
    if values.ndim == 1:
        return PermutationDistribution(float(observed), values, plan, n)
    return tuple(PermutationDistribution(float(o), v, plan, n) for o, v in zip(observed, values.T))


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def critical_value(dist: PermutationDistribution, alpha: float) -> float:
    """Smallest replicate ``t`` with ``#{replicates <= t} / M >= 1 - alpha``.

    This is the 1 - alpha quantile of the empirical permutation distribution,
    realized as an order statistic of the replicate multiset (ties kept).
    """
    _check_alpha(alpha)
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
) -> TestOutcome | tuple[TestOutcome, ...]:
    """Assemble distribution, critical value and p-value into a decision.

    Raises ``ValueError`` unless 0 < alpha < 1, before any replicate is
    computed.  Warns when a Monte Carlo plan cannot reach ``alpha``: the
    smallest attainable p-value is 1/(B+1), so below it the test never rejects.
    A stacked ``stat`` gives one outcome per column, each at ``alpha``.
    """
    _check_alpha(alpha)
    if plan.mode == "monte_carlo" and alpha < 1.0 / (plan.replicates + 1):
        warnings.warn(
            f"level {alpha:.4g} is below 1/(B+1) = {1.0 / (plan.replicates + 1):.4g}, "
            "the smallest Monte Carlo p-value; the test can never reject. "
            "Increase the replicate count.",
            RuntimeWarning,
            stacklevel=2,
        )
    dist = permutation_distribution(stat, data, n, plan)
    if isinstance(dist, tuple):
        return tuple(outcome_from_distribution(d, alpha) for d in dist)
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
