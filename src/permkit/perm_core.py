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
* Count rows.  When the data handed to :func:`permutation_distribution` is
  a :class:`GroupCounts` record (pooled category codes and the first
  group's size n1), the statistic reads only the first group's count
  vector c1, so a row is that vector, not an index row: the u category
  counts of the codes a relabeling puts in its first n1 places.  Under a
  uniform relabeling c1 is multivariate hypergeometric over the pooled
  counts ``totals``, so a Monte Carlo plan draws it directly: block ``k``
  is ``replicate_rng(seed, k).multivariate_hypergeometric(totals[order],
  n1, size=64, method=m)``, always 64 rows, and replicate ``i`` is again
  row ``i % 64`` of block ``i // 64``.  ``order`` lists the u categories
  present by first appearance in the codes, so renaming the categories
  renames the counts and changes no draw, as it changes no index row.  The
  method ``m`` is "marginals" (O(u) per row) when n1 >= 10 u, else "count"
  (O(n1) per row), whichever is cheaper; it depends on the data alone.  The
  prefix and chunk properties hold as for index rows, and no O(n) index
  row is built.  The identity row is ``bincount(codes[:n1])``, and an
  exact plan's index rows (subsets or permutations) become count rows
  through the same bincount, so exact outcomes do not depend on the row
  form.  The declaration sits on the data, not on the evaluator, so a
  wrapper that forwards only ``evaluate_many`` keeps it; any other data
  gets index rows.
* Exact plans enumerate the n! permutations in lexicographic order, so row
  0 is the identity.  An evaluator whose values depend only on the set
  ``perm[:k]`` says so with an attribute ``subset_size = k`` (the
  two-sample evaluators of ``testing``: count, binned, l1-split, MMD and
  Poisson, k the first group's size).  An exact plan then enumerates the
  C(n, k) subsets of ``range(n)`` in lexicographic order instead, each
  completed by its complement in increasing order, so row 0 is still the
  identity.  Each subset stands for k! (n - k)! relabelings, all with its
  value, so the distribution carries that ``multiplicity``: its ``size``
  and the outcome's ``replicate_count`` stay n!, while ``replicates`` holds
  the C(n, k) subset values.  The p-value and the critical value equal
  those of the n! enumeration.  Independence statistics and plain callables
  enumerate all n!.  ``ENUMERATION_LIMIT`` (10!) bounds the rows actually
  enumerated, C(n, k) or n!, so exact two-sample tests reach n = 24 with
  equal groups (12 + 12) and further with unequal ones (C(171, 2) = 14535
  rows for 2 + 169 points), up to 1558 points, the most whose n! still
  prints as an outcome's ``replicate_count``.  Rows of both modes are
  generated and evaluated one chunk at a time, a whole number of blocks
  holding about ``CHUNK_ENTRIES`` (2^20) index or count entries.  The
  batch forms of ``ustats``, which every evaluator of ``testing`` calls,
  slice each chunk by the same budget, so their temporaries (count tables,
  Gram gathers and products) also hold about ``CHUNK_ENTRIES`` entries:
  peak memory follows the budget, not B * n or n! * n.  When a helper
  thread evaluates part of a chunk, each slice is cut into up to four
  pieces, so the two threads' temporaries hold about half the budget.
  Forms built on a BLAS product of non-integral floats keep whole slices,
  as a product's last bits change with where its rows are cut.  The
  weighted count forms evaluate them on the calling thread.  The Gram
  two-sample form evaluates a slice as tiles of the symmetric Gram matrix,
  and when BLAS runs on one thread the helper shares the tiles: a tile's
  product is the same on either thread, so no value changes.
* Evaluators have one protocol, ``evaluate_many(data, rows)`` on an (m, n)
  matrix of index rows, or an (m, u) matrix of count rows for
  :class:`GroupCounts` data; a plain callable ``stat(data, perm)`` is called
  once per row.  An evaluator may stack K statistics, returning (m, K) values;
  the distribution then holds a (pool, K) pool, each column sorted on its
  own, and every decision function decides all K columns in one pass.
* The replicate pool always holds the identity relabeling's value exactly
  once, at pool row 0: exact row 0, or, under a Monte Carlo plan, a one-row
  batch stored ahead of the B sampled rows.  The observed statistic is that
  value, so it equals its own replicate exactly.  One formula serves both
  modes: the p-value is ``#{pool >= observed} / |pool|``, which under a
  Monte Carlo plan is ``(1 + #{sampled replicates >= observed}) / (B + 1)``
  and valid in finite samples.
* The test is the conservative, non-randomized one, with one decision rule:
  reject iff p <= alpha.  The reported critical value agrees with it: p <=
  alpha exactly when the observed statistic exceeds the critical value by
  more than the tie tolerance.
* Tie comparisons use a relative float tolerance: ``TIE_REL`` times the
  largest absolute value in the pool's column, and plain equality when all
  of them are 0.  Many statistics take exactly equal values on symmetric
  relabelings and the level guarantee counts those as ties; rounding noise
  from different summation orders must not split them, or the test turns
  anti-conservative.  The tolerance has no absolute floor, so the decision
  does not depend on the units of the statistic.
* A statistic value that is not finite (NaN or infinite) raises
  :class:`StatisticEvaluationError`; it is never ranked.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

__all__ = [
    "ENUMERATION_LIMIT",
    "PermutationPlan",
    "PermutationDistribution",
    "GroupCounts",
    "bincount_rows",
    "TestOutcome",
    "StatisticEvaluationError",
    "split_seed",
    "replicate_rng",
    "enumerate_permutations",
    "permutation_distribution",
    "critical_value",
    "p_value",
    "run_test",
]

ENUMERATION_LIMIT = math.factorial(10)
# largest n whose n! (an exact outcome's replicate_count) has at most 4300
# digits, the most Python converts to text by default, so the outcome prints
_EXACT_MAX_N = 1558

# relative scale for treating replicate-vs-observed comparisons as ties
TIE_REL = 1e-12

# Monte Carlo rows drawn from one block stream; part of the stream contract
BLOCK_ROWS = 64
# index entries generated and evaluated at a time (rounded to whole blocks)
CHUNK_ENTRIES = 1 << 20
# entries a chunk must draw before a helper thread shares its blocks.  A
# thread takes about 0.13 ms to start and join, an index entry about 20 ns to
# shuffle; smaller draws, such as a simulation trial's, stay on one thread
_THREAD_ENTRIES = 1 << 17

# processes sharing this one's CPUs; set in a pool's workers by `share_cpus`
_CPU_SHARERS = 1

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


def _is_integer(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class PermutationPlan:
    """How to build the permutation distribution.

    ``mode`` is ``"exact"`` (full enumeration of all n! relabelings, or of
    the C(n, k) subsets for a statistic that declares ``subset_size = k``;
    only allowed when those rows do not exceed ``ENUMERATION_LIMIT`` and n
    is at most 1558) or
    ``"monte_carlo"`` (``replicates`` uniform draws seeded by ``seed``, an
    integer in [0, 2^64); a Monte Carlo plan stores both as Python ints).
    Either way the pool also holds the identity relabeling, once.
    """

    mode: str
    replicates: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown plan mode: {self.mode!r}")
        if self.mode == "exact":
            if self.replicates is not None:
                raise ValueError("an exact plan enumerates n! rows; it takes no replicates")
            return
        b, seed = self.replicates, self.seed
        if not _is_integer(b) or b < 1:
            raise ValueError(f"monte_carlo mode requires an integer replicates >= 1, got {b!r}")
        if not _is_integer(seed) or not 0 <= seed <= _MASK64:
            raise ValueError(f"monte_carlo seed must be an integer in [0, 2^64), got {seed!r}")
        object.__setattr__(self, "replicates", int(b))
        object.__setattr__(self, "seed", int(seed))

    @classmethod
    def exact(cls) -> "PermutationPlan":
        return cls(mode="exact")

    @classmethod
    def monte_carlo(cls, replicates: int, seed: int) -> "PermutationPlan":
        return cls(mode="monte_carlo", replicates=replicates, seed=seed)


@dataclass(frozen=True, eq=False)
class GroupCounts:
    """Pooled category codes whose statistic reads only the first group's counts.

    As the data of :func:`permutation_distribution`, it makes every row the
    count vector c1 of the codes a relabeling puts in its first ``n1``
    places: u = ``totals.size`` integers in [0, ``totals``] summing to n1
    (see the module notes on count rows).  ``codes`` are integers in
    [0, u); ``totals`` is their ``bincount``.
    """

    codes: np.ndarray
    n1: int
    totals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise ValueError("codes must be a 1-D integer array")
        if not _is_integer(self.n1) or not 1 <= self.n1 <= codes.size:
            raise ValueError(f"n1 must be an integer in [1, {codes.size}], got {self.n1!r}")
        object.__setattr__(self, "codes", codes.astype(np.intp, copy=False))
        object.__setattr__(self, "n1", int(self.n1))
        # bincount refuses a negative code with a ValueError
        object.__setattr__(self, "totals", np.bincount(self.codes))

    def of_rows(self, rows: np.ndarray) -> np.ndarray:
        """The (m, u) count rows of the (m, n) index ``rows``: c1 of each relabeling."""
        return bincount_rows(self.codes[rows[:, : self.n1]], self.totals.size)


def bincount_rows(codes: np.ndarray, width: int) -> np.ndarray:
    """The (m, ``width``) int64 counts of the values ``0 .. width - 1`` in each row of ``codes``.

    One ``bincount`` over the whole (m, k) matrix, row i's codes shifted by
    ``i * width``.  ``codes`` must lie in ``range(width)``: a code outside
    it lands in a neighbouring row.
    """
    m = codes.shape[0]
    offsets = (np.arange(m, dtype=np.intp) * width)[:, None]
    return np.bincount((codes + offsets).ravel(), minlength=m * width).reshape(m, width)


@dataclass(frozen=True, eq=False)
class PermutationDistribution:
    """Observed statistic plus the sorted replicate pool that holds it.

    A scalar statistic has (pool,) ``replicates`` and a float ``observed``;
    K statistics on the same rows have (pool, K) replicates, each column
    sorted on its own, and a length-K ``observed`` row; all are finite.
    Each pool value stands for ``multiplicity`` relabelings: k! (n - k)!
    when an exact plan enumerated the C(n, k) subsets, else 1.
    ``tie_tolerance`` is each column's slack under which a replicate ties
    the observed value: ``TIE_REL`` times the larger absolute value of the
    column's two ends, so it scales with the statistic (0 when both are 0).
    """

    observed: float | np.ndarray
    replicates: np.ndarray  # sorted down each column; holds ``observed``
    plan: PermutationPlan
    multiplicity: int = 1
    tie_tolerance: float | np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        reps, observed = np.asarray(self.replicates), np.asarray(self.observed)
        if reps.dtype.kind not in "iuf" or observed.dtype.kind not in "iuf":
            raise ValueError("replicates and observed must hold real numbers")
        reps, observed = reps.astype(float, copy=False), observed.astype(float, copy=False)
        if reps.ndim not in (1, 2) or reps.size < 1:
            raise ValueError("replicate set must be a non-empty (pool,) or (pool, K) array")
        if observed.shape != reps.shape[1:]:
            raise ValueError(f"observed must have shape {reps.shape[1:]}, got {observed.shape}")
        if not _is_integer(self.multiplicity) or self.multiplicity < 1:
            raise ValueError(f"multiplicity must be an integer >= 1, got {self.multiplicity!r}")
        # neighbours, not np.diff, which would copy the replicates; a NaN fails
        # every comparison, and a sorted column between finite ends is finite
        if not (reps[1:] >= reps[:-1]).all():
            raise ValueError("replicates must be finite and sorted non-decreasing in each column")
        if reps.ndim == 1:  # Python floats keep a scalar test's checks cheap
            observed = float(observed)
            tol = TIE_REL * max(abs(float(reps[0])), abs(float(reps[-1])))
            finite = math.isfinite(tol)
        else:
            tol = TIE_REL * np.maximum(np.abs(reps[0]), np.abs(reps[-1]))
            finite = np.isfinite(tol).all()
        # the identity's value ranks inside its own pool, or p could be 0
        if not finite or np.count_nonzero(
            _count_below(reps, observed - tol) >= _count_below(reps, observed + tol, "right")
        ):
            raise ValueError("replicate pool must hold the observed statistic and be finite")
        object.__setattr__(self, "replicates", reps)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "tie_tolerance", tol)

    @property
    def size(self) -> int:
        """Relabelings the pool stands for: n! under an exact plan, B + 1 under Monte Carlo."""
        return len(self.replicates) * int(self.multiplicity)


def _count_below(reps: np.ndarray, bound, side: str = "left") -> int | np.ndarray:
    """Values ``< bound`` (``<= bound`` for side "right") in each sorted column of ``reps``:
    an int by binary search for a (pool,) pool, else a length-K array by one comparison pass."""
    if reps.ndim == 1:
        return int(reps.searchsorted(bound, side))
    return np.count_nonzero(reps < bound if side == "left" else reps <= bound, axis=0)


@dataclass(frozen=True)
class TestOutcome:
    """Result of one permutation test run."""

    statistic: float
    critical_value: float
    p_value: float
    alpha: float
    replicate_count: int
    plan: PermutationPlan

    @property
    def reject(self) -> bool:
        """The decision: reject iff ``p_value <= alpha``."""
        return bool(self.p_value <= self.alpha)


def enumerate_permutations(n: int) -> Iterator[np.ndarray]:
    """Yield all n! permutations of ``range(n)`` in lexicographic order."""
    _enumeration_size(n)
    for _, rows in _enumeration_chunks(n, _chunk_rows(n)):
        yield from np.array(rows)


def _enumeration_size(n: int, subset_size: int | None = None) -> int:
    """Rows an exact plan enumerates, refused above ``ENUMERATION_LIMIT``.

    n! permutations, or the C(n, k) subsets when ``subset_size`` is k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if subset_size is None:
        total = math.factorial(n)
        counted = f"{n}! = {total} permutations"
    elif n > _EXACT_MAX_N:
        raise ValueError(
            f"an exact plan on {n} points counts {n}! relabelings, more digits than Python "
            f"prints (at most {_EXACT_MAX_N} points); use a monte_carlo plan"
        )
    else:
        total = math.comb(n, subset_size)
        counted = f"C({n}, {subset_size}) = {total} subsets"
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"{counted} exceeds the enumeration limit {ENUMERATION_LIMIT}; use a monte_carlo plan"
        )
    return total


_ENUM_CACHE: dict[tuple[int, int | None], np.ndarray] = {}
_ENUM_CACHE_MAX_N = 8  # rows for n <= 8 cached (8! at most); larger built chunk by chunk


def _index_rows(tuples: Iterator[tuple], rows: int, width: int) -> np.ndarray:
    """The next ``rows`` tuples of ``tuples`` as a (rows, width) index matrix."""
    flat = itertools.chain.from_iterable(itertools.islice(tuples, rows))
    return np.fromiter(flat, dtype=np.intp, count=rows * width).reshape(rows, width)


def _enumeration_chunks(
    n: int, chunk: int, subset_size: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """An exact plan's rows in lexicographic order as ``(start, rows)`` chunks.

    All n! permutations or, when ``subset_size`` is k, the C(n, k) subsets
    of ``range(n)``, each followed by its complement in increasing order.
    Row 0 is the identity either way.  Up to ``_ENUM_CACHE_MAX_N`` the whole
    matrix is built once, kept read-only and sliced; above it each chunk is
    built from the tuple stream, so only one chunk of rows exists at a time.
    """
    k = subset_size
    if k is None:
        total, tuples = math.factorial(n), itertools.permutations(range(n))
    else:
        total, tuples = math.comb(n, k), itertools.combinations(range(n), k)

    def build(rows: int) -> np.ndarray:
        if k is None:
            return _index_rows(tuples, rows, n)
        head = _index_rows(tuples, rows, k)
        rest = np.ones((rows, n), dtype=bool)
        rest[np.arange(rows)[:, None], head] = False
        return np.concatenate([head, rest.nonzero()[1].reshape(rows, n - k)], axis=1)

    cached = _ENUM_CACHE.get((n, k))
    if cached is None and n <= _ENUM_CACHE_MAX_N:
        cached = _ENUM_CACHE[n, k] = build(total)
        cached.flags.writeable = False
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        yield start, build(rows) if cached is None else cached[start : start + rows]


def _monte_carlo_chunks(
    n: int, replicates: int, seed: int, chunk: int
) -> Iterator[tuple[int, np.ndarray]]:
    """`_sampled_chunks` of index rows: each block is shuffled in one ``permuted`` call."""
    identity = np.arange(n, dtype=np.intp)

    def shuffle(block: np.ndarray, rng: np.random.Generator) -> None:
        block[...] = identity
        rng.permuted(block, axis=1, out=block)

    return _sampled_chunks(identity[None, :], replicates, seed, chunk, n, shuffle)


def _count_chunks(
    counts: GroupCounts, replicates: int, seed: int, chunk: int
) -> Iterator[tuple[int, np.ndarray]]:
    """`_monte_carlo_chunks` with count rows: the identity's c1, then replicates.

    Block ``k`` is 64 multivariate hypergeometric draws of n1 from
    ``counts.totals``, over the categories present in order of first
    appearance in the codes; rows past ``replicates`` in the last block are
    drawn and dropped, so every block is the same draw whatever the plan's
    size.  The columns of absent categories are 0.
    """
    present, first = np.unique(counts.codes, return_index=True)
    order = present[np.argsort(first)]
    colors = counts.totals[order]
    method = _draw_method(counts.n1, order.size)
    absent = np.flatnonzero(counts.totals == 0)  # the shared buffer is not zeroed

    def draw(block: np.ndarray, rng: np.random.Generator) -> None:
        drawn = rng.multivariate_hypergeometric(colors, counts.n1, size=BLOCK_ROWS, method=method)
        block[:, order] = drawn[: block.shape[0]]
        if absent.size:
            block[:, absent] = 0

    identity = counts.of_rows(np.arange(counts.codes.size, dtype=np.intp)[None, :])
    return _sampled_chunks(identity, replicates, seed, chunk, order.size, draw)


def _sampled_chunks(
    first: np.ndarray, replicates: int, seed: int, chunk: int, width: int, fill: Callable
) -> Iterator[tuple[int, np.ndarray]]:
    """The one row ``first``, then ``replicates`` drawn rows, as ``(start, rows)``.

    ``start`` is the pool row of ``rows[0]``: ``first`` comes alone as pool
    row 0, and replicate i is pool row ``1 + i``.  A chunk is a whole number
    of blocks; ``fill(block, replicate_rng(seed, k))`` writes every entry of
    block k from ``width`` drawn entries a row (`_draw_blocks`), and the last
    block holds only the rows up to ``replicates``.  The rows share one
    buffer shaped like ``first``, overwritten by the next chunk.
    """
    yield 0, first
    buffer = np.empty((min(chunk, replicates), first.shape[1]), dtype=first.dtype)
    for start in range(0, replicates, chunk):
        rows = buffer[: min(chunk, replicates - start)]

        def draw(j: int) -> None:
            block = rows[j * BLOCK_ROWS : (j + 1) * BLOCK_ROWS]
            fill(block, replicate_rng(seed, start // BLOCK_ROWS + j))

        _draw_blocks(draw, -(-rows.shape[0] // BLOCK_ROWS), width)
        yield 1 + start, rows


def _usable_cpus() -> int:
    """This process's share of the CPUs it may run on.

    The CPUs are its affinity set, else the machine's count, divided among
    the ``_CPU_SHARERS`` worker processes of a pool (`share_cpus`).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _CPU_SHARERS)


def share_cpus(processes: int) -> None:
    """Count this process as one of ``processes`` pool workers sharing its CPUs."""
    global _CPU_SHARERS
    _CPU_SHARERS = max(1, processes)


def helper_thread_usable() -> bool:
    """Whether a helper thread would have a CPU of its own (`_usable_cpus`)."""
    return _usable_cpus() >= 2


def _draw_blocks(task: Callable[[int], None], count: int, width: int) -> None:
    """Run ``task(j)`` for every block j in ``range(count)`` of ``width`` entries a row.

    Each task draws one block from its own stream into its own rows, so
    the order and the thread that runs it change nothing.  Blocks holding
    fewer than ``_THREAD_ENTRIES`` entries in all are drawn on the calling
    thread; larger draws go to `share_tasks`, as numpy releases the
    interpreter lock while it draws.
    """
    if count * BLOCK_ROWS * width < _THREAD_ENTRIES:
        for j in range(count):
            task(j)
    else:
        share_tasks(task, count)


def share_tasks(task: Callable[[int], None], count: int) -> None:
    """Run ``task(j)`` for every j in ``range(count)``, on up to two threads.

    Each task must write only its own part of the result.  With at least
    two tasks and a second usable CPU, the calling thread and one helper
    thread take task numbers from one shared iterator: a busy second CPU
    only leaves more tasks to the caller.  The helper is joined before this
    returns.  Once either thread fails, neither takes another task, and the
    failure is raised here.
    """
    if count < 2 or not helper_thread_usable():
        for j in range(count):
            task(j)
        return
    tasks = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()
    failure: list[BaseException] = []

    def take() -> None:
        while not stop.is_set():
            with lock:
                j = next(tasks, None)
            if j is None:
                return
            task(j)

    def helper() -> None:
        try:
            take()
        except BaseException as exc:  # noqa: BLE001 - raised again on the calling thread
            failure.append(exc)
            stop.set()

    thread = threading.Thread(target=helper, name="permkit-task")
    thread.start()
    try:
        take()
    finally:
        stop.set()
        thread.join()
    if failure:
        raise failure[0]


def _draw_method(n1: int, u: int) -> str:
    """numpy's multivariate hypergeometric method for n1 draws over u categories.

    Both draw the same law.  "marginals" costs about 0.1 us per category and
    row, "count" about 13 ns per drawn item (2-vCPU Xeon, numpy 2.4), so
    "count" is cheaper below about 10 draws per category; an index row
    costs more than either.
    """
    return "marginals" if n1 >= 10 * u else "count"


def _chunk_rows(n: int) -> int:
    """Rows per chunk: whole blocks holding about ``CHUNK_ENTRIES`` entries."""
    return BLOCK_ROWS * max(1, CHUNK_ENTRIES // (BLOCK_ROWS * n))


def _evaluate(stat: Any, data: Any, rows: np.ndarray, start: int, sampled: bool) -> np.ndarray:
    """Values of ``stat`` on the index ``rows``, as finite floats.

    Calls ``stat.evaluate_many(data, rows)``, or a plain ``stat(data, perm)``
    once per row.  Row i is pool row ``start + i`` (see
    :func:`_replicate_index`).  A batch evaluator that raises reports the
    index of row 0.
    """
    many = getattr(stat, "evaluate_many", None)
    if many is None:
        values = np.empty(rows.shape[0], dtype=float)
        for i, perm in enumerate(rows):
            try:
                values[i] = stat(data, perm)
            except Exception as exc:  # noqa: BLE001 - annotate with the replicate index
                raise StatisticEvaluationError(
                    _replicate_index(start + i, sampled)
                ) from exc
    else:
        try:
            values = np.asarray(many(data, rows), dtype=float)
        except Exception as exc:  # noqa: BLE001 - annotate with the batch's first index
            index = _replicate_index(start, sampled)
            raise StatisticEvaluationError(
                index, f"batched statistic evaluation failed from replicate {index}"
            ) from exc
    if np.isfinite(values).all():
        return values
    row, column = (int(i) for i in np.argwhere(~np.isfinite(values.reshape(len(values), -1)))[0])
    index = _replicate_index(start + row, sampled)
    where = f"replicate {index}, column {column}" if values.ndim == 2 else f"replicate {index}"
    raise StatisticEvaluationError(index, f"statistic is not finite at {where}: {values[row]}")


def _replicate_index(pool_row: int, sampled: bool) -> int:
    """-1 for the identity at pool row 0, else the row's enumeration index
    (permutation or subset), or, for a ``sampled`` (Monte Carlo) pool, its
    replicate ``pool_row - 1``."""
    return -1 if pool_row == 0 else pool_row - sampled


def permutation_distribution(
    stat: Callable[[Any, np.ndarray], float],
    data: Any,
    n: int,
    plan: PermutationPlan,
) -> PermutationDistribution:
    """Observed statistic plus replicates of ``stat`` under relabelings.

    ``stat`` is evaluated through its ``evaluate_many(data, rows)``, which
    maps an (m, n) matrix of 0-based index rows to m values; a plain
    callable ``stat(data, perm)`` without it is called once per row.  When
    ``data`` is a :class:`GroupCounts` of n codes, the rows are its (m, u)
    count rows instead (see the module notes).  Either
    must be a pure function of its arguments.  The observed statistic is the
    identity row's value at pool row 0: row 0 of the exact enumeration, or a
    one-row batch ahead of the B sampled rows under a ``monte_carlo`` plan.
    Rows are generated and evaluated one chunk at a time in both modes.
    Under an exact plan, a ``stat`` with a ``subset_size`` attribute k is
    evaluated on the C(n, k) subset rows only, and the distribution carries
    their multiplicity k! (n - k)!.  Raises
    :class:`StatisticEvaluationError` if ``stat`` raises or returns a value
    that is not finite.  An ``evaluate_many`` returning (m, K) values
    stacks K statistics on the same rows, one column of the pool each.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    counted = isinstance(data, GroupCounts)
    if counted and data.codes.size != n:
        raise ValueError(f"GroupCounts holds {data.codes.size} codes, not n = {n}")
    sampled = plan.mode == "monte_carlo"
    multiplicity = 1
    if sampled:
        size = 1 + plan.replicates  # the identity, then B sampled rows
        if counted:
            chunk = _chunk_rows(data.totals.size)
            chunks = _count_chunks(data, plan.replicates, plan.seed, chunk)
        else:
            chunks = _monte_carlo_chunks(n, plan.replicates, plan.seed, _chunk_rows(n))
    else:
        k = getattr(stat, "subset_size", None)
        if counted and k not in (None, data.n1):
            raise ValueError(f"subset_size {k} does not match the GroupCounts n1 = {data.n1}")
        size = _enumeration_size(n, k)
        multiplicity = math.factorial(n) // size
        chunks = _enumeration_chunks(n, _chunk_rows(n), k)
        if counted:
            chunks = ((start, data.of_rows(rows)) for start, rows in chunks)
    values = None
    for start, rows in chunks:
        batch = _evaluate(stat, data, rows, start, sampled)
        if values is None:  # (pool, K) for a stacked statistic
            values = np.empty((size,) + batch.shape[1:])
        values[start : start + len(rows)] = batch
    observed = values[0].copy()
    values.sort(axis=0)
    return PermutationDistribution(observed, values, plan, multiplicity)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")


def critical_value(dist: PermutationDistribution, alpha: float) -> float | np.ndarray:
    """Smallest replicate ``t`` with ``#{replicates <= t} / size >= 1 - alpha``.

    This is the 1 - alpha quantile of the empirical permutation distribution,
    realized as an order statistic of the replicate multiset (ties kept).
    It is ranked over the pool.  When each pool value stands for the same
    ``multiplicity`` m relabelings, the relabelings' rank K = ceil(M (1 -
    alpha)) falls on pool rank ceil(K / m) = ceil(M (1 - alpha) / m), so
    ranking the pool picks the same value.  A float, or a length-K row for a (pool, K) pool.
    """
    _check_alpha(alpha)
    m = len(dist.replicates)
    # k = smallest integer with k/m >= 1 - alpha; tiny slack guards against
    # float round-up on exact multiples like 0.8 * 5.
    k = math.ceil(m * (1.0 - alpha) - 1e-9)
    k = min(max(k, 1), m)
    values = dist.replicates[k - 1]
    return float(values) if dist.replicates.ndim == 1 else values.copy()


def p_value(dist: PermutationDistribution) -> float | np.ndarray:
    """Finite-sample valid permutation p-value, ``#{pool >= observed} / |pool|``.

    The pool holds the identity's value, so under a Monte Carlo plan this is
    ``(1 + #{sampled replicates >= observed}) / (B + 1)``.  Replicates within
    the tie tolerance of the observed value count as greater-or-equal.  A
    uniform multiplicity cancels: counting subsets gives the same float as
    counting the relabelings they stand for.  A float, or a length-K array for a (pool, K) pool.
    """
    pool = len(dist.replicates)
    return (pool - _count_below(dist.replicates, dist.observed - dist.tie_tolerance)) / pool


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
    A stacked ``stat`` gives a tuple of one outcome per column, each at ``alpha``.
    """
    _check_alpha(alpha)
    if plan.mode == "monte_carlo" and alpha < 1.0 / (plan.replicates + 1):
        warnings.warn(
            f"level {alpha:.4g} is below 1/(B+1) = {1.0 / (plan.replicates + 1):.4g}, "
            "the smallest Monte Carlo p-value; the test can never reject. "
            "Increase the replicate count.",
            RuntimeWarning,
            stacklevel=_outside_stacklevel(),
        )
    # looked up at call time, so a wrapper set on this module sees each call
    dist = permutation_distribution(stat, data, n, plan)
    columns = (dist.observed, critical_value(dist, alpha), p_value(dist))
    if dist.replicates.ndim == 1:
        return TestOutcome(*columns, alpha, dist.size, dist.plan)
    rows = zip(*(column.tolist() for column in columns))
    return tuple(TestOutcome(*row, alpha, dist.size, dist.plan) for row in rows)


def _outside_stacklevel() -> int:
    """The ``stacklevel`` at which a warning from this function's caller names
    the first frame outside the permkit package (Python 3.11's
    ``warnings.warn`` has no ``skip_file_prefixes``)."""
    package = os.path.dirname(__file__)
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame, level = frame.f_back, level + 1
    return level
