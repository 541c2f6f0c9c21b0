"""Degenerate U-statistics and companion statistics, fast forms plus oracles.

Every statistic has one batch form, ``*_many(reduced data, rows)``, that
evaluates it on each row of an (m, n) matrix of index rows, and a scalar form
that is its batch form on one row.  The batch forms reduce a quadruple-sum
U-statistic to O(n^2) (or O(u) / O(n) for count data) arithmetic on cached
Gram matrices or category counts, and each one is certified in the test
suite against a literal brute-force enumeration (`two_sample_u_naive`,
`independence_u_naive`).

The multinomial two-sample statistic reads only the first group's count
vector c1.  Unweighted, it is one integer numerator in S2 = sum c1^2 and
P = sum c1 t (t the pooled counts) over one integer denominator, so it is
correctly rounded, a true zero is 0.0, and relabelings with equal (S2, P)
tie exactly, without the tie tolerance of ``perm_core``.  Besides
`multinomial_two_sample_u_many` it has a form on (m, u) count rows,
`multinomial_two_sample_u_counts` (its scalar form is that form on one row),
and one on K nested partitions at once, `multinomial_two_sample_u_nested`.
That form counts each row once, into a code-major table of running counts,
and sums every partition's runs in one pass; a run holding a single pooled
point is skipped, as S2 - n1 and P - n1 are sums of c1(c1-1) and c1(t-1)
over the runs, to which it adds 0, in pieces of rows on the calling thread.
`multinomial_independence_u_many` takes one (y, z) code pair or the (K, n)
code stacks of K grids, all counted at once; its R reads no joint cell.

The batch forms evaluate a chunk of rows in slices of about
``CHUNK_ENTRIES`` temporary entries, pieces of which a helper thread may
share (`_by_row_slices`).  Each row is computed on its own, float row sums
included, so neither the cut nor the thread changes a value, but for the
Gram two-sample form: its BLAS tile products round a row by its place in
the slice and by the BLAS thread count, so its slices stay whole.

Permutations act by index relabeling on cached values; kernels are never
re-evaluated per relabeling.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .kernels import GramMatrix, KernelSpec, eval as kernel_eval
from .perm_core import CHUNK_ENTRIES, bincount_rows, helper_thread_usable, share_tasks

__all__ = [
    "Categorical",
    "Continuous",
    "TwoSamplePooled",
    "PairedSample",
    "PoissonCounts",
    "NAIVE_TWO_SAMPLE_LIMIT",
    "NAIVE_INDEPENDENCE_LIMIT",
    "two_sample_u",
    "two_sample_u_many",
    "two_sample_u_naive",
    "multinomial_two_sample_u",
    "multinomial_two_sample_u_many",
    "multinomial_two_sample_u_counts",
    "multinomial_two_sample_u_nested",
    "independence_u",
    "independence_u_many",
    "independence_u_naive",
    "multinomial_independence_u",
    "multinomial_independence_u_many",
    "poisson_chisq",
    "poisson_chisq_many",
    "linear_stat",
    "linear_stat_many",
]

NAIVE_TWO_SAMPLE_LIMIT = 30
NAIVE_INDEPENDENCE_LIMIT = 10
# temporaries of one piece of the nested count form: 256 KB stay in cache,
# and in heap pages the allocator keeps between calls, where a whole slice's
# would be mapped afresh, page by page, on every call
_PIECE_ENTRIES = 1 << 15
# points in a band of the Gram two-sample form's tiles: n points make
# ceil(n / 256) near-equal bands
_BAND_POINTS = 256


@dataclass(frozen=True)
class Categorical:
    """Discrete domain {0, ..., d-1}."""

    d: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", _positive_integer(self.d, "d"))


@dataclass(frozen=True)
class Continuous:
    """Real domain of a fixed dimension."""

    dim: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "dim", _positive_integer(self.dim, "dim"))


def _positive_integer(value, name: str) -> int:
    """``value`` as a Python int, refused unless a positive integer (a bool is refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _validate_domain(values: np.ndarray, domain: Categorical | Continuous, name: str) -> np.ndarray:
    if isinstance(domain, Categorical):
        arr = np.asarray(values)
        if not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name}: categorical data must be integer")
        if arr.ndim != 1:
            raise ValueError(f"{name}: categorical data must be 1-D")
        if arr.size and (arr.min() < 0 or arr.max() >= domain.d):
            raise ValueError(f"{name}: category out of range [0, {domain.d})")
        return arr
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.shape[1] != domain.dim:
        raise ValueError(f"{name}: expected points of dimension {domain.dim}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: continuous data must be finite (no NaN or inf)")
    return arr


@dataclass(frozen=True, eq=False)
class TwoSamplePooled:
    """Labeled pooled two-sample data: n1 Y-observations then n2 Z-observations."""

    y: np.ndarray
    z: np.ndarray
    domain: Categorical | Continuous

    def __post_init__(self) -> None:
        y = _validate_domain(self.y, self.domain, "y")
        z = _validate_domain(self.z, self.domain, "z")
        if len(y) < 2 or len(z) < 2:
            raise ValueError("two-sample data needs n1 >= 2 and n2 >= 2")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n1(self) -> int:
        return int(len(self.y))

    @property
    def n2(self) -> int:
        return int(len(self.z))

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    def pooled(self) -> np.ndarray:
        return np.concatenate([self.y, self.z])


@dataclass(frozen=True, eq=False)
class PairedSample:
    """n paired observations (y_i, z_i) for independence testing."""

    y: np.ndarray
    z: np.ndarray
    y_domain: Categorical | Continuous
    z_domain: Categorical | Continuous

    def __post_init__(self) -> None:
        y = _validate_domain(self.y, self.y_domain, "y")
        z = _validate_domain(self.z, self.z_domain, "z")
        if len(y) != len(z):
            raise ValueError("paired sample requires equal-length y and z")
        if len(y) < 4:
            raise ValueError("independence testing needs n >= 4")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return int(len(self.y))


@dataclass(frozen=True, eq=False)
class PoissonCounts:
    """Per-individual Poisson count rows for two equal-size groups.

    ``y_individual`` and ``z_individual`` are n x d arrays of nonnegative
    integer counts, one row per individual, of the same shape.  The group
    totals ``v`` and ``w`` are their column sums; totals on their own are
    one-row groups, ``PoissonCounts([v], [w])``.
    """

    y_individual: np.ndarray
    z_individual: np.ndarray

    def __post_init__(self) -> None:
        ym = _count_rows(self.y_individual, "y_individual")
        zm = _count_rows(self.z_individual, "z_individual")
        if ym.shape != zm.shape:
            raise ValueError(f"count rows need equal group sizes and one d: {ym.shape}, {zm.shape}")
        object.__setattr__(self, "y_individual", ym)
        object.__setattr__(self, "z_individual", zm)

    @property
    def v(self) -> np.ndarray:
        return self.y_individual.sum(axis=0)

    @property
    def w(self) -> np.ndarray:
        return self.z_individual.sum(axis=0)

    @property
    def d(self) -> int:
        return int(self.y_individual.shape[1])

    @property
    def group_size(self) -> int:
        return int(self.y_individual.shape[0])


def _count_rows(rows, name: str) -> np.ndarray:
    """``rows`` as an n x d int64 array, refused unless integral and in [0, 2^63)."""
    arr = np.asarray(rows)
    if arr.ndim != 2:
        raise ValueError(f"{name}: count rows must be an n x d array")
    return _as_counts(arr, name)


def _as_counts(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr`` as int64, refused unless integral and in [0, 2^63)."""
    # test before casting: casting NaN, inf or 2^63 warns or wraps, and a
    # fraction would truncate; ints of 2^64 or more arrive as an object array
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name}: counts must be integers, nonnegative and below 2^63")
    if arr.dtype.kind == "f" and not (
        np.isfinite(arr) & (arr == np.floor(arr))
    ).all():
        raise ValueError(f"{name}: counts must be integers")
    if arr.size and not (arr.min() >= 0 and arr.max() < 2**63):
        raise ValueError(f"{name}: counts must be nonnegative and below 2^63")
    return arr.astype(np.int64)


def _identity_if_none(labeling, n: int) -> np.ndarray:
    """``labeling`` as an index array, refused unless a permutation of ``range(n)``."""
    if labeling is None:
        return np.arange(n, dtype=np.intp)
    perm = np.asarray(labeling, dtype=np.intp)
    if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
        raise ValueError(f"labeling must be a permutation of range({n})")
    return perm


def _index_rows(rows, n: int, name: str) -> np.ndarray:
    """``rows`` as an (m, n) index matrix, refused unless every entry is in ``range(n)``.

    A negative index would wrap in the gathers of the batch forms instead of
    raising.
    """
    arr = np.asarray(rows, dtype=np.intp)
    if arr.ndim != 2 or arr.shape[1] != n:
        raise ValueError(f"{name} must be (m, {n})")
    # read as unsigned, a negative entry is at least 2^63: one pass checks both ends
    if arr.size and arr.view(np.uintp).max() >= n:
        raise ValueError(f"{name} must index range({n})")
    return arr


def _by_row_slices(rows: np.ndarray, per_row: int, block_values, columns=()) -> np.ndarray:
    """``block_values`` over slices of ``rows``, concatenated into one float array.

    ``per_row`` is the number of temporary entries ``block_values`` holds per
    row; each slice has about ``CHUNK_ENTRIES`` of them (at least one row),
    so an evaluator's memory is bounded like the index chunk it is handed.
    ``columns`` is the shape of one row's values, ``(K,)`` for K statistics.

    When all rows are worth a helper thread (`_worth_a_helper`), each slice
    is cut into up to four pieces, and the calling thread and the helper
    evaluate the pieces (`share_tasks`), each writing its own rows of the
    result: the two threads hold about half the budget.  ``block_values``
    must give a row the same bits wherever its rows are cut.
    """
    m = rows.shape[0]
    step = max(1, CHUNK_ENTRIES // max(per_row, 1))
    out = np.empty((m, *columns), dtype=float)
    if not _worth_a_helper(m, per_row):
        for start in range(0, m, step):
            out[start : start + step] = block_values(rows[start : start + step])
        return out
    bounds = [cut for start in range(0, m, step) for cut in _pieces(start, min(step, m - start))]
    bounds.append(m)

    def evaluate_piece(j: int) -> None:
        out[bounds[j] : bounds[j + 1]] = block_values(rows[bounds[j] : bounds[j + 1]])

    share_tasks(evaluate_piece, len(bounds) - 1)
    return out


def _worth_a_helper(m: int, per_row: int) -> bool:
    """Whether ``m`` rows of ``per_row`` temporary entries are worth a helper thread.

    They must hold more than a quarter of ``CHUNK_ENTRIES``, and a helper
    thread must be usable: smaller evaluations, a simulation trial's say,
    cost less than starting the helper.
    """
    return m * per_row > CHUNK_ENTRIES // 4 and helper_thread_usable()


def _blas_on_one_thread() -> bool:
    """Whether BLAS runs on one thread, as read from the variables BLAS reads.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` and MKL ``MKL_NUM_THREADS``, each
    falling back to ``OMP_NUM_THREADS`` when its own is unset or empty.
    """
    omp = os.environ.get("OMP_NUM_THREADS")
    return any(
        (os.environ.get(var) or omp or "").strip() == "1"
        for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    )


def _pieces(start: int, size: int) -> list[int]:
    """Starts of up to four near-equal pieces of rows ``start .. start + size``."""
    parts = min(4, size)
    return [start + size * i // parts for i in range(parts)]


def two_sample_u(
    gram: GramMatrix, n1: int, n2: int, labeling: np.ndarray | None = None
) -> float:
    """Two-sample U-statistic from a pooled Gram matrix, O(n^2).

    Equals the quadruple sum over the four-term kernel by expansion:
    within-group ordered-pair averages minus twice the cross-group average.
    """
    return float(two_sample_u_many(gram, n1, n2, _identity_if_none(labeling, n1 + n2)[None])[0])


def two_sample_u_many(
    gram: GramMatrix, n1: int, n2: int, labelings: np.ndarray
) -> np.ndarray:
    """`two_sample_u` over a stack of labelings (rows).

    A row's first ``n1`` entries pick group one, as the 0/1 mask row m; they
    must be distinct.  The within-group sum m^T G m is read from the tiles
    of the symmetric G on and above its diagonal, over ceil(n / 256)
    near-equal bands of points: each diagonal tile once, each tile above it
    twice (for its mirror), added in one fixed order; the cross-group sum is
    m^T G 1 - m^T G m, with G 1 summed once.  That is 5/8 of the full
    product's multiply-adds at four bands.  A tile product may round a row
    by its place in the slice, so the rows go in whole slices of about
    ``CHUNK_ENTRIES`` temporary entries.  When a slice's rows are worth a
    helper thread (`_worth_a_helper`) and BLAS runs on one thread
    (`_blas_on_one_thread`), the calling thread and the helper share its
    tiles (`share_tasks`); otherwise the calling thread runs them, in the
    same order.  Each tile product's shape depends only on n and the slice,
    so every value is the same bit for bit whichever thread ran its tiles.
    """
    if n1 < 2 or n2 < 2:
        raise ValueError("two_sample_u requires n1 >= 2 and n2 >= 2")
    n = n1 + n2
    if gram.n != n or not gram.diagonal_zeroed:
        raise ValueError("gram must be zero-diagonal over n1 + n2 points")
    perms = _index_rows(labelings, n, "labelings")
    g = gram.values
    total = float(g.sum())
    row_sums = g.sum(axis=1)
    bands = -(-n // _BAND_POINTS)
    cuts = [slice(n * i // bands, n * (i + 1) // bands) for i in range(bands)]
    tiles = [(cuts[a], cuts[b], 1.0 if a == b else 2.0)
             for a in range(bands) for b in range(a, bands)]
    per_row = 2 * n  # the mask and one tile product per thread

    def block_values(block: np.ndarray) -> np.ndarray:
        m = block.shape[0]
        mask1 = np.zeros((m, n), dtype=float)
        np.put_along_axis(mask1, block[:, :n1], 1.0, axis=1)
        if (mask1.sum(axis=1) != n1).any():
            raise ValueError(f"each labeling's first n1 = {n1} entries must be distinct")
        within = np.empty((len(tiles), m))

        def tile_sum(j: int) -> None:
            rows, cols, factor = tiles[j]
            p = mask1[:, rows] @ g[rows, cols]
            within[j] = factor * np.einsum("ij,ij->i", p, mask1[:, cols])

        if _worth_a_helper(m, per_row) and _blas_on_one_thread():
            share_tasks(tile_sum, len(tiles))
        else:
            for j in range(len(tiles)):
                tile_sum(j)
        within1 = within.sum(axis=0)
        cross = mask1 @ row_sums - within1
        within2 = total - 2.0 * cross - within1
        return (
            within1 / (n1 * (n1 - 1))
            + within2 / (n2 * (n2 - 1))
            - 2.0 * cross / (n1 * n2)
        )

    step = max(1, CHUNK_ENTRIES // per_row)
    out = np.empty(perms.shape[0])
    for start in range(0, perms.shape[0], step):
        out[start : start + step] = block_values(perms[start : start + step])
    return out


def two_sample_u_naive(
    y, z, kernel: KernelSpec, labeling: np.ndarray | None = None
) -> float:
    """Literal quadruple sum over the four-term two-sample kernel.

    Oracle-scale only (pooled size capped); used to certify the fast forms.
    """
    y_arr = np.asarray(y)
    z_arr = np.asarray(z)
    n1, n2 = len(y_arr), len(z_arr)
    n = n1 + n2
    if n > NAIVE_TWO_SAMPLE_LIMIT:
        raise ValueError(f"naive oracle refuses pooled size {n} > {NAIVE_TWO_SAMPLE_LIMIT}")
    if n1 < 2 or n2 < 2:
        raise ValueError("two_sample_u_naive requires n1 >= 2 and n2 >= 2")
    pooled = np.concatenate([y_arr, z_arr])
    perm = _identity_if_none(labeling, n)
    ys = [pooled[perm[i]] for i in range(n1)]
    zs = [pooled[perm[n1 + j]] for j in range(n2)]
    terms = []
    for i1 in range(n1):
        for i2 in range(n1):
            if i1 == i2:
                continue
            for j1 in range(n2):
                for j2 in range(n2):
                    if j1 == j2:
                        continue
                    terms.append(
                        kernel_eval(kernel, ys[i1], ys[i2])
                        + kernel_eval(kernel, zs[j1], zs[j2])
                        - kernel_eval(kernel, ys[i1], zs[j2])
                        - kernel_eval(kernel, ys[i2], zs[j1])
                    )
    denom = n1 * (n1 - 1) * n2 * (n2 - 1)
    return math.fsum(terms) / denom


def multinomial_two_sample_u(
    counts_y, counts_z, weights: np.ndarray | None = None
) -> float:
    """O(d) two-sample U-statistic from per-category counts.

    Unweighted (weights None) this is the unbiased estimator of the squared
    l2 distance between the two category distributions; with flattening
    weights each category is scaled by 1/w_k.
    """
    cy = np.asarray(counts_y)
    cz = np.asarray(counts_z)
    if cy.shape != cz.shape or cy.ndim != 1:
        raise ValueError("count vectors must be 1-D with matching length")
    cy = _as_counts(cy, "counts_y")
    cz = _as_counts(cz, "counts_z")
    inv_w = None if weights is None else 1.0 / np.asarray(weights, dtype=float)
    return float(multinomial_two_sample_u_counts(cy + cz, int(cy.sum()), cy[None], inv_w)[0])


def multinomial_two_sample_u_many(
    codes: np.ndarray, n1: int, n2: int, rows: np.ndarray, inv_weights: np.ndarray | None = None
) -> np.ndarray:
    """`multinomial_two_sample_u` over a stack of labelings of the n1 + n2 pooled codes.

    Each row's first ``n1`` positions pick group one; ``inv_weights``, when
    given, has one entry per code ``0 .. u - 1``.
    """
    codes, perms = _pooled_codes(codes, n1, n2, rows)
    totals = np.bincount(codes)
    u = totals.size

    def block_values(block: np.ndarray) -> np.ndarray:
        c1 = bincount_rows(codes[block[:, :n1]], u)
        return _two_sample_of_counts(c1, totals, n1, n2, inv_weights)

    return _by_row_slices(perms, u, block_values)


def multinomial_two_sample_u_nested(
    codes: np.ndarray, n1: int, n2: int, rows: np.ndarray, ends
) -> np.ndarray:
    """`multinomial_two_sample_u_many` on K nested partitions of the codes at once, (m, K).

    ``codes`` (``0 .. u - 1``) number the finest partition's cells so that
    each cell of a coarser partition j is a run of codes; ``ends[j]`` lists
    the runs' exclusive ends, increasing up to u.  One pass serves every
    partition: each slice of rows is counted once into a code-major
    (u + 1, m) table of running first-group counts, so a run's counts are
    the difference of two contiguous table rows, and each partition's sums
    are one add over its runs.  As the c1 sum to n1, S2 = n1 + sum c1(c1-1)
    and P = n1 + sum c1(t-1): a run holding at most one pooled point adds
    to neither, so only runs with t >= 2 are gathered.  The rows are counted
    in pieces of about ``_PIECE_ENTRIES`` table and gather entries, on the
    calling thread: a helper thread measured slower on them.
    """
    codes, perms = _pooled_codes(codes, n1, n2, rows)
    totals = np.bincount(codes)
    u = totals.size
    refusal = f"each ends array must increase strictly up to u = {u}"
    sizes = np.fromiter(map(np.size, ends), np.intp, len(ends))
    try:
        flat = np.concatenate(ends).astype(np.intp)
    except ValueError:  # no arrays, or arrays of mixed dimensions
        raise ValueError(refusal) from None
    if flat.ndim != 1 or not sizes.all():
        raise ValueError(refusal)
    lasts = np.cumsum(sizes) - 1  # each partition's last run in ``flat``
    firsts = lasts + 1 - sizes
    starts = np.concatenate(([0], flat[:-1]))  # each run's start: the previous run's end
    starts[firsts] = 0  # or 0 for a partition's first run
    if (flat <= starts).any() or (flat[lasts] != u).any():
        raise ValueError(refusal)
    running_totals = np.concatenate(([0], np.cumsum(totals)))
    t = running_totals[flat] - running_totals[starts]
    kept = t >= 2
    hi, lo, t = flat[kept], starts[kept], t[kept]
    per_grid = np.add.reduceat(kept, firsts, dtype=np.intp)
    has_runs = per_grid > 0
    offsets = (np.cumsum(per_grid) - per_grid)[has_runs]

    def grid_sums(terms: np.ndarray) -> np.ndarray:
        """Each partition's sum of the kept runs' ``terms`` (rows), 0 where it keeps none."""
        sums = np.zeros((sizes.size, *terms.shape[1:]), dtype=np.int64)
        if offsets.size:
            sums[has_runs] = np.add.reduceat(terms, offsets, axis=0)
        return sums

    tt = grid_sums(t * (t - 1))
    shifted = codes.astype(np.intp) + 1
    t_minus_1 = (t - 1)[:, None]
    per_row = u + 1 + 2 * hi.size  # the running table, then the two gathers of the kept runs
    piece = max(1, _PIECE_ENTRIES // per_row)
    out = np.empty((perms.shape[0], sizes.size))
    for start in range(0, perms.shape[0], piece):
        block = perms[start : start + piece]
        m = block.shape[0]
        keys = shifted[block[:, :n1]]
        keys *= m
        keys += np.arange(m)[:, None]
        running = np.bincount(keys.ravel(), minlength=(u + 1) * m).reshape(u + 1, m)
        np.cumsum(running, axis=0, out=running)
        c1 = running.take(hi, axis=0)
        terms = running.take(lo, axis=0)
        c1 -= terms
        p = grid_sums(np.multiply(c1, t_minus_1, out=terms))
        s2 = grid_sums(np.multiply(np.subtract(c1, 1, out=terms), c1, out=terms))
        out[start : start + m] = _two_sample_of_sums((s2 + n1).T, (p + n1).T, tt, n1, n2)
    return out


def _pooled_codes(codes, n1: int, n2: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """``codes`` and the index ``rows`` of a two-sample batch form, refused unless they fit."""
    if n1 < 2 or n2 < 2:
        raise ValueError("multinomial_two_sample_u requires n1 >= 2 and n2 >= 2")
    codes = np.asarray(codes)
    if codes.shape != (n1 + n2,):
        raise ValueError(f"codes must hold n1 + n2 = {n1 + n2} values")
    return codes, _index_rows(rows, n1 + n2, "rows")


def multinomial_two_sample_u_counts(
    totals: np.ndarray, n1: int, rows: np.ndarray, inv_weights: np.ndarray | None = None
) -> np.ndarray:
    """`multinomial_two_sample_u` over a stack of first-group count vectors.

    ``totals`` holds the pooled count of each of u categories, and each row
    of the (m, u) ``rows`` the counts the first group takes of them:
    integers in [0, ``totals``] summing to ``n1``; the second group holds
    the rest.  ``inv_weights``, when given, has one entry per category.
    """
    totals = np.asarray(totals)
    if totals.ndim != 1:
        raise ValueError("totals must be 1-D")
    totals = _as_counts(totals, "totals")
    n2 = int(totals.sum()) - n1
    if n1 < 2 or n2 < 2:
        raise ValueError("multinomial_two_sample_u requires n1 >= 2 and n2 >= 2")
    c1_rows = np.asarray(rows)
    if c1_rows.ndim != 2 or c1_rows.shape[1] != totals.size:
        raise ValueError(f"rows must be (m, {totals.size})")
    if c1_rows.dtype.kind in "iu":
        c1_rows = c1_rows.astype(np.int64, copy=False)
    else:
        c1_rows = _as_counts(c1_rows, "rows")
    # read as unsigned, a negative count exceeds every total: one pass checks both bounds
    within = (c1_rows.view(np.uint64) <= totals.view(np.uint64)).all()
    if not (within and (c1_rows.sum(axis=1) == n1).all()):
        raise ValueError(
            f"each count row must be nonnegative, stay within totals and sum to n1 = {n1}"
        )
    return _by_row_slices(c1_rows, totals.size,
                          lambda c1: _two_sample_of_counts(c1, totals, n1, n2, inv_weights))


def _two_sample_of_counts(c1, totals, n1: int, n2: int, inv_weights=None) -> np.ndarray:
    """The multinomial two-sample U-statistic of each int64 first-group count row.

    The flattening weights of the l1-split tests scale each category's
    integer term of D U (see `_two_sample_terms`), each row summed pairwise on
    its own: a BLAS mat-vec, or an ``einsum`` past 8192 entries, would round
    a row by its place in the slice.
    """
    if inv_weights is None:
        s2 = (c1 * c1).sum(axis=1)
        return _two_sample_of_sums(s2, c1 @ totals, int(totals @ (totals - 1)), n1, n2)
    q, r, b_minus_a, b, den, fits = _two_sample_terms(n1, n2)
    if not fits:
        c1, totals = c1.astype(object), totals.astype(object)
    per_category = (q * c1 - (r * totals - b_minus_a)) * c1 + b * totals * (totals - 1)
    weighted = per_category.astype(float)
    weighted *= np.asarray(inv_weights, dtype=float)
    return weighted.sum(axis=1) / den


def _two_sample_of_sums(s2, p, tt, n1: int, n2: int) -> np.ndarray:
    """The unweighted statistic from int64 S2 = sum c1^2, P = sum c1 t and tt = sum t(t-1).

    D U = Q S2 - R P + (B - A) n1 + B tt, divided once, so U is correctly
    rounded while D and the numerator are below 2^53.  ``tt`` broadcasts.
    """
    q, r, b_minus_a, b, den, fits = _two_sample_terms(n1, n2)
    if not fits:
        s2, p, tt = (np.asarray(x).astype(object) for x in (s2, p, tt))
    num = q * s2 - r * p + (b_minus_a * n1 + b * tt)
    return np.asarray(num / den, dtype=float)


def _two_sample_terms(n1: int, n2: int) -> tuple:
    """``(Q, R, B - A, B, D, fits)`` of the integer two-sample numerator D U.

    With A = n2(n2-1), B = n1(n1-1), C = (n1-1)(n2-1) and D = AB, a category
    with pooled count t adds A c1(c1-1) + B c2(c2-1) - 2C c1 c2 =
    Q c1^2 - (R t + A - B) c1 + B t(t-1) to D U, Q = A + B + 2C and
    R = 2(B + C).  ``fits`` says that S2 <= n1^2, P <= n1 n and
    sum t(t-1) <= n^2 keep every partial sum in int64 (n = n1 + n2 up to
    about 55,000); past that the callers use Python integers.
    """
    n = n1 + n2
    a, b, c = n2 * (n2 - 1), n1 * (n1 - 1), (n1 - 1) * (n2 - 1)
    q, r = a + b + 2 * c, 2 * (b + c)
    fits = q * n1 * n1 + r * n1 * n + abs(b - a) * n1 + b * n * n < 2**63
    return q, r, b - a, b, a * b, fits


def _indep_from_sums(n: int, s1, r, ty, tz):
    # s1 and r are scalars or arrays of one value per relabeling (and per grid, with ty
    # and tz one per grid).  Closed form for the fourth-order product-kernel U-statistic.
    # The 16 expansion terms split by index overlap of the two kernel pairs: identical
    # pair (4 terms, +, weight (n-2)(n-3)), one shared index (8 terms, -, weight (n-3),
    # pair sum S2 = R - S1), disjoint (4 terms, +, pair sum S3 = Ty*Tz - 2*S1 - 4*S2),
    # which collapses to the line below.
    n4 = n * (n - 1) * (n - 2) * (n - 3)
    return (4.0 * (n - 1) * (n - 2) * s1 - 8.0 * (n - 1) * r + 4.0 * ty * tz) / n4


def independence_u(
    gram_y: GramMatrix, gram_z: GramMatrix, z_relabeling: np.ndarray | None = None
) -> float:
    """Fourth-order product-kernel U-statistic in O(n^2).

    ``z_relabeling`` pairs y_i with z_{perm[i]}.  Certified against
    `independence_u_naive` in the test suite.
    """
    perm = _identity_if_none(z_relabeling, gram_y.n)
    return float(independence_u_many(gram_y, gram_z, perm[None])[0])


def independence_u_many(
    gram_y: GramMatrix, gram_z: GramMatrix, z_relabelings: np.ndarray
) -> np.ndarray:
    """`independence_u` over a stack of z-relabelings (rows), each a permutation."""
    if gram_y.n != gram_z.n:
        raise ValueError("gram matrices must cover the same n points")
    if not (gram_y.diagonal_zeroed and gram_z.diagonal_zeroed):
        raise ValueError("independence_u requires zero-diagonal Gram matrices")
    n = gram_y.n
    if n < 4:
        raise ValueError("independence_u requires n >= 4")
    perms = _index_rows(z_relabelings, n, "z_relabelings")
    ky, kz = gram_y.values, gram_z.values
    kz_flat = kz.ravel()
    row_y, row_z = ky.sum(axis=1), kz.sum(axis=1)
    ty, tz = float(row_y.sum()), float(row_z.sum())

    # one check before slicing, in row blocks whose shifted codes and counts
    # hold about CHUNK_ENTRIES entries: checked piece by piece, the many
    # small pieces of a threaded evaluation made it about 8 times dearer
    step = max(1, CHUNK_ENTRIES // (2 * n))
    for start in range(0, perms.shape[0], step):
        if (bincount_rows(perms[start : start + step], n) != 1).any():
            raise ValueError(f"each z_relabeling must be a permutation of range({n})")

    def block_values(block: np.ndarray) -> np.ndarray:
        # kz[block[:, :, None], block[:, None, :]] as one 1-D gather on the
        # raveled matrix: the same entries, much faster than a 2-D fancy index
        kz_p = kz_flat.take(np.multiply(block, n)[:, :, None] + block[:, None, :])
        s1 = np.multiply(kz_p, ky, out=kz_p).sum(axis=(1, 2))
        r = (row_y * row_z[block]).sum(axis=1)
        return _indep_from_sums(n, s1, r, ty, tz)

    return _by_row_slices(perms, 2 * n * n, block_values)  # the flat index and the gathered kz_p


def independence_u_naive(
    y_points,
    z_points,
    kernel_y: KernelSpec,
    kernel_z: KernelSpec,
    z_relabeling: np.ndarray | None = None,
) -> float:
    """Literal sum of the product kernel over all distinct index 4-tuples."""
    y_arr = np.asarray(y_points)
    z_arr = np.asarray(z_points)
    n = len(y_arr)
    if len(z_arr) != n:
        raise ValueError("paired data must have equal lengths")
    if n > NAIVE_INDEPENDENCE_LIMIT:
        raise ValueError(f"naive oracle refuses n {n} > {NAIVE_INDEPENDENCE_LIMIT}")
    if n < 4:
        raise ValueError("independence_u_naive requires n >= 4")
    perm = _identity_if_none(z_relabeling, n)
    gy = np.array(
        [[kernel_eval(kernel_y, y_arr[i], y_arr[j]) for j in range(n)] for i in range(n)]
    )
    gz_raw = np.array(
        [[kernel_eval(kernel_z, z_arr[i], z_arr[j]) for j in range(n)] for i in range(n)]
    )
    gz = gz_raw[np.ix_(perm, perm)]
    terms = []
    for i1, i2, i3, i4 in itertools.permutations(range(n), 4):
        hy = gy[i1, i2] + gy[i3, i4] - gy[i1, i3] - gy[i2, i4]
        hz = gz[i1, i2] + gz[i3, i4] - gz[i1, i3] - gz[i2, i4]
        terms.append(hy * hz)
    n4 = n * (n - 1) * (n - 2) * (n - 3)
    return math.fsum(terms) / n4


def multinomial_independence_u(
    y, z, d1: int, d2: int, z_relabeling: np.ndarray | None = None
) -> float:
    """Count-based O(n + d1*d2) form of `independence_u` for indicator kernels.

    ``y`` holds codes in ``0 .. d1 - 1`` and ``z`` codes in ``0 .. d2 - 1``.
    """
    y_arr = _validate_domain(y, Categorical(d1), "y")
    z_arr = _validate_domain(z, Categorical(d2), "z")
    perm = _identity_if_none(z_relabeling, y_arr.size)
    return float(multinomial_independence_u_many(y_arr, z_arr, perm[None])[0])


def multinomial_independence_u_many(
    y_codes: np.ndarray, z_codes: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """`multinomial_independence_u` over a stack of z-relabelings (rows).

    ``(n,)`` codes give (m,) values; ``(K, n)`` codes, K pairs (grids, say)
    relabeled by the same rows, give (m, K).  The widths are read from the
    codes.  Uses the O(n) count reduction of the closed form (pair-match
    counts, row-sum dot products, invariant totals): a slice's K joint
    tables are one offset ``bincount``, pair k's cells after pair k - 1's,
    and pair k's S1 is a row-wise sum of its squared cells.  T_y and T_z sum
    the kernels' row sums at the points, cy[y] - 1 and cz[z] - 1, and R is
    sum_i (cy[y_i] - 1)(cz[z_perm(i)] - 1), one integer ``einsum`` for all K
    pairs.  All are integers, exact in floats, so column k is pair k's value alone.
    """
    y, z = np.asarray(y_codes), np.asarray(z_codes)
    if y.shape != z.shape or y.ndim not in (1, 2) or not y.size:
        raise ValueError("y and z codes must be paired (n,) or (K, n) arrays")
    n = y.shape[-1]
    if n < 4:
        raise ValueError("independence U-statistic requires n >= 4")
    perms = _index_rows(rows, n, "rows")
    # narrow codes would overflow in the keys; float codes raise TypeError, as in np.bincount
    ys, zs = (c.reshape(-1, n).astype(np.intp, copy=False, casting="same_kind") for c in (y, z))
    row_y, row_z, y_keys, pairs, total = [], [], [], [], 0
    for a, b in zip(ys, zs):
        cy, cz = np.bincount(a), np.bincount(b)
        row_y.append(cy[a] - 1)  # the indicator kernel's row sums at the points
        row_z.append(cz[b] - 1)
        y_keys.append(a * cz.size + total)
        pairs.append(slice(total, total + cy.size * cz.size))  # pair k's joint cells
        total += cy.size * cz.size
    row_y, row_z, y_keys = np.array(row_y), np.array(row_z), np.array(y_keys)[:, None, :]
    ty, tz = row_y.sum(axis=1), row_z.sum(axis=1)

    def block_values(block: np.ndarray) -> np.ndarray:
        r = np.einsum("kmi,ki->mk", row_z.take(block, axis=1), row_y)  # freed before the keys
        keys = zs.take(block, axis=1)  # (K, m, n)
        keys += y_keys
        keys += (np.arange(len(block)) * total)[:, None]  # row i's cells after the rows before
        joint = np.bincount(keys.ravel(), minlength=len(block) * total).reshape(-1, total)
        s1 = np.empty((len(block), len(pairs)), dtype=joint.dtype)
        for k, cells in enumerate(pairs):
            np.einsum("ij,ij->i", joint[:, cells], joint[:, cells], out=s1[:, k])
        return _indep_from_sums(n, s1 - n, r, ty, tz)

    # the gathered keys and the joint table
    values = _by_row_slices(perms, total + len(pairs) * n, block_values, (len(pairs),))
    return values if y.ndim == 2 else values[:, 0]


def poisson_chisq(
    counts: PoissonCounts, relabeling: np.ndarray | None = None
) -> float:
    """Centered chi-square statistic, optionally under individual relabeling.

    sum_k [(Delta_k^2 - V_k - W_k) / (V_k + W_k)] over categories with a
    positive pooled total, where Delta_k is the difference of the two group
    sums after relabeling the 2n individuals.  The pooled totals V_k + W_k
    are relabeling-invariant.
    """
    n = counts.group_size
    pooled = np.vstack([counts.y_individual, counts.z_individual])
    return float(poisson_chisq_many(pooled, n, _identity_if_none(relabeling, 2 * n)[None])[0])


def poisson_chisq_many(pooled: np.ndarray, group_size: int, rows: np.ndarray) -> np.ndarray:
    """`poisson_chisq` over a stack of relabelings of the 2n pooled count rows.

    Each row's first ``group_size`` positions pick group one.  ``pooled`` is
    refused unless its counts are integers, nonnegative and below 2^63.
    """
    pooled = _count_rows(pooled, "pooled")
    if pooled.shape[0] != 2 * group_size:
        raise ValueError(f"pooled must hold 2 * {group_size} count rows")
    perms = _index_rows(rows, 2 * group_size, "rows")
    totals = pooled.sum(axis=0).astype(float)
    mask = totals > 0
    positive = totals[mask]

    def block_values(block: np.ndarray) -> np.ndarray:
        first = pooled[block[:, :group_size]].sum(axis=1).astype(float)
        delta = 2.0 * first[:, mask] - positive
        return ((delta**2 - positive) / positive).sum(axis=1)

    return _by_row_slices(perms, group_size * pooled.shape[1], block_values)


def linear_stat(y, z, relabeling: np.ndarray | None = None) -> float:
    """Permuted sample covariance (1/n) sum_i (y_i - ybar)(z_{perm_i} - zbar)."""
    return float(linear_stat_many(y, z, _identity_if_none(relabeling, np.size(y))[None])[0])


def linear_stat_many(y, z, relabelings: np.ndarray) -> np.ndarray:
    """`linear_stat` over a stack of relabelings (rows)."""
    a, b = _centered_pair(y, z)
    n = a.size
    perms = _index_rows(relabelings, n, "relabelings")
    # the gathered b; each row summed on its own, as in `_two_sample_of_counts`
    return _by_row_slices(perms, n, lambda block: (b[block] * a).sum(axis=1) / n)


def _centered_pair(y, z) -> tuple[np.ndarray, np.ndarray]:
    """y and z minus their means, after checking equal lengths and n >= 2."""
    y_arr = np.asarray(y, dtype=float)
    z_arr = np.asarray(z, dtype=float)
    if z_arr.size != y_arr.size:
        raise ValueError("y and z must have equal lengths")
    if y_arr.size < 2:
        raise ValueError("linear_stat requires n >= 2")
    return y_arr - y_arr.mean(), z_arr - z_arr.mean()
