"""Named permutation test procedures.

Each procedure wires a statistic (count-based or Gram-based), optional
binning or sample splitting, and a :class:`~permkit.perm_core.PermutationPlan`
into a finished decision.  This module reduces the data (binning,
compressing codes, Gram matrices) and wires it to a statistic; every
statistic formula lives in ``ustats``.  An evaluator is one record,
``_Evaluator``, whose ``evaluate_many(data, rows)`` is a closure over a
``ustats`` batch form: a pure function of the reduced data and a matrix of
rows (index rows, or count rows for ``GroupCounts`` data, below), so no
replicate re-touches a kernel.  Two-sample evaluators also declare
``subset_size``, the first group's size: their values depend only on which
points land in that group, so an exact plan enumerates subsets, not all n!
permutations (see ``perm_core``).  Under a Monte Carlo plan the
multinomial two-sample test and both l1-split tests hand their compressed
codes to ``perm_core`` as ``GroupCounts``, so their rows are first-group
count vectors, drawn without building an index row.  Binned and holder
tests keep index rows, so that each adaptive component (below) stays the
binned test on the same rows.

Binned procedures discretize ``[0, 1]^dim`` with equal cells, count of cells
per axis chosen from the smoothness-driven rules ``two_sample_bin_count``
and ``independence_bin_count``.  Adaptive procedures sweep a dyadic grid of
cell counts and Bonferroni-split the level across it.  All of their
components are decided on one set of relabelings, the caller's plan: one
stacked evaluator returns every kappa's statistic for each index row, so
replicate i is the same permutation for every kappa, and each component
equals the binned test at that kappa, the split level and the same plan.
The adaptive two-sample evaluator counts each index row once, on the
finest grid, whose cells it numbers in Morton (Z-)order: every cell of a
coarser dyadic grid is then one run of fine cells, and one pass over a
table of running fine counts gives every grid's run counts, skipping runs
of a single pooled point, which add nothing to the statistic
(``multinomial_two_sample_u_nested``).  The adaptive independence test
hands its grids' codes as two (K, n) stacks to the evaluator of every count
independence test: one ``multinomial_independence_u_many`` call for K grids.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from . import perm_core
from .kernels import Gaussian, gram, product_weights, split_weights
from .perm_core import GroupCounts, PermutationPlan, TestOutcome
from .ustats import (
    Categorical,
    Continuous,
    PairedSample,
    PoissonCounts,
    TwoSamplePooled,
    independence_u_many,
    multinomial_independence_u_many,
    multinomial_two_sample_u_counts,
    multinomial_two_sample_u_many,
    multinomial_two_sample_u_nested,
    poisson_chisq_many,
    two_sample_u_many,
)

__all__ = [
    "BinGrid",
    "AdaptiveGrid",
    "AdaptiveOutcome",
    "SmoothnessRule",
    "bin_data",
    "two_sample_bin_count",
    "independence_bin_count",
    "adaptive_grid_two_sample",
    "adaptive_grid_independence",
    "mmd_bandwidths",
    "hsic_bandwidths",
    "binned_two_sample",
    "binned_independence",
    "multinomial_l2_two_sample",
    "multinomial_l2_independence",
    "holder_two_sample",
    "holder_independence",
    "adaptive_two_sample",
    "adaptive_independence",
    "l1_split_two_sample",
    "l1_split_independence",
    "mmd_test",
    "hsic_test",
    "poisson_chisq_test",
]

GRID_CELL_CAP = 10**6  # adaptive grids drop kappa values beyond this many cells


@dataclass(frozen=True)
class BinGrid:
    """Equal-cell partition of [0, 1]^dim with ``kappa`` bins per axis."""

    kappa: int
    dim: int

    def __post_init__(self) -> None:
        for name in ("kappa", "dim"):
            object.__setattr__(self, name, _positive_integer(getattr(self, name), name))
        if self.kappa**self.dim >= 2**62:
            raise ValueError("total cell count is not representable")


def _positive_integer(value, name: str) -> int:
    """``value`` as a Python int, refused unless a positive integer (a bool is refused)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _check_smoothness(s: float) -> None:
    # written so that NaN, which compares false, fails the check
    if not 0 < s < math.inf:
        raise ValueError("smoothness s must be positive and finite")


@dataclass(frozen=True)
class SmoothnessRule:
    """Pick bandwidths from an assumed Holder/Sobolev exponent ``s``."""

    s: float

    def __post_init__(self) -> None:
        _check_smoothness(self.s)


@dataclass(frozen=True)
class AdaptiveGrid:
    """Dyadic grid of per-axis bin counts with the Bonferroni-split level.

    ``gamma_max`` is the formula value before the cell cap is applied, and
    it is what splits the level; ``kappas`` may be shorter when large bin
    counts were dropped.  Both are checked as `BinGrid` checks ``kappa``
    and stored as Python ints, ``kappas`` as a tuple.
    """

    kappas: tuple
    gamma_max: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma_max", _positive_integer(self.gamma_max, "gamma_max"))
        ks = tuple(_positive_integer(k, "kappa") for k in self.kappas)
        if not ks or any(b <= a for a, b in zip(ks, ks[1:])):
            raise ValueError("kappas must be non-empty and strictly increasing")
        object.__setattr__(self, "kappas", ks)

    def per_test_alpha(self, alpha: float) -> float:
        perm_core._check_alpha(alpha)
        return alpha / self.gamma_max


def bin_data(points, grid: BinGrid) -> np.ndarray:
    """Map points in [0, 1]^dim to 0-based flat cell codes.

    Per-axis index floor(x * kappa) with the right boundary clamped into the
    last cell; axes combined row-major (last axis fastest).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"points must be (n, {grid.dim})")
    # written so that NaN, which compares false, fails the check
    if pts.size and not (pts.min() >= 0.0 and pts.max() <= 1.0):
        raise ValueError("coordinates must lie in [0, 1]")
    axis_idx = np.minimum((pts * grid.kappa).astype(np.int64), grid.kappa - 1)
    flat = np.zeros(pts.shape[0], dtype=np.int64)
    for j in range(grid.dim):
        flat = flat * grid.kappa + axis_idx[:, j]
    return flat


def two_sample_bin_count(n1: int, s: float, d: int) -> int:
    """Bins per axis for the binned two-sample test: floor(n1^{2/(4s+d)}), at least 1."""
    _check_smoothness(s)
    return max(1, int(math.floor(n1 ** (2.0 / (4.0 * s + d)) + 1e-9)))


def independence_bin_count(n: int, s: float, d_total: int) -> int:
    """Bins per axis for the binned independence test: floor(n^{2/(4s+d1+d2)})."""
    return two_sample_bin_count(n, s, d_total)


def _gamma_max(n: int, d_total: int) -> int:
    # natural log for the inner iterated logarithm
    if n < 3:
        raise ValueError("adaptive grid needs sample size >= 3")
    inner = math.log(math.log(n))
    if inner <= 0:
        raise ValueError("adaptive grid needs log(log(n)) > 0")
    g = math.ceil((2.0 / d_total) * math.log2(n / inner))
    if g < 1:
        raise ValueError("adaptive grid is empty for this sample size")
    return g


def adaptive_grid_two_sample(n1: int, d: int) -> AdaptiveGrid:
    """Dyadic kappa grid for the adaptive two-sample test."""
    g = _gamma_max(n1, d)
    return AdaptiveGrid(kappas=_capped_kappas(g, d), gamma_max=g)


def adaptive_grid_independence(n: int, d1: int, d2: int) -> AdaptiveGrid:
    """Dyadic kappa grid for the adaptive independence test."""
    g = _gamma_max(n, d1 + d2)
    return AdaptiveGrid(kappas=_capped_kappas(g, d1 + d2), gamma_max=g)


def _capped_kappas(gamma_max: int, dim: int) -> list[int]:
    kappas = []
    for j in range(1, gamma_max + 1):
        kappa = 2**j
        if kappa**dim > GRID_CELL_CAP:
            warnings.warn(
                f"dropping kappa={kappa} from the adaptive grid: "
                f"{kappa}^{dim} cells exceed the {GRID_CELL_CAP} cap",
                RuntimeWarning,
                stacklevel=perm_core._outside_stacklevel(),
            )
            continue
        kappas.append(kappa)
    if not kappas:
        raise ValueError("no kappa survives the grid cell cap")
    return kappas


def mmd_bandwidths(n1: int, n2: int, s: float, dim: int) -> np.ndarray:
    """Smoothness-driven Gaussian bandwidths (1/n1 + 1/n2)^{2/(4s+d)} per axis."""
    lam = (1.0 / n1 + 1.0 / n2) ** (2.0 / (4.0 * s + dim))
    return np.full(dim, lam)


def hsic_bandwidths(n: int, s: float, d1: int, d2: int) -> tuple[np.ndarray, np.ndarray]:
    """Smoothness-driven bandwidths n^{-2/(4s+d1+d2)} for both coordinates."""
    lam = float(n) ** (-2.0 / (4.0 * s + d1 + d2))
    return np.full(d1, lam), np.full(d2, lam)


def _compress(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remap codes to 0..u-1 over the values actually present.

    Categories that never occur contribute zero to every count statistic, so
    dropping them leaves all statistics unchanged while bounding work by n.
    """
    values, compressed = np.unique(codes, return_inverse=True)
    return compressed.astype(np.intp), values


@dataclass(frozen=True)
class _Evaluator:
    """A statistic as ``perm_core`` calls it; two-sample ones declare ``subset_size``."""

    evaluate_many: Callable[[Any, np.ndarray], np.ndarray]
    subset_size: int | None = None


def _count_two_sample(n1: int, n2: int, inv_weights: np.ndarray | None = None) -> _Evaluator:
    """The multinomial two-sample U-statistic on index rows of pooled compressed codes."""
    return _Evaluator(
        lambda codes, rows: multinomial_two_sample_u_many(codes, n1, n2, rows, inv_weights), n1
    )


def _group_count_test(
    codes: np.ndarray, n1: int, alpha: float, plan: PermutationPlan, inv_weights=None
) -> TestOutcome:
    """The multinomial two-sample test on pooled compressed codes, the first ``n1`` in group one.

    Under a Monte Carlo plan the codes reach ``perm_core`` as ``GroupCounts``,
    so it draws count rows instead of index rows.  An exact plan enumerates
    index rows: at the sizes it reaches (C(n, n1) at most 10! rows), turning
    each subset into a count row and checking it costs more per test than
    it saves.
    """
    if plan.mode == "exact":
        stat = _count_two_sample(n1, codes.size - n1, inv_weights)
        return perm_core.run_test(stat, codes, codes.size, plan, alpha)
    stat = _Evaluator(
        lambda counts, rows: multinomial_two_sample_u_counts(counts.totals, n1, rows, inv_weights),
        n1,
    )
    return perm_core.run_test(stat, GroupCounts(codes, n1), codes.size, plan, alpha)


# the indicator-kernel independence U-statistic on compressed (y, z) codes, z relabeled:
# one statistic for (n,) codes, one per grid for the (K, n) codes of K grids
_COUNT_INDEPENDENCE = _Evaluator(lambda codes, rows: multinomial_independence_u_many(*codes, rows))


def _require_categorical(domain, name: str) -> int:
    if not isinstance(domain, Categorical):
        raise ValueError(f"{name} must be categorical for this test")
    return domain.d


def _require_continuous(domain, name: str) -> int:
    if not isinstance(domain, Continuous):
        raise ValueError(f"{name} must be continuous for this test")
    return domain.dim


def multinomial_l2_two_sample(
    data: TwoSamplePooled, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Permutation test on the unweighted multinomial two-sample U-statistic."""
    _require_categorical(data.domain, "two-sample data")
    codes, _ = _compress(data.pooled())
    return _group_count_test(codes, data.n1, alpha, plan)


def multinomial_l2_independence(
    data: PairedSample, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Permutation test on the multinomial independence U-statistic (z permuted)."""
    _require_categorical(data.y_domain, "y")
    _require_categorical(data.z_domain, "z")
    y_codes, _ = _compress(np.asarray(data.y, dtype=np.int64))
    z_codes, _ = _compress(np.asarray(data.z, dtype=np.int64))
    return perm_core.run_test(_COUNT_INDEPENDENCE, (y_codes, z_codes), data.n, plan, alpha)


def _binned_two_sample_codes(data: TwoSamplePooled, kappa: int) -> np.ndarray:
    """Compressed pooled codes of ``data`` binned at ``kappa``."""
    grid = BinGrid(kappa=kappa, dim=data.domain.dim)
    codes, _ = _compress(np.concatenate([bin_data(data.y, grid), bin_data(data.z, grid)]))
    return codes


def _binned_independence_codes(data: PairedSample, kappas) -> tuple:
    """Compressed ``(y, z)`` codes of ``data`` binned at each of ``kappas``: two (K, n) stacks."""
    return tuple(
        np.array([_compress(bin_data(points, BinGrid(kappa, domain.dim)))[0] for kappa in kappas])
        for points, domain in ((data.y, data.y_domain), (data.z, data.z_domain))
    )


def binned_two_sample(
    data: TwoSamplePooled, kappa: int, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    _require_continuous(data.domain, "two-sample data")
    codes = _binned_two_sample_codes(data, kappa)
    return perm_core.run_test(_count_two_sample(data.n1, data.n2), codes, data.n, plan, alpha)


def holder_two_sample(
    data: TwoSamplePooled, s: float, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Binned two-sample test with the smoothness-driven cell count."""
    dim = _require_continuous(data.domain, "two-sample data")
    return binned_two_sample(data, two_sample_bin_count(data.n1, s, dim), alpha, plan)


def binned_independence(
    data: PairedSample, kappa: int, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    _require_continuous(data.y_domain, "y")
    _require_continuous(data.z_domain, "z")
    y, z = _binned_independence_codes(data, (kappa,))
    return perm_core.run_test(_COUNT_INDEPENDENCE, (y[0], z[0]), data.n, plan, alpha)


def holder_independence(
    data: PairedSample, s: float, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Binned independence test with the smoothness-driven cell count."""
    d1 = _require_continuous(data.y_domain, "y")
    d2 = _require_continuous(data.z_domain, "z")
    kappa = independence_bin_count(data.n, s, d1 + d2)
    return binned_independence(data, kappa, alpha, plan)


@dataclass(frozen=True)
class AdaptiveOutcome:
    """Decision of a smoothness-adaptive test plus its per-kappa breakdown."""

    alpha: float
    gamma_max: int
    components: tuple[tuple[int, TestOutcome], ...]

    @property
    def reject(self) -> bool:
        """The union decision: some component rejects."""
        return any(o.reject for _, o in self.components)

    @property
    def per_test_alpha(self) -> float:
        """The Bonferroni-split level every component is decided at."""
        return self.alpha / self.gamma_max

    @property
    def p_value(self) -> float:
        """Bonferroni-adjusted p-value: gamma_max * min component p, capped at 1."""
        return min(1.0, self.gamma_max * min(o.p_value for _, o in self.components))


def _adaptive(data, grid: AdaptiveGrid, alpha: float, plan: PermutationPlan, stacked, reduce):
    """Union of the binned tests over ``grid``, each at alpha / gamma_max on ``plan``'s rows.

    ``reduce(data, kappas)`` reduces the data for ``stacked``, whose column j
    is the binned statistic at ``grid.kappas[j]`` on each row.
    """
    level = grid.per_test_alpha(alpha)  # refuses alpha outside (0, 1), which run_test cannot see
    outcomes = perm_core.run_test(stacked, reduce(data, grid.kappas), data.n, plan, level)
    return AdaptiveOutcome(alpha, grid.gamma_max, tuple(zip(grid.kappas, outcomes)))


def _nested_two_sample_codes(data: TwoSamplePooled, kappas) -> tuple:
    """Compressed pooled codes on the finest dyadic grid in Morton order, and each grid's run ends.

    Bit b of the bin index on axis i is bit ``b * dim + dim - 1 - i`` of a
    cell's Morton key, so a cell at kappa = 2^j is the fine cells sharing
    the top ``j * dim`` key bits: one run of the present keys, sorted.
    """
    dim = data.domain.dim
    levels = kappas[-1].bit_length() - 1  # the finest kappa is 2^levels
    axis_grid = BinGrid(kappa=kappas[-1], dim=1)
    points = data.pooled()
    bits = np.arange(levels)
    key = np.zeros(data.n, dtype=np.int64)
    for i in range(dim):
        index = bin_data(points[:, i], axis_grid)
        key += (((index[:, None] >> bits) & 1) << (bits * dim + dim - 1 - i)).sum(axis=1)
    keys, codes = np.unique(key, return_inverse=True)
    ends = []
    for kappa in kappas:
        cells = keys >> (dim * (levels - kappa.bit_length() + 1))
        ends.append(np.append(np.flatnonzero(cells[1:] != cells[:-1]) + 1, keys.size))
    return codes.astype(np.intp), ends


def adaptive_two_sample(
    data: TwoSamplePooled, alpha: float, plan: PermutationPlan
) -> AdaptiveOutcome:
    """Union of binned two-sample tests over a dyadic kappa grid."""
    grid = adaptive_grid_two_sample(data.n1, _require_continuous(data.domain, "two-sample data"))
    n1, n2 = data.n1, data.n2
    stacked = _Evaluator(
        lambda nested, rows: multinomial_two_sample_u_nested(nested[0], n1, n2, rows, nested[1]),
        n1,
    )
    return _adaptive(data, grid, alpha, plan, stacked, _nested_two_sample_codes)


def adaptive_independence(
    data: PairedSample, alpha: float, plan: PermutationPlan
) -> AdaptiveOutcome:
    """Union of binned independence tests over a dyadic kappa grid."""
    d1 = _require_continuous(data.y_domain, "y")
    d2 = _require_continuous(data.z_domain, "z")
    grid = adaptive_grid_independence(data.n, d1, d2)
    return _adaptive(data, grid, alpha, plan, _COUNT_INDEPENDENCE, _binned_independence_codes)


def l1_split_two_sample(
    data: TwoSamplePooled, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Sample-splitting two-sample test with data-driven flattening weights.

    The groups carry 2*n1 and 2*n2 observations.  Weights come from the
    trailing min(n2, d) block of the larger group; the weighted U-statistic
    uses the leading n1 observations of each group and permutations stay
    inside those 2*n1 points.  Input order is semantically meaningful: no
    shuffling is applied before splitting.
    """
    d = _require_categorical(data.domain, "two-sample data")
    y = np.asarray(data.y, dtype=np.int64)
    z = np.asarray(data.z, dtype=np.int64)
    if len(y) % 2 or len(z) % 2:
        raise ValueError("l1_split_two_sample needs 2*n1 and 2*n2 observations")
    if len(y) > len(z):
        y, z = z, y  # weights always come from the larger group
    n1 = len(y) // 2
    n2 = len(z) // 2
    if n1 < 2:
        raise ValueError("split group size must be at least 2")
    m = min(n2, d)
    holdout = z[n2 : n2 + m]
    if holdout.size < m or m < 1:
        raise ValueError("insufficient holdout block for weight estimation")
    weights = split_weights(holdout, d)
    pooled = np.concatenate([y[:n1], z[:n1]])
    codes, kept = _compress(pooled)
    return _group_count_test(codes, n1, alpha, plan, inv_weights=1.0 / weights[kept])


def l1_split_independence(
    data: PairedSample, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Sample-splitting independence test via conversion to two-sample form.

    With 3n pairs (n even): the first n pairs are kept as joint draws, pairs
    n..2n supply the Y's and pairs 2n..3n the Z's of n product-law draws.
    Product weights come from the second halves of those blocks (Y's of
    pairs 3n/2..3n/2+m1, Z's of pairs 5n/2..5n/2+m2), the weighted
    two-sample U-statistic runs on the first halves, and permutations stay
    inside those n points.
    """
    d1 = _require_categorical(data.y_domain, "y")
    d2 = _require_categorical(data.z_domain, "z")
    total = data.n
    if total % 6:
        raise ValueError("l1_split_independence needs 3n pairs with n even")
    n = total // 3
    half = n // 2
    if half < 2:
        raise ValueError("needs at least 12 pairs so each split group has 2+")
    y = np.asarray(data.y, dtype=np.int64)
    z = np.asarray(data.z, dtype=np.int64)
    joint = np.stack([y[:half], z[:half]], axis=1)
    product = np.stack([y[n : n + half], z[2 * n : 2 * n + half]], axis=1)
    m1 = min(half, d1)
    m2 = min(half, d2)
    pw = product_weights(
        y[3 * n // 2 : 3 * n // 2 + m1], z[5 * n // 2 : 5 * n // 2 + m2], d1, d2
    )
    pair_codes = np.concatenate(
        [joint[:, 0] * d2 + joint[:, 1], product[:, 0] * d2 + product[:, 1]]
    )
    codes, kept = _compress(pair_codes)
    inv_w = 1.0 / (pw.row_weights[kept // d2] * pw.col_weights[kept % d2])
    return _group_count_test(codes, half, alpha, plan, inv_weights=inv_w)


def _resolve_bandwidths(bandwidths, dim: int, resolver) -> np.ndarray:
    if isinstance(bandwidths, SmoothnessRule):
        return resolver(bandwidths.s)
    lam = np.atleast_1d(np.asarray(bandwidths, dtype=float))
    if lam.size == 1 and dim > 1:
        lam = np.full(dim, float(lam[0]))
    if lam.shape != (dim,):
        raise ValueError(f"expected {dim} bandwidths")
    if not np.all((lam > 0) & (lam < np.inf)):
        raise ValueError("bandwidths must be positive and finite")
    return lam


def mmd_test(
    data: TwoSamplePooled,
    bandwidths,
    alpha: float,
    plan: PermutationPlan,
) -> TestOutcome:
    """Gaussian-kernel two-sample permutation test.

    ``bandwidths`` is either an explicit per-axis array or a
    :class:`SmoothnessRule`, which sets every axis to
    (1/n1 + 1/n2)^{2/(4s+d)}.
    """
    dim = _require_continuous(data.domain, "two-sample data")
    lam = _resolve_bandwidths(
        bandwidths, dim, lambda s: mmd_bandwidths(data.n1, data.n2, s, dim)
    )
    g = gram(Gaussian(lam), data.pooled(), zero_diagonal=True)
    # two_sample_u_many is looked up when the test runs, so it can be wrapped
    stat = _Evaluator(lambda gm, rows: two_sample_u_many(gm, data.n1, data.n2, rows), data.n1)
    return perm_core.run_test(stat, g, data.n, plan, alpha)


def hsic_test(
    data: PairedSample,
    bandwidths_y,
    bandwidths_z,
    alpha: float,
    plan: PermutationPlan,
) -> TestOutcome:
    """Gaussian-kernel independence permutation test (z permuted).

    Passing a :class:`SmoothnessRule` for either side sets all bandwidths to
    n^{-2/(4s+d1+d2)}.
    """
    d1 = _require_continuous(data.y_domain, "y")
    d2 = _require_continuous(data.z_domain, "z")

    def rule(s: float) -> tuple[np.ndarray, np.ndarray]:
        return hsic_bandwidths(data.n, s, d1, d2)

    lam_y = _resolve_bandwidths(bandwidths_y, d1, lambda s: rule(s)[0])
    lam_z = _resolve_bandwidths(bandwidths_z, d2, lambda s: rule(s)[1])
    gy = gram(Gaussian(lam_y), data.y, zero_diagonal=True)
    gz = gram(Gaussian(lam_z), data.z, zero_diagonal=True)
    stat = _Evaluator(lambda grams, rows: independence_u_many(*grams, rows))
    return perm_core.run_test(stat, (gy, gz), data.n, plan, alpha)


def poisson_chisq_test(
    counts: PoissonCounts, alpha: float, plan: PermutationPlan
) -> TestOutcome:
    """Permutation test on the centered chi-square statistic.

    Relabels the 2n per-individual count rows; :class:`PoissonCounts`
    enforces equal group sizes.
    """
    n = counts.group_size
    pooled = np.vstack([counts.y_individual, counts.z_individual])
    stat = _Evaluator(lambda pooled, rows: poisson_chisq_many(pooled, n, rows), n)
    return perm_core.run_test(stat, pooled, 2 * n, plan, alpha)
