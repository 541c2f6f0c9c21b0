"""Computable concentration quantities and explicit tail bounds.

Two families live here:

* Scale quantities for permuted U-statistics (``sigma_two_sample_upper``,
  ``sigma_indep_uppers``, ``lambda_m``) whose tail bounds hold only up to
  unspecified universal constants; :func:`exponential_tail_shape` exposes the
  bound shape with a caller-supplied constant, and ``sigma_indep_exact``
  brute-forces the underlying supremum at oracle scale.
* Explicit-constant exponential bounds for the permuted linear statistic
  (``hoeffding_linear_bound``, ``bernstein_linear_bound``), directly
  checkable against Monte Carlo tails via :func:`empirical_tail_check`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .kernels import GramMatrix

__all__ = [
    "ConcStats",
    "TailReport",
    "sigma_two_sample_upper",
    "sigma_indep_uppers",
    "sigma_indep_exact",
    "lambda_m",
    "exponential_tail_shape",
    "hoeffding_linear_bound",
    "bernstein_linear_bound",
    "dependent_rademacher_chaos",
    "empirical_tail_check",
]

EXACT_SIGMA_LIMIT = 5  # n! enumeration of the supremum is oracle-scale only


@dataclass(frozen=True)
class ConcStats:
    """Bundle of the computable concentration scales for one dataset."""

    sigma_two_sample: float
    sigma_indep_bounds: tuple[float, float]
    lambda_n: float
    m_n: float

    def __post_init__(self) -> None:
        vals = (self.sigma_two_sample, *self.sigma_indep_bounds, self.lambda_n, self.m_n)
        if any(v < 0 for v in vals):
            raise ValueError("concentration scales must be nonnegative")


def _offdiag_values(g: GramMatrix) -> np.ndarray:
    v = g.values.copy()
    np.fill_diagonal(v, 0.0)
    return v


def sigma_two_sample_upper(gram: GramMatrix, n1: int) -> float:
    """Enumeration-free upper bound on the two-sample permutation scale.

    sqrt of (1 / (n1^2 (n1-1)^2)) * sum over ordered distinct pooled pairs of
    g^2; dominates the supremum over relabelings because every relabeled
    within-group pair sum is a sub-sum of the pooled one.
    """
    if n1 < 2:
        raise ValueError("n1 must be >= 2")
    v = _offdiag_values(gram)
    total_sq = float((v * v).sum())
    return math.sqrt(total_sq / (n1 * n1 * (n1 - 1) * (n1 - 1)))


def sigma_indep_uppers(gram_y: GramMatrix, gram_z: GramMatrix) -> tuple[float, float]:
    """Two enumeration-free upper bounds on the independence permutation scale.

    Bound A replaces the permuted z-factor by its worst observed value;
    bound B is the Cauchy-Schwarz bound pairing fourth-power sums.  Both
    dominate the exact supremum (see ``sigma_indep_exact``).
    """
    n = gram_y.n
    if n < 2 or gram_z.n != n:
        raise ValueError("need matching gram matrices over n >= 2 points")
    vy = _offdiag_values(gram_y)
    vz = _offdiag_values(gram_z)
    pref = 1.0 / (n * n * (n - 1) * (n - 1))
    sum_y2 = float((vy * vy).sum())
    sum_y4 = float((vy**4).sum())
    sum_z4 = float((vz**4).sum())
    max_z2 = float((vz * vz).max()) if n > 1 else 0.0
    bound_a = pref * max_z2 * sum_y2
    bound_b = pref * math.sqrt(sum_y4) * math.sqrt(sum_z4)
    return math.sqrt(bound_a), math.sqrt(bound_b)


def sigma_indep_exact(gram_y: GramMatrix, gram_z: GramMatrix) -> float:
    """Exact permutation supremum scale by brute force (n <= 5 only)."""
    n = gram_y.n
    if n > EXACT_SIGMA_LIMIT:
        raise ValueError(f"exact supremum refuses n > {EXACT_SIGMA_LIMIT}")
    if n < 2 or gram_z.n != n:
        raise ValueError("need matching gram matrices over n >= 2 points")
    vy2 = _offdiag_values(gram_y) ** 2
    vz2 = _offdiag_values(gram_z) ** 2
    best = 0.0
    for perm in itertools.permutations(range(n)):
        idx = np.array(perm, dtype=np.intp)
        best = max(best, float((vy2 * vz2[np.ix_(idx, idx)]).sum()))
    return math.sqrt(best / (n * n * (n - 1) * (n - 1)))


def lambda_m(gram_y: GramMatrix, gram_z: GramMatrix) -> tuple[float, float]:
    """Variance-type and maximum-type scales from full Gram matrices.

    Both sums run over all index pairs including the diagonal, so pass
    grams built with ``zero_diagonal=False``.  The double sum factorizes
    into the product of the two per-matrix square sums.
    """
    if gram_y.n != gram_z.n:
        raise ValueError("gram matrices must cover the same points")
    if gram_y.diagonal_zeroed or gram_z.diagonal_zeroed:
        raise ValueError("lambda_m needs full Gram matrices (diagonal kept)")
    n = gram_y.n
    vy = gram_y.values
    vz = gram_z.values
    lam_sq = float((vy * vy).sum()) * float((vz * vz).sum()) / float(n) ** 4
    m_n = float(np.abs(vy).max()) * float(np.abs(vz).max())
    return math.sqrt(lam_sq), m_n


def exponential_tail_shape(t: float, sigma: float, c: float) -> float:
    """Bound shape exp{-c min(t^2 / sigma^2, t / sigma)}.

    The universal constant is not computable from theory; ``c`` is supplied
    by the caller and only qualitative decay can be validated.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    if sigma == 0.0:
        return 0.0
    ratio = t / sigma
    return math.exp(-c * min(ratio * ratio, ratio))


def _paired_arrays(a, b) -> tuple[np.ndarray, np.ndarray]:
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.ndim != 1 or a_arr.shape != b_arr.shape:
        raise ValueError("a and b must be equal-length 1-D arrays")
    if a_arr.size < 2:
        raise ValueError("need n >= 2")
    return a_arr, b_arr


def hoeffding_linear_bound(t: float, a, b) -> float:
    """Hoeffding-type tail bound for the permuted linear statistic.

    exp[-max(n^2 t^2 / (range(a)^2 sum b^2), n^2 t^2 / (range(b)^2 sum a^2))]
    where range is max - min.  ``a`` and ``b`` are the centered values.  When
    either side is degenerate the statistic is a.s. zero and the bound is 0.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a_arr, b_arr = _paired_arrays(a, b)
    n = a_arr.size
    a_range = float(a_arr.max() - a_arr.min())
    b_range = float(b_arr.max() - b_arr.min())
    sum_a2 = float((a_arr * a_arr).sum())
    sum_b2 = float((b_arr * b_arr).sum())
    denom1 = a_range * a_range * sum_b2
    denom2 = b_range * b_range * sum_a2
    if denom1 == 0.0 or denom2 == 0.0:
        return 0.0
    nt2 = float(n) ** 2 * t * t
    return math.exp(-max(nt2 / denom1, nt2 / denom2))


def bernstein_linear_bound(t: float, a, b) -> float:
    """Bernstein-type tail bound for the permuted linear statistic.

    exp[-n t^2 / (2 n^{-2} sum_{i,j} a_i^2 b_j^2 + (2/3) t max |a_i b_j|)].
    Degenerate inputs give bound 0 as in `hoeffding_linear_bound`.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    a_arr, b_arr = _paired_arrays(a, b)
    n = a_arr.size
    sum_a2 = float((a_arr * a_arr).sum())
    sum_b2 = float((b_arr * b_arr).sum())
    max_ab = float(np.abs(a_arr).max() * np.abs(b_arr).max())
    denom = 2.0 * sum_a2 * sum_b2 / (n * n) + (2.0 / 3.0) * t * max_ab
    if denom == 0.0:
        return 0.0
    return math.exp(-n * t * t / denom)


def dependent_rademacher_chaos(a: np.ndarray, rng: np.random.Generator) -> float:
    """One draw of the centered chaos over balanced sign vectors.

    ``a`` is an n x n real matrix with zero diagonal, n even.  The sign
    vector is a uniformly shuffled multiset of n/2 plus and n/2 minus ones;
    returns sum_{i != j} s_i s_j (a_ij - abar) with abar the off-diagonal
    mean.  Balance makes the centering term collapse to +n * abar.
    """
    mat = np.asarray(a, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("a must be square")
    n = mat.shape[0]
    if n % 2:
        raise ValueError("n must be even for balanced sign vectors")
    if np.any(np.diag(mat) != 0.0):
        raise ValueError("a must have a zero diagonal")
    if n < 2:
        raise ValueError("n must be >= 2")
    abar = float(mat.sum()) / (n * (n - 1))
    signs = rng.permutation(np.repeat([1.0, -1.0], n // 2))
    return float(signs @ mat @ signs) + n * abar


@dataclass(frozen=True, eq=False)
class TailReport:
    """Empirical exceedance probabilities versus a bound on a t-grid."""

    t_grid: np.ndarray
    empirical_tail: np.ndarray
    standard_errors: np.ndarray
    bound: np.ndarray

    @property
    def _violated(self) -> np.ndarray:
        """Per grid point: the frequency exceeds the bound by more than 3 standard errors."""
        return self.empirical_tail - 3.0 * self.standard_errors > self.bound

    @property
    def violations(self) -> int:
        """Number of grid points flagged as violations in :meth:`rows`."""
        return int(self._violated.sum())

    def rows(self) -> list[tuple[float, float, float, float, int]]:
        columns = zip(self.t_grid, self.empirical_tail, self.standard_errors, self.bound,
                      self._violated)
        return [(float(t), float(emp), float(se), float(bnd), int(flag))
                for t, emp, se, bnd, flag in columns]

    def to_csv(self, path) -> None:
        write_csv(path, "tail-report", ["t", "empirical", "se", "bound", "violation"], self.rows())


def empirical_tail_check(
    sampler,
    bound_fn,
    t_grid,
    replicates: int,
    seed: int = 0,
) -> TailReport:
    """Compare Monte Carlo exceedance frequencies against a bound.

    ``sampler(rng, size)`` returns ``size`` draws of the statistic;
    ``bound_fn(t)`` the claimed tail bound at ``t``.  A grid point counts as
    a violation when the empirical frequency exceeds the bound by more than
    three binomial standard errors.
    """
    if replicates < 1000:
        raise ValueError("need at least 1000 replicates for a meaningful check")
    grid = np.asarray(t_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValueError("t_grid must be a non-empty 1-D array")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = np.asarray(sampler(rng, replicates), dtype=float)
    if draws.shape != (replicates,):
        raise ValueError("sampler must return exactly `replicates` draws")
    emp = np.array([(draws >= t).mean() for t in grid])
    se = np.sqrt(emp * (1.0 - emp) / replicates)
    bounds = np.array([float(bound_fn(t)) for t in grid])
    return TailReport(t_grid=grid, empirical_tail=emp, standard_errors=se, bound=bounds)
