"""Symmetric bivariate kernels and their data-dependent weighting schemes.

Four kernel variants parameterize every U-statistic in the package:

* ``MultinomialIndicator(d)`` -- g(x, y) = 1 if the categories match, else 0.
* ``WeightedMultinomial(weights)`` -- g(x, y) = 1/w_x if x == y, else 0, with
  flattening weights that sum to one and are floored at 1/(2d).
* ``ProductWeighted(row_weights, col_weights)`` -- indicator kernel on the
  product category (k1, k2) weighted by 1/(row_{k1} * col_{k2}).
* ``Gaussian(lambdas)`` -- scaled Gaussian density of the difference, one
  bandwidth per coordinate.

Categories are 0-based throughout the package; the CSV boundary converts
from the 1-based on-disk convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "MultinomialIndicator",
    "WeightedMultinomial",
    "ProductWeighted",
    "Gaussian",
    "GramMatrix",
    "split_weights",
    "product_weights",
    "gram",
]

WEIGHT_TOL = 1e-12
DENSE_PRODUCT_LIMIT = 10**6  # above this, ProductWeighted never materializes d1*d2


@dataclass(frozen=True)
class GramMatrix:
    """Cached pairwise kernel values g(x_i, x_j).

    All U-statistic evaluators consume Gram matrices, so kernel evaluation is
    paid once per dataset; permutations act afterwards by index relabeling.
    """

    values: np.ndarray
    diagonal_zeroed: bool

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("Gram matrix must be square")
        if self.diagonal_zeroed and v.shape[0] > 0 and np.any(np.diag(v) != 0.0):
            raise ValueError("diagonal_zeroed set but diagonal is not zero")

    @property
    def n(self) -> int:
        return int(self.values.shape[0])


def _as_points(x, dim: int | None = None) -> np.ndarray:
    """Coerce to an (n, dim) float array; 1-D input becomes (n, 1)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("points must be a 1-D or 2-D array")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"points have dimension {arr.shape[1]}, expected {dim}")
    return arr


def _check_categories(x: np.ndarray, d: int) -> np.ndarray:
    arr = np.asarray(x)
    integral = np.issubdtype(arr.dtype, np.integer)
    # test before casting: casting NaN, inf or a huge float to int64 warns
    if not integral and not (np.isfinite(arr) & (arr == np.floor(arr))).all():
        raise ValueError("categories must be integers")
    if arr.size and (arr.min() < 0 or arr.max() >= d):
        raise ValueError(f"category out of range [0, {d})")
    return arr if integral else arr.astype(np.int64)


@dataclass(frozen=True)
class MultinomialIndicator:
    """Category-match indicator over d categories."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")

    def evaluate(self, x, y) -> float:
        xi, yi = _check_categories([x, y], self.d)
        return 1.0 if xi == yi else 0.0

    def pairwise(self, points) -> np.ndarray:
        cats = _check_categories(points, self.d)
        return (cats[:, None] == cats[None, :]).astype(float)


def _validate_weights(weights: np.ndarray, d: int) -> None:
    if weights.shape != (d,):
        raise ValueError(f"expected {d} weights, got shape {weights.shape}")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    if abs(float(weights.sum()) - 1.0) > WEIGHT_TOL:
        raise ValueError("weights must sum to 1")
    if np.any(weights < 1.0 / (2 * d) - WEIGHT_TOL):
        raise ValueError(f"weights must respect the 1/(2d) floor, d={d}")


@dataclass(frozen=True)
class WeightedMultinomial:
    """Inverse-weighted category-match kernel: g(x, y) = 1(x == y) / w_x."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        _validate_weights(w, w.size)
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return int(self.weights.size)

    def evaluate(self, x, y) -> float:
        xi, yi = _check_categories([x, y], self.d)
        return 1.0 / self.weights[xi] if xi == yi else 0.0

    def pairwise(self, points) -> np.ndarray:
        cats = _check_categories(points, self.d)
        return (cats[:, None] == cats[None, :]) / self.weights[cats][:, None]


@dataclass(frozen=True)
class ProductWeighted:
    """Product-weighted indicator kernel on pairs (k1, k2).

    Points are integer pairs; g((x1, x2), (y1, y2)) = 1(x == y) /
    (row_weights[x1] * col_weights[x2]).  Only the two factor vectors are
    stored; the dense d1 x d2 weight matrix is materialized on demand and
    refused beyond ``DENSE_PRODUCT_LIMIT`` entries.
    """

    row_weights: np.ndarray
    col_weights: np.ndarray

    def __post_init__(self) -> None:
        rw = np.asarray(self.row_weights, dtype=float)
        cw = np.asarray(self.col_weights, dtype=float)
        _validate_weights(rw, rw.size)
        _validate_weights(cw, cw.size)
        object.__setattr__(self, "row_weights", rw)
        object.__setattr__(self, "col_weights", cw)

    @property
    def d1(self) -> int:
        return int(self.row_weights.size)

    @property
    def d2(self) -> int:
        return int(self.col_weights.size)

    def dense_weights(self) -> np.ndarray:
        if self.d1 * self.d2 > DENSE_PRODUCT_LIMIT:
            raise ValueError(
                f"refusing to materialize {self.d1}x{self.d2} weight matrix"
            )
        return np.outer(self.row_weights, self.col_weights)

    def _categories(self, points) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(points)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError("ProductWeighted points must be (n, 2) integer pairs")
        return _check_categories(pts[:, 0], self.d1), _check_categories(pts[:, 1], self.d2)

    def evaluate(self, x, y) -> float:
        (x1, y1), (x2, y2) = self._categories([x, y])
        if x1 == y1 and x2 == y2:
            return 1.0 / (self.row_weights[x1] * self.col_weights[x2])
        return 0.0

    def pairwise(self, points) -> np.ndarray:
        k1, k2 = self._categories(points)
        match = (k1[:, None] == k1[None, :]) & (k2[:, None] == k2[None, :])
        inv_w = 1.0 / (self.row_weights[k1] * self.col_weights[k2])
        return match * inv_w[:, None]


@dataclass(frozen=True)
class Gaussian:
    """Gaussian density kernel with per-coordinate bandwidths.

    g(x, y) = (2 pi)^{-d/2} (lambda_1 ... lambda_d)^{-1}
              exp{-(1/2) sum_i (x_i - y_i)^2 / lambda_i^2}

    Evaluated in log space and exponentiated, so an exact zero appears only
    when the exponent underflows float64.
    """

    lambdas: np.ndarray

    def __post_init__(self) -> None:
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("lambdas must be a non-empty 1-D array")
        if not np.all((lam > 0) & (lam < np.inf)):
            raise ValueError("bandwidths must be positive and finite")
        object.__setattr__(self, "lambdas", lam)

    @property
    def dim(self) -> int:
        return int(self.lambdas.size)

    @property
    def _log_norm(self) -> float:
        return -0.5 * self.dim * np.log(2 * np.pi) - np.log(self.lambdas).sum()

    @property
    def max_value(self) -> float:
        """Peak value g(x, x) = (2 pi)^{-d/2} / prod(lambdas)."""
        return float(np.exp(self._log_norm))

    def evaluate(self, x, y) -> float:
        xv = np.atleast_1d(np.asarray(x, dtype=float))
        yv = np.atleast_1d(np.asarray(y, dtype=float))
        if xv.shape != (self.dim,) or yv.shape != (self.dim,):
            raise ValueError(f"points must have dimension {self.dim}")
        quad = float(np.sum(((xv - yv) / self.lambdas) ** 2))
        return float(np.exp(self._log_norm - 0.5 * quad))

    def pairwise(self, points) -> np.ndarray:
        pts = _as_points(points, self.dim)
        scaled = pts / self.lambdas
        sq = np.sum(scaled**2, axis=1)
        quad = sq[:, None] + sq[None, :] - 2.0 * (scaled @ scaled.T)
        np.maximum(quad, 0.0, out=quad)  # clip tiny negative round-off
        return np.exp(self._log_norm - 0.5 * quad)


KernelSpec = MultinomialIndicator | WeightedMultinomial | ProductWeighted | Gaussian


def eval(spec: KernelSpec, x, y) -> float:  # noqa: A001 - spec-level operation name
    """Evaluate g(x, y) = g(y, x) for any kernel variant."""
    return spec.evaluate(x, y)


def gram(spec: KernelSpec, points, zero_diagonal: bool = True) -> GramMatrix:
    """Pairwise kernel values for a point sequence, diagonal zeroed on request."""
    pts = np.asarray(points)
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    values = spec.pairwise(pts)
    if zero_diagonal:
        np.fill_diagonal(values, 0.0)
    return GramMatrix(values=values, diagonal_zeroed=zero_diagonal)


def split_weights(holdout_z, d: int) -> np.ndarray:
    """Flattening weights from a held-out categorical sample.

    w_k = 1/(2d) + (1/(2m)) * #{holdout == k} with m = len(holdout_z); the
    result sums to one and every entry is at least 1/(2d).
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    holdout = _check_categories(holdout_z, d)
    m = holdout.size
    if m < 1:
        raise ValueError("holdout sample must be non-empty")
    counts = np.bincount(holdout, minlength=d).astype(float)
    return 1.0 / (2 * d) + counts / (2 * m)


def product_weights(holdout_y, holdout_z, d1: int, d2: int) -> ProductWeighted:
    """Product flattening weights w_{k1,k2} = row_{k1} * col_{k2}.

    Each factor is a :func:`split_weights` vector from its own holdout block,
    so the total weight mass is exactly one.  Returns the factored form; call
    ``dense_weights()`` for the full matrix when d1 * d2 is small.
    """
    row = split_weights(holdout_y, d1)
    col = split_weights(holdout_z, d2)
    return ProductWeighted(row_weights=row, col_weights=col)
