"""Synthetic data generators and the desk-scale experiment runner.

Distribution specs cover the simulation designs: power-law and uniform
multinomials for null calibration studies, perturbed-hypercube families as
alternatives with known l2 separation, and the continuous generators for the
kernel tests.  Experiment runners reproduce the threshold-sensitivity,
quantile-comparison and null-histogram studies and write versioned CSV.

Every trial draws its randomness from a stream derived from the experiment
seed and the trial index, so outputs are byte-identical regardless of the
worker count.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .perm_core import PermutationPlan, permutation_distribution, replicate_rng, split_seed
from .testing import (
    SmoothnessRule,
    _compress,
    _CountTwoSampleStat,
    hsic_test,
    mmd_test,
    multinomial_l2_independence,
    multinomial_l2_two_sample,
)
from .ustats import (
    Categorical,
    Continuous,
    PairedSample,
    TwoSamplePooled,
    multinomial_two_sample_u,
)

__all__ = [
    "PowerLaw",
    "Uniform",
    "PerturbedHypercube",
    "JointPerturbed",
    "ContinuousUniform",
    "GaussianLocation",
    "DistSpec",
    "ThresholdConfig",
    "QQConfig",
    "HistogramConfig",
    "PowerConfig",
    "QQResult",
    "pmf",
    "sample",
    "balanced_signs",
    "estimate_error_rates",
    "experiment_threshold_sensitivity",
    "experiment_qq",
    "experiment_null_histogram",
    "power_curve",
    "write_csv",
]

PMF_TOL = 1e-12


# ---------------------------------------------------------------------------
# distribution specs


@dataclass(frozen=True)
class PowerLaw:
    """Category probabilities proportional to k^gamma, k = 1..d."""

    d: int
    gamma: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")


@dataclass(frozen=True)
class Uniform:
    """Uniform distribution over d categories."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError("d must be >= 1")


def balanced_signs(d: int) -> np.ndarray:
    """Canonical balanced sign vector: first half +1, second half -1."""
    if d % 2:
        raise ValueError("balanced signs need even d")
    return np.repeat([1.0, -1.0], d // 2)


def _checked_signs(signs, d: int) -> np.ndarray:
    """``signs`` as a balanced length-d vector of +/-1; None gives :func:`balanced_signs`."""
    s = balanced_signs(d) if signs is None else np.asarray(signs, float)
    if s.shape != (d,) or not np.all(np.abs(s) == 1.0) or abs(float(s.sum())) > 0:
        raise ValueError(f"signs must be a balanced length-{d} vector of +/-1")
    return s


@dataclass(frozen=True)
class PerturbedHypercube:
    """Uniform pmf perturbed by delta along a balanced sign vector.

    p_k = 1/d + delta * signs_k, so the l2 distance to uniform is exactly
    delta * sqrt(d).
    """

    d: int
    delta: float
    signs: np.ndarray = None

    def __post_init__(self) -> None:
        if self.d < 2 or self.d % 2:
            raise ValueError("perturbed hypercube needs an even d >= 2")
        if not 0.0 <= self.delta <= 1.0 / self.d + PMF_TOL:
            raise ValueError("delta must lie in [0, 1/d]")
        object.__setattr__(self, "signs", _checked_signs(self.signs, self.d))


@dataclass(frozen=True)
class JointPerturbed:
    """Product-uniform pmf on d1 x d2 perturbed by a rank-one sign pattern.

    p(k1, k2) = 1/(d1 d2) + delta * signs_y[k1] * signs_z[k2]; both sign
    vectors are balanced, so every marginal stays exactly uniform while the
    l2 distance to the product law is delta * sqrt(d1 d2).
    """

    d1: int
    d2: int
    delta: float
    signs_y: np.ndarray = None
    signs_z: np.ndarray = None

    def __post_init__(self) -> None:
        for d in (self.d1, self.d2):
            if d < 2 or d % 2:
                raise ValueError("joint perturbation needs even d1, d2 >= 2")
        if not 0.0 <= self.delta <= 1.0 / (self.d1 * self.d2) + PMF_TOL:
            raise ValueError("delta must lie in [0, 1/(d1*d2)]")
        object.__setattr__(self, "signs_y", _checked_signs(self.signs_y, self.d1))
        object.__setattr__(self, "signs_z", _checked_signs(self.signs_z, self.d2))


@dataclass(frozen=True)
class ContinuousUniform:
    """Independent uniforms on [0, 1]^dim."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


@dataclass(frozen=True)
class GaussianLocation:
    """Standard Gaussian with every coordinate shifted by ``shift``."""

    dim: int
    shift: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")


DistSpec = (
    PowerLaw
    | Uniform
    | PerturbedHypercube
    | JointPerturbed
    | ContinuousUniform
    | GaussianLocation
)


def pmf(spec) -> np.ndarray:
    """Probability vector (or d1 x d2 matrix) of a discrete spec."""
    if isinstance(spec, PowerLaw):
        raw = np.arange(1, spec.d + 1, dtype=float) ** spec.gamma
        return raw / raw.sum()
    if isinstance(spec, Uniform):
        return np.full(spec.d, 1.0 / spec.d)
    if isinstance(spec, PerturbedHypercube):
        return 1.0 / spec.d + spec.delta * spec.signs
    if isinstance(spec, JointPerturbed):
        base = 1.0 / (spec.d1 * spec.d2)
        return base + spec.delta * np.outer(spec.signs_y, spec.signs_z)
    raise ValueError(f"no pmf for continuous spec {type(spec).__name__}")


def _sample_categorical(p: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    # inverse-CDF draw; cumulative clipped so u == 1 - eps stays in range
    cum = np.cumsum(p)
    cum[-1] = 1.0
    return np.searchsorted(cum, rng.random(n), side="right").astype(np.int64)


def sample(spec, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from a spec (0-based categories; pairs for joint specs)."""
    if isinstance(spec, (PowerLaw, Uniform, PerturbedHypercube)):
        return _sample_categorical(pmf(spec), n, rng)
    if isinstance(spec, JointPerturbed):
        flat = _sample_categorical(pmf(spec).ravel(), n, rng)
        return np.stack([flat // spec.d2, flat % spec.d2], axis=1)
    if isinstance(spec, ContinuousUniform):
        return rng.random((n, spec.dim))
    if isinstance(spec, GaussianLocation):
        return rng.normal(loc=spec.shift, scale=1.0, size=(n, spec.dim))
    raise ValueError(f"unknown spec {type(spec).__name__}")


# ---------------------------------------------------------------------------
# harness plumbing


def _run_tasks(worker, tasks: list, workers: int) -> list:
    """Evaluate ``worker`` over ``tasks`` preserving order; fork when asked."""
    if workers <= 1:
        return [worker(t) for t in tasks]
    chunk = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=chunk))


def _trial_grid(worker, cfg, values) -> list[list]:
    """``worker`` results for ``cfg.trials`` trials at each of ``values``, one seed per trial."""
    results = []
    for i, value in enumerate(values):
        seeds = (split_seed(cfg.seed, i * cfg.trials + t) for t in range(cfg.trials))
        results.append(_run_tasks(worker, [(cfg, value, s) for s in seeds], cfg.workers))
    return results


def _binomial_se(rate: float, trials: int) -> float:
    return math.sqrt(rate * (1.0 - rate) / trials)


def estimate_error_rates(runner, trials: int, seed: int, workers: int = 1):
    """Rejection frequency of ``runner(trial_seed) -> bool`` with binomial SE."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rejects = _run_tasks(runner, [split_seed(seed, i) for i in range(trials)], workers)
    rate = float(np.mean([bool(r) for r in rejects]))
    return rate, _binomial_se(rate, trials)


# config field annotation -> (what a JSON value must be, the Python types it or,
# for a tuple field, each of its elements may load as); bool is refused even
# where int is accepted
_JSON_TYPES = {
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "float | None": ("a number or null", (int, float, type(None))),
    "str": ("a string", (str,)),
    "tuple[int, ...]": ("a list of integers", (int,)),
    "tuple[float, ...]": ("a list of numbers", (int, float)),
    "tuple[str, ...]": ("a list of strings", (str,)),
}


def _json_typed(value, types) -> bool:
    return not isinstance(value, bool) and isinstance(value, types)


def _config_with_overrides(cls, overrides: dict):
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    unknown = set(overrides) - fields.keys()
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        expected, types = _JSON_TYPES[fields[key]]
        if fields[key].startswith("tuple"):
            ok = isinstance(value, (list, tuple)) and all(_json_typed(v, types) for v in value)
        else:
            ok = _json_typed(value, types)
        if not ok:
            raise ValueError(f"config key {key!r} must be {expected}, got {value!r}")
    clean = {
        k: tuple(v) if isinstance(v, list) else v for k, v in overrides.items()
    }
    return cls(**clean)


# ---------------------------------------------------------------------------
# threshold-sensitivity experiment


@dataclass(frozen=True)
class ThresholdConfig:
    """Type-I comparison of permutation vs fixed-threshold calibration.

    The threshold test uses the true norm of the null pmf (oracle knowledge)
    scaled by each constant in ``c_grid``, isolating threshold sensitivity
    from estimation error.
    """

    kind: str = "twosample"  # or "independence"
    gammas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
    c_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)
    n1: int = 50
    n2: int = 50
    n: int = 100
    d: int = 50
    d1: int = 20
    d2: int = 20
    alpha: float = 0.05
    replicates: int = 300
    trials: int = 2000
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("twosample", "independence"):
            raise ValueError("kind must be 'twosample' or 'independence'")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _threshold_trial(task):
    cfg, gamma, trial_seed = task
    rng = replicate_rng(trial_seed, 0)
    plan = PermutationPlan.monte_carlo(cfg.replicates, split_seed(trial_seed, 1))
    if cfg.kind == "twosample":
        p = pmf(PowerLaw(cfg.d, gamma))
        y = _sample_categorical(p, cfg.n1, rng)
        z = _sample_categorical(p, cfg.n2, rng)
        data = TwoSamplePooled(y=y, z=z, domain=Categorical(cfg.d))
        outcome = multinomial_l2_two_sample(data, cfg.alpha, plan)
    else:
        py = pmf(PowerLaw(cfg.d1, gamma))
        pz = pmf(PowerLaw(cfg.d2, gamma))
        y = _sample_categorical(py, cfg.n, rng)
        z = _sample_categorical(pz, cfg.n, rng)
        data = PairedSample(
            y=y, z=z, y_domain=Categorical(cfg.d1), z_domain=Categorical(cfg.d2)
        )
        outcome = multinomial_l2_independence(data, cfg.alpha, plan)
    return outcome.reject, outcome.statistic


def _threshold_scale(cfg: ThresholdConfig, gamma: float) -> float:
    """Oracle threshold scale: ||p_Y||_2 / n1 (two-sample) or ||p_Y p_Z||_2 / n."""
    if cfg.kind == "twosample":
        p = pmf(PowerLaw(cfg.d, gamma))
        return float(np.sqrt((p * p).sum())) / cfg.n1
    py = pmf(PowerLaw(cfg.d1, gamma))
    pz = pmf(PowerLaw(cfg.d2, gamma))
    prod = np.outer(py, pz)
    return float(np.sqrt((prod * prod).sum())) / cfg.n


def experiment_threshold_sensitivity(cfg: ThresholdConfig, output=None):
    """Per (method, C, gamma) type-I error rows; optionally written to CSV."""
    rows = []
    for gamma, results in zip(cfg.gammas, _trial_grid(_threshold_trial, cfg, cfg.gammas)):
        perm_rate = float(np.mean([r for r, _ in results]))
        rows.append(
            ("permutation", "", gamma, perm_rate, _binomial_se(perm_rate, cfg.trials))
        )
        stats = np.array([s for _, s in results])
        scale = _threshold_scale(cfg, gamma)
        for c in cfg.c_grid:
            rate = float(np.mean(stats > c * scale))
            rows.append(("threshold", c, gamma, rate, _binomial_se(rate, cfg.trials)))
    if output is not None:
        write_csv(
            output,
            f"threshold-sensitivity {cfg.kind}",
            ["method", "C", "gamma", "type1", "se"],
            rows,
        )
    return rows


# ---------------------------------------------------------------------------
# quantile comparison experiment


@dataclass(frozen=True)
class QQConfig:
    """Permutation distribution vs Monte Carlo null distribution quantiles."""

    d_values: tuple[int, ...] = (5, 100, 1000)
    n1: int = 200
    n2: int = 200
    replicates: int = 2000
    null_reps: int = 2000
    designs: tuple[str, ...] = ("null", "alternative")
    quantiles: tuple[float, ...] = tuple(round(0.01 * q, 2) for q in range(1, 100))
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        for design in self.designs:
            if design not in ("null", "alternative"):
                raise ValueError("designs must be 'null' and/or 'alternative'")


@dataclass(frozen=True)
class QQResult:
    rows: tuple
    ks: dict


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), pooled, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), pooled, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def _count_stat_value(y: np.ndarray, z: np.ndarray) -> float:
    codes, _ = _compress(np.concatenate([y, z]))
    c_all = np.bincount(codes)
    c1 = np.bincount(codes[: y.size], minlength=c_all.size).astype(float)
    return multinomial_two_sample_u(c1, c_all - c1)


def _qq_task(task):
    cfg, d, design, task_seed = task
    p_uniform = pmf(Uniform(d))
    if design == "null":
        py = pz = p_uniform
        reference = p_uniform
    else:
        py = p_uniform
        pz = pmf(PowerLaw(d, 1.0))
        reference = 0.5 * py + 0.5 * pz
    rng = replicate_rng(task_seed, 0)
    y = _sample_categorical(py, cfg.n1, rng)
    z = _sample_categorical(pz, cfg.n2, rng)
    codes, _ = _compress(np.concatenate([y, z]))
    stat = _CountTwoSampleStat(cfg.n1, cfg.n2)
    plan = PermutationPlan.monte_carlo(cfg.replicates, split_seed(task_seed, 1))
    dist = permutation_distribution(stat, codes, cfg.n1 + cfg.n2, plan)
    null_rng = replicate_rng(task_seed, 2)
    null_values = np.array(
        [
            _count_stat_value(
                _sample_categorical(reference, cfg.n1, null_rng),
                _sample_categorical(reference, cfg.n2, null_rng),
            )
            for _ in range(cfg.null_reps)
        ]
    )
    qs = np.asarray(cfg.quantiles, dtype=float)
    perm_q = np.quantile(dist.replicates, qs)
    null_q = np.quantile(null_values, qs)
    ks = _two_sample_ks(dist.replicates, null_values)
    return d, design, qs, perm_q, null_q, ks


def experiment_qq(cfg: QQConfig, output=None) -> QQResult:
    """Matched quantiles of permutation vs null distributions, plus KS."""
    tasks = []
    idx = 0
    for d in cfg.d_values:
        for design in cfg.designs:
            tasks.append((cfg, d, design, split_seed(cfg.seed, idx)))
            idx += 1
    results = _run_tasks(_qq_task, tasks, cfg.workers)
    rows = []
    ks_map = {}
    for d, design, qs, perm_q, null_q, ks in results:
        ks_map[(d, design)] = ks
        for q, pq, nq in zip(qs, perm_q, null_q):
            rows.append((d, design, float(q), float(pq), float(nq), ks))
    if output is not None:
        write_csv(
            output,
            "qq",
            ["d", "design", "q", "perm_quantile", "null_quantile", "ks"],
            rows,
        )
    return QQResult(rows=tuple(rows), ks=ks_map)


# ---------------------------------------------------------------------------
# null histogram experiment


@dataclass(frozen=True)
class HistogramConfig:
    """Null U-statistic samples across bin counts, for external histogramming."""

    d_values: tuple[int, ...] = (5, 100, 10000)
    n1: int = 100
    n2: int = 100
    replicates: int = 1000
    seed: int = 0
    workers: int = 1


def _skewness(x: np.ndarray) -> float:
    centered = x - x.mean()
    m2 = float((centered**2).mean())
    m3 = float((centered**3).mean())
    if m2 == 0.0:
        return 0.0
    return m3 / m2**1.5


def _histogram_task(task):
    cfg, d, d_seed = task
    p = pmf(Uniform(d))
    values = np.empty(cfg.replicates)
    for rep in range(cfg.replicates):
        rng = replicate_rng(d_seed, rep)
        y = _sample_categorical(p, cfg.n1, rng)
        z = _sample_categorical(p, cfg.n2, rng)
        values[rep] = _count_stat_value(y, z)
    return d, values


def experiment_null_histogram(cfg: HistogramConfig, output=None) -> dict:
    """Sampled null statistics per d; returns per-d summary skewness."""
    tasks = [
        (cfg, d, split_seed(cfg.seed, i)) for i, d in enumerate(cfg.d_values)
    ]
    results = _run_tasks(_histogram_task, tasks, cfg.workers)
    rows = []
    skew = {}
    for d, values in results:
        skew[d] = _skewness(values)
        for rep, v in enumerate(values):
            rows.append((d, rep, float(v)))
    if output is not None:
        write_csv(output, "null-histogram", ["d", "rep", "u"], rows)
    return skew


# ---------------------------------------------------------------------------
# power curves


@dataclass(frozen=True)
class PowerConfig:
    """Monte Carlo power along a separation grid for one test family.

    ``kind`` selects the family: 'twosample' and 'independence' sweep the
    perturbed-hypercube delta, 'mmd' sweeps a Gaussian location shift and
    'hsic' a correlation strength.
    """

    kind: str = "twosample"
    grid: tuple[float, ...] = ()
    d: int = 10
    d1: int = 4
    d2: int = 4
    dim: int = 1
    n1: int = 100
    n2: int = 100
    n: int = 100
    alpha: float = 0.05
    replicates: int = 200
    trials: int = 400
    bandwidth: float | None = None
    smoothness: float = 1.0
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("twosample", "independence", "mmd", "hsic"):
            raise ValueError("kind must be twosample|independence|mmd|hsic")
        if not self.grid:
            raise ValueError("grid of separation values is required")


def _power_trial(task):
    cfg, value, trial_seed = task
    rng = replicate_rng(trial_seed, 0)
    plan = PermutationPlan.monte_carlo(cfg.replicates, split_seed(trial_seed, 1))
    if cfg.kind == "twosample":
        y = sample(Uniform(cfg.d), cfg.n1, rng)
        z = sample(PerturbedHypercube(cfg.d, value), cfg.n2, rng)
        data = TwoSamplePooled(y=y, z=z, domain=Categorical(cfg.d))
        return multinomial_l2_two_sample(data, cfg.alpha, plan).reject
    if cfg.kind == "independence":
        pairs = sample(JointPerturbed(cfg.d1, cfg.d2, value), cfg.n, rng)
        data = PairedSample(
            y=pairs[:, 0],
            z=pairs[:, 1],
            y_domain=Categorical(cfg.d1),
            z_domain=Categorical(cfg.d2),
        )
        return multinomial_l2_independence(data, cfg.alpha, plan).reject
    if cfg.kind == "mmd":
        y = sample(GaussianLocation(cfg.dim, 0.0), cfg.n1, rng)
        z = sample(GaussianLocation(cfg.dim, value), cfg.n2, rng)
        data = TwoSamplePooled(y=y, z=z, domain=Continuous(cfg.dim))
        bw = cfg.bandwidth if cfg.bandwidth is not None else SmoothnessRule(cfg.smoothness)
        return mmd_test(data, bw, cfg.alpha, plan).reject
    # hsic: z = rho * y + sqrt(1 - rho^2) * noise keeps standard marginals
    rho = value
    y = rng.normal(size=(cfg.n, cfg.dim))
    z = rho * y + math.sqrt(max(0.0, 1.0 - rho * rho)) * rng.normal(size=(cfg.n, cfg.dim))
    data = PairedSample(
        y=y, z=z, y_domain=Continuous(cfg.dim), z_domain=Continuous(cfg.dim)
    )
    bw = cfg.bandwidth if cfg.bandwidth is not None else SmoothnessRule(cfg.smoothness)
    return hsic_test(data, bw, bw, cfg.alpha, plan).reject


def power_curve(cfg: PowerConfig, output=None):
    """(value, power, se) rows along the separation grid."""
    rows = []
    for value, rejects in zip(cfg.grid, _trial_grid(_power_trial, cfg, cfg.grid)):
        rate = float(np.mean([bool(r) for r in rejects]))
        rows.append((float(value), rate, _binomial_se(rate, cfg.trials)))
    if output is not None:
        write_csv(output, f"power {cfg.kind}", ["value", "power", "se"], rows)
    return rows


# ---------------------------------------------------------------------------
# config loading (used by the CLI)

_CONFIG_CLASSES = {
    "threshold": ThresholdConfig,
    "qq": QQConfig,
    "histogram": HistogramConfig,
    "power": PowerConfig,
}


def config_from_dict(experiment: str, overrides: dict):
    """Build an experiment config from JSON-style overrides."""
    cls = _CONFIG_CLASSES.get(experiment)
    if cls is None:
        raise ValueError(f"unknown experiment {experiment!r}")
    return _config_with_overrides(cls, overrides)
