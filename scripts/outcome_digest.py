"""Print one sha256 per test procedure over a fixed sweep of fixed-seed outcomes.

Usage, with the checkout to digest on the path::

    PYTHONPATH=CHECKOUT/src python scripts/outcome_digest.py

Run it on two checkouts and compare the lines: a change that should keep
every outcome prints the same digests.  Each procedure gets two lines.  The
full digest (``full``) takes each outcome's ``statistic.hex()``,
``p_value``, ``critical_value.hex()`` and ``reject``, and the type name of
each of the four fields; an adaptive outcome contributes every component
with its kappa, then its union ``p_value`` and ``reject``.  The decision
digest (``decisions``) takes only ``p_value``, ``reject`` and
``replicate_count`` with their type names, every component's and then the
union's for an adaptive outcome, so a change that moves statistics in their
last bits on purpose can show that no decision moved.

The sweep runs all 14 procedures of ``tests/test_fixed_seed_outputs.py``
under Monte Carlo and exact plans, on three datasets per design, at three
levels.  The continuous independence procedures run at 1 and 2 dimensions
per side, with n up to 200 points and B up to 999 replicates, and both
adaptive procedures run at n up to 200 points per group.  One BLAS thread is pinned before numpy is
imported, as the last bits of the MMD and HSIC statistics depend on the BLAS
thread count.  Each line also gives the procedure's outcome count; the whole
sweep takes about five seconds.
"""

from __future__ import annotations

import hashlib
import os
import warnings

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from permkit import testing  # noqa: E402
from permkit.perm_core import PermutationPlan  # noqa: E402
from permkit.ustats import (  # noqa: E402
    Categorical,
    Continuous,
    PairedSample,
    PoissonCounts,
    TwoSamplePooled,
)

ALPHAS = (0.05, 0.1, 0.2)
DATASETS = 3
EXACT = PermutationPlan.exact()


def _mc(replicates: int) -> PermutationPlan:
    return PermutationPlan.monte_carlo(replicates, 7)


def _two_sample(rng, kind: str, n1: int, n2: int, dim: int = 2) -> TwoSamplePooled:
    if kind == "categorical":
        return TwoSamplePooled(y=rng.integers(0, 6, n1), z=rng.integers(0, 6, n2),
                               domain=Categorical(6))
    return TwoSamplePooled(y=rng.random((n1, dim)), z=rng.random((n2, dim)) ** 1.5,
                           domain=Continuous(dim))


def _paired(rng, kind: str, n: int, d1: int = 1, d2: int = 1) -> PairedSample:
    if kind == "categorical":
        y = rng.integers(0, 4, n)
        z = (y + rng.integers(0, 2, n)) % 4
        return PairedSample(y=y, z=z, y_domain=Categorical(4), z_domain=Categorical(4))
    y = rng.random((n, d1))
    z = np.clip(0.6 * y[:, :1] + 0.4 * rng.random((n, d2)), 0.0, 1.0)
    return PairedSample(y=y, z=z, y_domain=Continuous(d1), z_domain=Continuous(d2))


def _poisson(rng, group_size: int) -> PoissonCounts:
    return PoissonCounts(rng.poisson(1.0, (group_size, 4)), rng.poisson(1.5, (group_size, 4)))


# designs: (data maker on a Generator, plan); exact plans permute at most 8 points
def _two_sample_designs(kind: str, largest: int = 100) -> list:
    sizes = [(30, 26, 99), (largest, largest, 999)]
    designs = [(lambda rng, a=a, b=b: _two_sample(rng, kind, a, b), _mc(reps)) for a, b, reps in sizes]
    return designs + [(lambda rng: _two_sample(rng, kind, 4, 4), EXACT),
                      (lambda rng: _two_sample(rng, kind, 3, 4), EXACT)]


def _independence_designs(largest: int = 200) -> list:
    designs = [
        (lambda rng, n=n, d1=d1, d2=d2: _paired(rng, "continuous", n, d1, d2), _mc(reps))
        for n, reps in ((36, 99), (100, 199), (largest, 999))
        for d1 in (1, 2)
        for d2 in (1, 2)
    ]
    return designs + [(lambda rng, n=n: _paired(rng, "continuous", n), EXACT) for n in (4, 6, 8)]


def _categorical_independence_designs() -> list:
    return [(lambda rng, n=n: _paired(rng, "categorical", n), _mc(reps))
            for n, reps in ((36, 99), (200, 999))] + [
        (lambda rng: _paired(rng, "categorical", 8), EXACT)]


PROCEDURES = {
    "multinomial-l2-two-sample": (
        lambda d, a, p: testing.multinomial_l2_two_sample(d, a, p),
        _two_sample_designs("categorical")),
    "multinomial-l2-independence": (
        lambda d, a, p: testing.multinomial_l2_independence(d, a, p),
        _categorical_independence_designs()),
    "binned-two-sample": (
        lambda d, a, p: testing.binned_two_sample(d, 3, a, p),
        _two_sample_designs("continuous")),
    "binned-independence": (
        lambda d, a, p: testing.binned_independence(d, 3, a, p),
        _independence_designs()),
    "holder-two-sample": (
        lambda d, a, p: testing.holder_two_sample(d, 0.5, a, p),
        _two_sample_designs("continuous")),
    "holder-independence": (
        lambda d, a, p: testing.holder_independence(d, 0.5, a, p),
        _independence_designs()),
    "adaptive-two-sample": (
        lambda d, a, p: testing.adaptive_two_sample(d, a, p),
        _two_sample_designs("continuous", largest=200)),
    "adaptive-independence": (
        lambda d, a, p: testing.adaptive_independence(d, a, p),
        _independence_designs()),
    "l1-split-two-sample": (
        lambda d, a, p: testing.l1_split_two_sample(d, a, p),
        [(lambda rng: _two_sample(rng, "categorical", 30, 26), _mc(99)),
         (lambda rng: _two_sample(rng, "categorical", 100, 120), _mc(999)),
         (lambda rng: _two_sample(rng, "categorical", 8, 8), EXACT)]),
    "l1-split-independence": (
        lambda d, a, p: testing.l1_split_independence(d, a, p),
        [(lambda rng: _paired(rng, "categorical", 36), _mc(99)),
         (lambda rng: _paired(rng, "categorical", 120), _mc(999)),
         (lambda rng: _paired(rng, "categorical", 12), EXACT)]),
    "mmd": (
        lambda d, a, p: testing.mmd_test(d, testing.SmoothnessRule(1.0), a, p),
        _two_sample_designs("continuous")),
    "mmd-bandwidth": (
        lambda d, a, p: testing.mmd_test(d, [0.3, 0.5], a, p),
        _two_sample_designs("continuous")),
    "hsic": (
        lambda d, a, p: testing.hsic_test(d, testing.SmoothnessRule(1.0), 0.4, a, p),
        _independence_designs(largest=150)),
    "poisson-chisq": (
        lambda d, a, p: testing.poisson_chisq_test(d, a, p),
        [(lambda rng: _poisson(rng, 12), _mc(99)),
         (lambda rng: _poisson(rng, 60), _mc(999)),
         (lambda rng: _poisson(rng, 4), EXACT)]),
}


def _typed(value, text: str | None = None) -> str:
    return f"{repr(value) if text is None else text}/{type(value).__name__}"


def _fields(outcome) -> list:
    """The compared fields of a ``TestOutcome`` or an ``AdaptiveOutcome``, as strings."""
    if isinstance(outcome, testing.AdaptiveOutcome):
        parts = [f"{kappa}:{_fields(c)}" for kappa, c in outcome.components]
        return parts + [_typed(outcome.p_value), _typed(outcome.reject)]
    return [
        _typed(outcome.statistic, outcome.statistic.hex()),
        _typed(outcome.p_value),
        _typed(outcome.critical_value, outcome.critical_value.hex()),
        _typed(outcome.reject),
    ]


def _decision_fields(outcome) -> list:
    """The decision fields of a ``TestOutcome`` or an ``AdaptiveOutcome``, as strings."""
    if isinstance(outcome, testing.AdaptiveOutcome):
        parts = [f"{kappa}:{_decision_fields(c)}" for kappa, c in outcome.components]
        return parts + [_typed(outcome.p_value), _typed(outcome.reject)]
    return [_typed(outcome.p_value), _typed(outcome.reject), _typed(outcome.replicate_count)]


def main() -> None:
    warnings.simplefilter("ignore")  # levels below 1/(B+1) warn; the outcome is what counts
    for name, (run, designs) in PROCEDURES.items():
        full, decisions = hashlib.sha256(), hashlib.sha256()
        count = 0
        for index, (make, plan) in enumerate(designs):
            for dataset in range(DATASETS):
                for alpha in ALPHAS:
                    data = make(np.random.default_rng([index, dataset]))
                    outcome = run(data, alpha, plan)
                    full.update(repr((index, dataset, alpha, _fields(outcome))).encode())
                    decisions.update(repr((index, dataset, alpha, _decision_fields(outcome))).encode())
                    count += 1
        print(f"{name:30s} {count:3d} full      {full.hexdigest()}")
        print(f"{name:30s} {count:3d} decisions {decisions.hexdigest()}")


if __name__ == "__main__":
    main()
