"""Fixed-seed outputs checked against a recorded fixture.

``fixtures/fixed_seed_outputs.json`` pins what a behaviour-preserving change
must leave unchanged: every procedure's outcome under a Monte Carlo plan and
under an exact plan, one CLI record per route plus an ``--exact`` record, the
sha256 of each ``permkit simulate`` CSV, kernel Gram matrices and
``evaluate`` values, and the tail-report CSV.
All values compare exactly, except the MMD and HSIC statistics and critical
values, whose last bits depend on how BLAS blocks the Gram products (and so
on the BLAS thread count); those compare at relative 1e-12.

Regenerate the fixture only when results change on purpose:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_fixed_seed_outputs.py

An optional PATH argument writes there instead of the fixture, so a change
that should keep outputs can be checked byte for byte without touching it:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/test_fixed_seed_outputs.py regen.json
    cmp regen.json tests/fixtures/fixed_seed_outputs.json
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from permkit import cli, kernels, testing
from permkit.cli import main
from permkit.concentration import empirical_tail_check
from permkit.perm_core import PermutationPlan
from permkit.ustats import Categorical, Continuous, PairedSample, PoissonCounts, TwoSamplePooled

FIXTURE = Path(__file__).parent / "fixtures" / "fixed_seed_outputs.json"
ALPHA = 0.1
GRAM_TESTS = ("mmd", "hsic")  # record names whose statistics come from BLAS products
GRAM_FIELDS = ("statistic", "critical_value")


# ---------------------------------------------------------------------------
# data


def _two_sample(rng, kind: str, n1: int, n2: int) -> TwoSamplePooled:
    if kind == "categorical":
        return TwoSamplePooled(y=rng.integers(0, 6, n1), z=rng.integers(0, 6, n2),
                               domain=Categorical(6))
    return TwoSamplePooled(y=rng.random((n1, 2)), z=rng.random((n2, 2)) ** 1.5,
                           domain=Continuous(2))


def _paired(rng, kind: str, n: int) -> PairedSample:
    if kind == "categorical":
        y = rng.integers(0, 4, n)
        z = (y + rng.integers(0, 2, n)) % 4
        return PairedSample(y=y, z=z, y_domain=Categorical(4), z_domain=Categorical(4))
    y = rng.random(n)
    z = np.clip(0.6 * y + 0.4 * rng.random(n), 0.0, 1.0)
    return PairedSample(y=y, z=z, y_domain=Continuous(1), z_domain=Continuous(1))


def _poisson(rng, group_size: int) -> PoissonCounts:
    return PoissonCounts(rng.poisson(1.0, (group_size, 4)), rng.poisson(1.5, (group_size, 4)))


# (name, data maker, procedure on (data, plan)); the maker takes a Generator
# and whether the plan is exact, which needs n <= 8 permuted points
PROCEDURES = (
    ("multinomial-l2-two-sample",
     lambda rng, ex: _two_sample(rng, "categorical", *((4, 4) if ex else (30, 26))),
     lambda d, p: testing.multinomial_l2_two_sample(d, ALPHA, p)),
    ("multinomial-l2-independence",
     lambda rng, ex: _paired(rng, "categorical", 8 if ex else 36),
     lambda d, p: testing.multinomial_l2_independence(d, ALPHA, p)),
    ("binned-two-sample",
     lambda rng, ex: _two_sample(rng, "continuous", *((4, 4) if ex else (30, 26))),
     lambda d, p: testing.binned_two_sample(d, 3, ALPHA, p)),
    ("binned-independence",
     lambda rng, ex: _paired(rng, "continuous", 8 if ex else 36),
     lambda d, p: testing.binned_independence(d, 3, ALPHA, p)),
    ("holder-two-sample",
     lambda rng, ex: _two_sample(rng, "continuous", *((4, 4) if ex else (30, 26))),
     lambda d, p: testing.holder_two_sample(d, 0.5, ALPHA, p)),
    ("holder-independence",
     lambda rng, ex: _paired(rng, "continuous", 8 if ex else 36),
     lambda d, p: testing.holder_independence(d, 0.5, ALPHA, p)),
    ("adaptive-two-sample",
     lambda rng, ex: _two_sample(rng, "continuous", *((4, 4) if ex else (30, 26))),
     lambda d, p: testing.adaptive_two_sample(d, ALPHA, p)),
    ("adaptive-independence",
     lambda rng, ex: _paired(rng, "continuous", 8 if ex else 36),
     lambda d, p: testing.adaptive_independence(d, ALPHA, p)),
    ("l1-split-two-sample",
     lambda rng, ex: _two_sample(rng, "categorical", *((8, 8) if ex else (30, 26))),
     lambda d, p: testing.l1_split_two_sample(d, ALPHA, p)),
    ("l1-split-independence",
     lambda rng, ex: _paired(rng, "categorical", 12 if ex else 36),
     lambda d, p: testing.l1_split_independence(d, ALPHA, p)),
    ("mmd",
     lambda rng, ex: _two_sample(rng, "continuous", *((4, 4) if ex else (30, 26))),
     lambda d, p: testing.mmd_test(d, testing.SmoothnessRule(1.0), ALPHA, p)),
    ("mmd-bandwidth",
     lambda rng, ex: _two_sample(rng, "continuous", *((4, 4) if ex else (30, 26))),
     lambda d, p: testing.mmd_test(d, [0.3, 0.5], ALPHA, p)),
    ("hsic",
     lambda rng, ex: _paired(rng, "continuous", 8 if ex else 36),
     lambda d, p: testing.hsic_test(d, testing.SmoothnessRule(1.0), 0.4, ALPHA, p)),
    ("poisson-chisq",
     lambda rng, ex: _poisson(rng, 4 if ex else 12),
     lambda d, p: testing.poisson_chisq_test(d, ALPHA, p)),
)

PLANS = {
    "monte-carlo": lambda: PermutationPlan.monte_carlo(99, 7),
    "exact": PermutationPlan.exact,
}


def _outcome(o) -> dict:
    if isinstance(o, testing.AdaptiveOutcome):
        return {"p_value": o.p_value, "reject": o.reject, "per_test_alpha": o.per_test_alpha,
                "components": [[kappa, _outcome(c)] for kappa, c in o.components]}
    return {"statistic": o.statistic, "critical_value": o.critical_value, "p_value": o.p_value,
            "reject": bool(o.reject), "replicate_count": o.replicate_count}


def procedure_outcomes() -> dict:
    out = {}
    for name, make, run in PROCEDURES:
        for plan_name, plan in PLANS.items():
            data = make(np.random.default_rng(20), plan_name == "exact")
            out[f"{name}/{plan_name}"] = _outcome(run(data, plan()))
    # 7 + 7 points: 14! relabelings, enumerated as the C(14, 7) subsets
    data = _two_sample(np.random.default_rng(20), "categorical", 7, 7)
    out["multinomial-l2-two-sample/exact-7+7"] = _outcome(
        testing.multinomial_l2_two_sample(data, ALPHA, PermutationPlan.exact()))
    return out


# ---------------------------------------------------------------------------
# CLI records


def _write_csvs(folder: Path) -> dict:
    rng = np.random.default_rng(30)
    files = {}

    def write(name, header, rows):
        path = folder / name
        path.write_text("\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n")
        files[name] = str(path)

    write("cat2s.csv", "group,x",
          [(1, int(v)) for v in rng.integers(1, 6, 30)]
          + [(2, int(v)) for v in rng.integers(1, 6, 26)])
    write("small2s.csv", "group,x",
          [(1, int(v)) for v in rng.integers(1, 4, 4)]
          + [(2, int(v)) for v in rng.integers(1, 4, 4)])
    write("cont2s.csv", "group,x1,x2",
          [(1, *map(float, r)) for r in rng.random((30, 2))]
          + [(2, *map(float, r)) for r in rng.random((26, 2)) ** 1.5])
    y = rng.integers(1, 5, 36)
    z = (y + rng.integers(0, 2, 36)) % 4 + 1
    write("catpair.csv", "y,z", [(int(a), int(b)) for a, b in zip(y, z)])
    y = rng.random(36)
    z = 0.6 * y + 0.4 * rng.random(36)
    write("contpair.csv", "y,z", [(float(a), float(b)) for a, b in zip(y, z)])
    write("pois.csv", "group,c1,c2,c3",
          [(1, *map(int, r)) for r in rng.poisson(1.0, (12, 3))]
          + [(2, *map(int, r)) for r in rng.poisson(1.5, (12, 3))])
    return files


# one invocation per cli._ROUTES row, in the table's order, then --exact
CLI_RUNS = (
    ("twosample", "cat2s.csv", []),
    ("twosample", "cont2s.csv", ["--adaptive"]),
    ("twosample", "cont2s.csv", ["--bins", "auto", "-s", "0.5"]),
    ("twosample", "cont2s.csv", ["--bins", "3"]),
    ("twosample", "cat2s.csv", ["--stat", "l1-split"]),
    ("twosample", "cont2s.csv", ["--stat", "mmd", "-s", "1"]),
    ("independence", "catpair.csv", []),
    ("independence", "contpair.csv", ["--adaptive"]),
    ("independence", "contpair.csv", ["--bins", "auto", "-s", "0.5"]),
    ("independence", "contpair.csv", ["--bins", "3"]),
    ("independence", "catpair.csv", ["--stat", "l1-split"]),
    ("independence", "contpair.csv", ["--stat", "hsic", "--bandwidth", "0.3", "-s", "1"]),
    ("poisson-chisq", "pois.csv", []),
    ("twosample", "small2s.csv", ["--exact"]),
)


def cli_records() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = _write_csvs(Path(tmp))
        for command, name, flags in CLI_RUNS:
            args = [command, "--input", files[name], "-B", "99", "--seed", "5", *flags]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            out[" ".join([command, name, *flags])] = json.loads(result.output)
    return out


# ---------------------------------------------------------------------------
# simulation CSVs


SIMULATIONS = {
    "threshold-twosample": ("threshold", {"kind": "twosample", "gammas": [0.5, 1.0],
                                          "c_grid": [1.0, 4.0], "n1": 20, "n2": 20, "d": 10,
                                          "replicates": 49, "trials": 6}),
    "threshold-independence": ("threshold", {"kind": "independence", "gammas": [0.5],
                                             "c_grid": [1.0, 4.0], "n": 30, "d1": 5, "d2": 5,
                                             "replicates": 49, "trials": 6}),
    "qq": ("qq", {"d_values": [5, 20], "n1": 20, "n2": 20, "replicates": 99,
                  "null_reps": 99, "quantiles": [0.1, 0.5, 0.9]}),
    "histogram": ("histogram", {"d_values": [5, 50], "n1": 20, "n2": 20, "replicates": 30}),
    "power-twosample": ("power", {"kind": "twosample", "grid": [0.0, 0.08], "d": 10,
                                  "n1": 30, "n2": 30, "replicates": 49, "trials": 5}),
    "power-independence": ("power", {"kind": "independence", "grid": [0.0, 0.05], "d1": 4,
                                     "d2": 4, "n": 40, "replicates": 49, "trials": 5}),
    "power-mmd": ("power", {"kind": "mmd", "grid": [0.0, 1.0], "n1": 20, "n2": 20,
                            "replicates": 49, "trials": 5}),
    "power-hsic": ("power", {"kind": "hsic", "grid": [0.0, 0.8], "n": 30, "bandwidth": 0.7,
                             "replicates": 49, "trials": 5}),
}


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def simulation_csvs() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (experiment, config) in SIMULATIONS.items():
            config_path = Path(tmp) / f"{name}.json"
            config_path.write_text(json.dumps({**config, "seed": 3}))
            csv_path = Path(tmp) / f"{name}.csv"
            args = ["simulate", experiment, "--config", str(config_path), "--output", str(csv_path)]
            result = CliRunner().invoke(main, args)
            assert result.exit_code == 0, result.output
            out[name] = _sha256(csv_path)
    return out


# ---------------------------------------------------------------------------
# kernels and the tail report


def kernel_values() -> dict:
    rng = np.random.default_rng(40)
    cats = rng.integers(0, 4, 7)
    pairs = np.stack([cats, rng.integers(0, 3, 7)], axis=1)
    weights = kernels.split_weights(rng.integers(0, 4, 5), 4)
    specs = (
        ("indicator", kernels.MultinomialIndicator(4), cats),
        ("weighted", kernels.WeightedMultinomial(weights), cats),
        ("product", kernels.product_weights(rng.integers(0, 4, 5), rng.integers(0, 3, 5), 4, 3),
         pairs),
        ("gaussian", kernels.Gaussian([0.4, 0.9]), rng.random((7, 2))),
    )
    out = {}
    for name, spec, points in specs:
        for zero in (True, False):
            g = kernels.gram(spec, points, zero_diagonal=zero)
            out[f"{name}/gram/zero_diagonal={zero}"] = {
                "values": g.values.tolist(), "diagonal_zeroed": g.diagonal_zeroed}
        out[f"{name}/evaluate"] = [spec.evaluate(points[i], points[j])
                                   for i in range(3) for j in range(3)]
    return out


def tail_report_csv() -> dict:
    report = empirical_tail_check(
        lambda rng, size: rng.standard_normal(size),
        lambda t: math.exp(-t * t / 2.0),
        [0.5, 1.0, 2.0],
        replicates=1000,
        seed=3,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tail.csv"
        report.to_csv(path)
        return {"tail-report": _sha256(path)}


SECTIONS = {
    "procedures": procedure_outcomes,
    "cli": cli_records,
    "simulate": simulation_csvs,
    "kernels": kernel_values,
    "tail-report": tail_report_csv,
}


# ---------------------------------------------------------------------------
# comparison


def _assert_same(actual, expected, where: str, gram_stat: bool) -> None:
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        gram_stat = gram_stat or expected.get("test") in GRAM_TESTS
        for key, value in expected.items():
            if gram_stat and key in GRAM_FIELDS and value is not None:
                assert actual[key] == pytest.approx(value, rel=1e-12, abs=0.0), f"{where}/{key}"
            else:
                _assert_same(actual[key], value, f"{where}/{key}", gram_stat)
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_same(a, e, f"{where}[{i}]", gram_stat)
    else:
        assert actual == expected and type(actual) is type(expected), where


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("section", list(SECTIONS))
def test_outputs_match_fixture(section, expected):
    actual = json.loads(json.dumps(SECTIONS[section]()))
    for key, value in expected[section].items():
        assert key in actual, f"{section}: {key} no longer produced"
        gram_stat = section == "procedures" and key.split("/")[0].split("-")[0] in GRAM_TESTS
        _assert_same(actual[key], value, f"{section}: {key}", gram_stat)
    assert actual.keys() == expected[section].keys()


def test_cli_runs_cover_every_route():
    # a new route needs its own CLI_RUNS entry and a regenerated fixture
    assert len(CLI_RUNS) == len(cli._ROUTES) + 1


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else FIXTURE
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps({name: fn() for name, fn in SECTIONS.items()}, indent=1) + "\n")
    print(f"wrote {target}", file=sys.stderr)
