"""The benchmark's workloads: inputs from a seed, one op, and its output check.

Every input is drawn with numpy from ``(seed, op)``; the program under test
sees only the generated arrays, files and plans.  The checks compare each
op's output with public scalar evaluators fed by the benchmark's own
reductions (bin counts, Gram matrices) and with stream-free exact counts.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from permkit import dataio, testing, ustats
from permkit.kernels import GramMatrix
from permkit.perm_core import PermutationPlan
from permkit.ustats import Categorical, Continuous, PairedSample, TwoSamplePooled

ALPHA = 0.05
STAT_RTOL = 1e-9


def rng_for(seed: int, op: int) -> np.random.Generator:
    return np.random.default_rng([seed, op])


def plan_seed(seed: int, op: int) -> int:
    """Master seed of op ``op``'s permutation plan, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, op, 1]).generate_state(1, np.uint64)[0])


def _stat_problem(label: str, got: float, want: float, scale: float) -> list[str]:
    # relative to the larger of the two values, floored by the scale of the
    # summed terms so a statistic near zero is not judged on cancellation noise
    if abs(got - want) <= STAT_RTOL * max(abs(got), abs(want), scale):
        return []
    return [f"{label}: statistic {got!r} != reference {want!r}"]


def _decision_problems(label: str, outcome, rows: int) -> list[str]:
    """p on the grid k/rows (rows = B+1 or n!) and reject == (p <= alpha)."""
    problems = []
    if outcome.replicate_count != rows:
        problems.append(f"{label}: {outcome.replicate_count} replicates, expected {rows}")
    k = round(outcome.p_value * rows)
    if not 1 <= k <= rows or outcome.p_value != k / rows:
        problems.append(f"{label}: p-value {outcome.p_value!r} is not on the grid k/{rows}")
    if outcome.reject != (outcome.p_value <= outcome.alpha):
        problems.append(f"{label}: reject={outcome.reject} but p={outcome.p_value} alpha={outcome.alpha}")
    return problems


def _bins(x: np.ndarray, kappa: int) -> np.ndarray:
    return np.minimum((x * kappa).astype(np.int64), kappa - 1)


def _gaussian_gram(points: np.ndarray, lam: np.ndarray) -> GramMatrix:
    diff = (points[:, None, :] - points[None, :, :]) / lam
    log_norm = -0.5 * lam.size * math.log(2 * math.pi) - float(np.log(lam).sum())
    values = np.exp(log_norm - 0.5 * (diff**2).sum(axis=2))
    np.fill_diagonal(values, 0.0)
    return GramMatrix(values=values, diagonal_zeroed=True)


class Workload:
    """One op type.  ``case`` builds the op's input, ``run`` is the timed op."""

    name = ""
    why = ""

    def params(self) -> dict:
        return dict(vars(self))

    def prepare(self, seed: int, workdir: Path) -> None:
        """Per-run set-up outside the op (files the op reads)."""

    def case(self, seed: int, op: int) -> dict:
        raise NotImplementedError

    def decide(self, case: dict) -> list:
        """The op's decisions computed in memory, as a list of TestOutcome."""
        raise NotImplementedError

    def run(self, case: dict):
        return self.decide(case)

    def check(self, case: dict, result) -> list[str]:
        raise NotImplementedError


class SimSmallN(Workload):
    name = "sim-small-n"
    why = ("a simulation-study trial: 11 adaptive-grid Monte Carlo plans at n=100 where "
           "per-replicate relabeling overhead dominates (ROADMAP items 3 and 4)")

    def __init__(self, n1: int = 50, replicates: int = 300) -> None:
        self.n1 = n1
        self.replicates = replicates

    def case(self, seed: int, op: int) -> dict:
        rng = rng_for(seed, op)
        return {
            "y": rng.random(self.n1),
            "z": rng.random(self.n1),
            "plan": PermutationPlan.monte_carlo(self.replicates, plan_seed(seed, op)),
        }

    def run(self, case: dict):
        data = TwoSamplePooled(y=case["y"], z=case["z"], domain=Continuous(1))
        return testing.adaptive_two_sample(data, ALPHA, case["plan"])

    def decide(self, case: dict) -> list:
        return [o for _, o in self.run(case).components]

    def check(self, case: dict, result) -> list[str]:
        problems = []
        rows = case["plan"].replicates + 1
        for kappa, o in result.components:
            label = f"kappa={kappa}"
            want = ustats.multinomial_two_sample_u(
                np.bincount(_bins(case["y"], kappa), minlength=kappa),
                np.bincount(_bins(case["z"], kappa), minlength=kappa),
            )
            problems += _stat_problem(label, o.statistic, want, 1.0 / self.n1)
            problems += _decision_problems(label, o, rows)
            if o.alpha != result.per_test_alpha:
                problems.append(f"{label}: component level {o.alpha} != {result.per_test_alpha}")
        if result.reject != any(o.reject for _, o in result.components):
            problems.append("adaptive reject is not the union of its components")
        return problems


class KernelGram(Workload):
    name = "kernel-gram"
    why = ("Gaussian MMD (n=1000, 2-D) plus HSIC (n=150): statistic evaluation and the "
           "Gram build dominate, relabeling is a small share")
    rho = 0.3

    def __init__(self, mmd_n1: int = 500, hsic_n: int = 150, replicates: int = 999) -> None:
        self.mmd_n1 = mmd_n1
        self.hsic_n = hsic_n
        self.replicates = replicates

    def case(self, seed: int, op: int) -> dict:
        rng = rng_for(seed, op)
        y = rng.random((self.mmd_n1, 2))
        z = rng.random((self.mmd_n1, 2)) ** 1.1  # mild alternative
        # w = a*u + (1-a)*v stays in [0, 1]; corr(u, w) = a / sqrt(a^2 + (1-a)^2) = rho
        a = self.rho / (self.rho + math.sqrt(1.0 - self.rho**2))
        u = rng.random(self.hsic_n)
        w = a * u + (1.0 - a) * rng.random(self.hsic_n)
        return {
            "mmd_y": y, "mmd_z": z, "hsic_y": u, "hsic_z": w,
            "plan": PermutationPlan.monte_carlo(self.replicates, plan_seed(seed, op)),
        }

    def decide(self, case: dict) -> list:
        rule = testing.SmoothnessRule(1.0)
        mmd = testing.mmd_test(
            TwoSamplePooled(y=case["mmd_y"], z=case["mmd_z"], domain=Continuous(2)),
            rule, ALPHA, case["plan"],
        )
        hsic = testing.hsic_test(
            PairedSample(y=case["hsic_y"], z=case["hsic_z"],
                         y_domain=Continuous(1), z_domain=Continuous(1)),
            rule, rule, ALPHA, case["plan"],
        )
        return [mmd, hsic]

    def check(self, case: dict, result) -> list[str]:
        mmd, hsic = result
        rows = case["plan"].replicates + 1
        n1 = self.mmd_n1
        lam = np.full(2, (2.0 / n1) ** (2.0 / (4.0 + 2)))
        g = _gaussian_gram(np.concatenate([case["mmd_y"], case["mmd_z"]]), lam)
        problems = _stat_problem("mmd", mmd.statistic, ustats.two_sample_u(g, n1, n1),
                                 g.values.max() / n1)
        n = self.hsic_n
        lam = np.full(1, float(n) ** (-2.0 / (4.0 + 2)))
        gy = _gaussian_gram(case["hsic_y"][:, None], lam)
        gz = _gaussian_gram(case["hsic_z"][:, None], lam)
        problems += _stat_problem("hsic", hsic.statistic, ustats.independence_u(gy, gz),
                                  gy.values.max() * gz.values.max() / n)
        return problems + _decision_problems("mmd", mmd, rows) + _decision_problems("hsic", hsic, rows)


class LargeNCsv(Workload):
    name = "large-n-csv"
    why = ("an analyst's path from a 5000-row CSV to a JSON decision: per-row relabeling "
           "cost grows with n and the index matrix sets memory; the only dataio workload")

    def __init__(self, n1: int = 2500, categories: int = 200, replicates: int = 999) -> None:
        self.n1 = n1
        self.categories = categories
        self.replicates = replicates
        self.csv_path = None
        self.json_path = None

    def params(self) -> dict:
        return {"n1": self.n1, "categories": self.categories, "replicates": self.replicates}

    def _data(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        rng = rng_for(seed, 0)
        d = self.categories
        tilt = 1.0 + 0.1 * np.cos(np.arange(d))  # small l2 departure
        y = rng.integers(0, d, self.n1)
        z = rng.choice(d, self.n1, p=tilt / tilt.sum())
        return y, z

    def prepare(self, seed: int, workdir: Path) -> None:
        y, z = self._data(seed)
        self.csv_path = workdir / f"{self.name}.csv"
        self.json_path = workdir / f"{self.name}.json"
        with open(self.csv_path, "w") as fh:
            fh.write("group,category\n")
            for group, values in (("1", y), ("2", z)):
                fh.writelines(f"{group},{v + 1}\n" for v in values)

    def case(self, seed: int, op: int) -> dict:
        y, z = self._data(seed)
        return {
            "y": y, "z": z,
            "plan": PermutationPlan.monte_carlo(self.replicates, plan_seed(seed, op)),
        }

    def decide(self, case: dict) -> list:
        data = TwoSamplePooled(y=case["y"], z=case["z"], domain=Categorical(self.categories))
        return [testing.multinomial_l2_two_sample(data, ALPHA, case["plan"])]

    def run(self, case: dict):
        data = dataio.load_two_sample_csv(self.csv_path, categories=self.categories)
        outcome = testing.multinomial_l2_two_sample(data, ALPHA, case["plan"])
        record = dataio.outcome_record("multinomial", outcome, plan_seed=case["plan"].seed)
        dataio.write_outcome_json(record, self.json_path)
        return data, outcome

    def check(self, case: dict, result) -> list[str]:
        data, outcome = result
        problems = []
        if not (np.array_equal(data.y, case["y"]) and np.array_equal(data.z, case["z"])):
            problems.append("CSV load does not reproduce the generated samples")
        d = self.categories
        want = ustats.multinomial_two_sample_u(
            np.bincount(case["y"], minlength=d), np.bincount(case["z"], minlength=d)
        )
        problems += _stat_problem("multinomial", outcome.statistic, want, 1.0 / self.n1)
        problems += _decision_problems("multinomial", outcome, case["plan"].replicates + 1)
        with open(self.json_path) as fh:
            record = json.load(fh)
        expected = {
            "statistic": outcome.statistic, "p_value": outcome.p_value,
            "reject": outcome.reject, "B": self.replicates, "seed": case["plan"].seed,
        }
        for key, value in expected.items():
            if record.get(key) != value:
                problems.append(f"JSON record {key}={record.get(key)!r}, expected {value!r}")
        return problems


class ExactEnum(Workload):
    name = "exact-enum"
    why = ("the only exact-plan workload: 4+4 samples decided over all 8! relabelings held in "
           "the enumeration cache; calibrating on the C(8,4)=70 subsets (ROADMAP item 4) targets it")

    def __init__(self, n1: int = 4, n2: int = 4, categories: int = 4) -> None:
        self.n1 = n1
        self.n2 = n2
        self.categories = categories

    def case(self, seed: int, op: int) -> dict:
        rng = rng_for(seed, op)
        d = self.categories
        return {
            "y": rng.integers(0, d, self.n1),
            "z": rng.integers(0, (d + 1) // 2, self.n2),  # z favours low categories
            "plan": PermutationPlan.exact(),
        }

    def decide(self, case: dict) -> list:
        data = TwoSamplePooled(y=case["y"], z=case["z"], domain=Categorical(self.categories))
        return [testing.multinomial_l2_two_sample(data, ALPHA, case["plan"])]

    def exact_count(self, case: dict) -> int:
        """#{relabelings with statistic >= observed}, in integer arithmetic.

        The statistic depends only on which points land in group one, so the
        C(n, n1) subsets each stand for n1! * n2! relabelings.  Scaling by
        n1(n1-1) n2(n2-1) makes every value an integer, so ties are exact.
        """
        n1, n2, d = self.n1, self.n2, self.categories
        x = np.concatenate([case["y"], case["z"]])
        subsets = np.array(list(itertools.combinations(range(n1 + n2), n1)))
        offsets = (np.arange(len(subsets)) * d)[:, None]
        c1 = np.bincount((x[subsets] + offsets).ravel(), minlength=len(subsets) * d)
        c1 = c1.reshape(len(subsets), d)
        c2 = np.bincount(x, minlength=d) - c1
        t = (c1 * (c1 - 1) * n2 * (n2 - 1) + c2 * (c2 - 1) * n1 * (n1 - 1)
             - 2 * c1 * c2 * (n1 - 1) * (n2 - 1)).sum(axis=1)
        # combinations() lists range(n1) first: that subset is the observed labeling
        return int((t >= t[0]).sum()) * math.factorial(n1) * math.factorial(n2)

    def check(self, case: dict, result) -> list[str]:
        (outcome,) = result
        d = self.categories
        want = ustats.multinomial_two_sample_u(
            np.bincount(case["y"], minlength=d), np.bincount(case["z"], minlength=d)
        )
        rows = math.factorial(self.n1 + self.n2)
        problems = _stat_problem("multinomial", outcome.statistic, want, 1.0)
        problems += _decision_problems("exact", outcome, rows)
        k = self.exact_count(case)
        if outcome.p_value != k / rows:
            problems.append(f"exact p {outcome.p_value!r} != enumerated {k}/{rows}")
        return problems


WORKLOADS = {w.name: w for w in (SimSmallN, KernelGram, LargeNCsv, ExactEnum)}

# sizes for the self-tests: every code path, a fraction of a second per op
TINY = {
    "sim-small-n": {"n1": 12, "replicates": 199},
    "kernel-gram": {"mmd_n1": 20, "hsic_n": 12, "replicates": 49},
    "large-n-csv": {"n1": 40, "categories": 5, "replicates": 49},
    "exact-enum": {"n1": 3, "n2": 3, "categories": 3},
}


def make(name: str, tiny: bool = False) -> Workload:
    return WORKLOADS[name](**(TINY[name] if tiny else {}))
