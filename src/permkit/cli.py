"""Command-line interface.

Subcommands: ``twosample``, ``independence``, ``poisson-chisq`` run one test
on a CSV file and emit a JSON record; ``simulate`` runs the desk-scale
experiments and writes CSV.  Input or domain errors exit with code 2.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np

from . import dataio, simlab, testing
from .perm_core import PermutationPlan
from .ustats import Continuous

_STAT_CHOICES_TS = ("multinomial-l2", "l1-split", "mmd")
_STAT_CHOICES_IND = ("multinomial-l2", "l1-split", "hsic")


def _domain_errors_exit_2(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _build_plan(exact: bool, perms: int, seed: int) -> PermutationPlan:
    if exact:
        return PermutationPlan.exact()
    return PermutationPlan.monte_carlo(perms, seed)


def _parse_bandwidth(text: str | None):
    if text is None:
        return None
    return np.array([float(v) for v in text.split(",")])


def _refuse_ignored_flags(binned: bool, kernel: bool, adaptive: bool, bins, *bandwidths) -> None:
    """Raise on a flag that the test chosen for this data and statistic would ignore."""
    if (adaptive or bins is not None) and not binned:
        raise ValueError(
            "--adaptive and --bins apply only to continuous data with --stat multinomial-l2"
        )
    if any(bw is not None for bw in bandwidths) and not kernel:
        raise ValueError("bandwidths apply only to a kernel statistic (--stat mmd or hsic)")


def _emit(record: dict, output) -> None:
    click.echo(dataio.write_outcome_json(record, output))


def _common_test_options(fn):
    for deco in reversed(
        [
            click.option("--input", "input_path", required=True, type=click.Path(exists=True)),
            click.option("--alpha", default=0.05, show_default=True),
            click.option("--perms", "-B", "perms", default=999, show_default=True,
                         help="Monte Carlo permutation replicates."),
            click.option("--seed", default=0, show_default=True),
            click.option("--exact", is_flag=True, help="Enumerate all permutations."),
            click.option("--output", type=click.Path(), default=None,
                         help="Write the JSON record here as well as stdout."),
        ]
    ):
        fn = deco(fn)
    return fn


@click.group()
def main() -> None:
    """Permutation-calibrated two-sample and independence testing."""


@main.command()
@_common_test_options
@click.option("--stat", type=click.Choice(_STAT_CHOICES_TS), default="multinomial-l2",
              show_default=True)
@click.option("--bandwidth", default=None, help="Comma-separated Gaussian bandwidths (mmd).")
@click.option("--smoothness", "-s", default=None, type=float,
              help="Holder/Sobolev exponent for bandwidth or bin rules.")
@click.option("--bins", default=None,
              help="Bins per axis for continuous data: an integer or 'auto'.")
@click.option("--adaptive", is_flag=True, help="Adaptive binned test over a dyadic grid.")
@click.option("--categories", default=None, type=int, help="Category count override.")
@click.option("--type", "kind", type=click.Choice(["categorical", "continuous"]), default=None)
@_domain_errors_exit_2
def twosample(input_path, alpha, perms, seed, exact, output, stat, bandwidth,
              smoothness, bins, adaptive, categories, kind) -> None:
    """Two-sample test on a CSV with a 'group' column."""
    plan = _build_plan(exact, perms, seed)
    data = dataio.load_two_sample_csv(input_path, categories=categories, kind=kind)
    binned = isinstance(data.domain, Continuous) and stat == "multinomial-l2"
    _refuse_ignored_flags(binned, stat == "mmd", adaptive, bins, bandwidth)
    if stat == "mmd":
        bw = _parse_bandwidth(bandwidth)
        if bw is None:
            if smoothness is None:
                raise ValueError("mmd needs --bandwidth or --smoothness")
            bw = testing.SmoothnessRule(smoothness)
        outcome = testing.mmd_test(data, bw, alpha, plan)
        _emit(dataio.outcome_record("mmd", outcome), output)
        return
    if stat == "l1-split":
        outcome = testing.l1_split_two_sample(data, alpha, plan)
        _emit(dataio.outcome_record("l1-split-two-sample", outcome), output)
        return
    # multinomial-l2, possibly after binning continuous data
    if isinstance(data.domain, Continuous):
        if adaptive:
            outcome = testing.adaptive_two_sample(data, alpha, plan)
            _emit(dataio.outcome_record("adaptive-two-sample", outcome, plan_seed=seed), output)
            return
        if bins is None:
            raise ValueError("continuous data needs --bins, --adaptive, or --stat mmd")
        if bins == "auto":
            if smoothness is None:
                raise ValueError("--bins auto requires --smoothness")
            outcome = testing.holder_two_sample(data, smoothness, alpha, plan)
        else:
            outcome = testing.binned_two_sample(data, int(bins), alpha, plan)
        _emit(dataio.outcome_record("binned-two-sample", outcome), output)
        return
    outcome = testing.multinomial_l2_two_sample(data, alpha, plan)
    _emit(dataio.outcome_record("multinomial-l2-two-sample", outcome), output)


@main.command()
@_common_test_options
@click.option("--stat", type=click.Choice(_STAT_CHOICES_IND), default="multinomial-l2",
              show_default=True)
@click.option("--bandwidth", default=None, help="Comma-separated y-bandwidths (hsic).")
@click.option("--bandwidth-z", default=None, help="Comma-separated z-bandwidths (hsic).")
@click.option("--smoothness", "-s", default=None, type=float)
@click.option("--bins", default=None)
@click.option("--adaptive", is_flag=True)
@click.option("--type", "kind", type=click.Choice(["categorical", "continuous"]), default=None)
@_domain_errors_exit_2
def independence(input_path, alpha, perms, seed, exact, output, stat, bandwidth,
                 bandwidth_z, smoothness, bins, adaptive, kind) -> None:
    """Independence test on a CSV with paired y*/z* columns."""
    plan = _build_plan(exact, perms, seed)
    data = dataio.load_paired_csv(input_path, kind=kind)
    binned = isinstance(data.y_domain, Continuous) and stat == "multinomial-l2"
    _refuse_ignored_flags(binned, stat == "hsic", adaptive, bins, bandwidth, bandwidth_z)
    if stat == "hsic":
        bw_y = _parse_bandwidth(bandwidth)
        bw_z = _parse_bandwidth(bandwidth_z)
        if bw_y is None or bw_z is None:
            if smoothness is None:
                raise ValueError("hsic needs bandwidths or --smoothness")
            rule = testing.SmoothnessRule(smoothness)
            bw_y = bw_y if bw_y is not None else rule
            bw_z = bw_z if bw_z is not None else rule
        outcome = testing.hsic_test(data, bw_y, bw_z, alpha, plan)
        _emit(dataio.outcome_record("hsic", outcome), output)
        return
    if stat == "l1-split":
        outcome = testing.l1_split_independence(data, alpha, plan)
        _emit(dataio.outcome_record("l1-split-independence", outcome), output)
        return
    if isinstance(data.y_domain, Continuous):
        if adaptive:
            outcome = testing.adaptive_independence(data, alpha, plan)
            _emit(dataio.outcome_record("adaptive-independence", outcome, plan_seed=seed), output)
            return
        if bins is None:
            raise ValueError("continuous data needs --bins, --adaptive, or --stat hsic")
        if bins == "auto":
            if smoothness is None:
                raise ValueError("--bins auto requires --smoothness")
            outcome = testing.holder_independence(data, smoothness, alpha, plan)
        else:
            outcome = testing.binned_independence(data, int(bins), alpha, plan)
        _emit(dataio.outcome_record("binned-independence", outcome), output)
        return
    outcome = testing.multinomial_l2_independence(data, alpha, plan)
    _emit(dataio.outcome_record("multinomial-l2-independence", outcome), output)


@main.command(name="poisson-chisq")
@_common_test_options
@_domain_errors_exit_2
def poisson_chisq(input_path, alpha, perms, seed, exact, output) -> None:
    """Poisson two-sample chi-square test on per-individual count rows."""
    plan = _build_plan(exact, perms, seed)
    counts = dataio.load_poisson_csv(input_path)
    outcome = testing.poisson_chisq_test(counts, alpha, plan)
    _emit(dataio.outcome_record("poisson-chisq", outcome), output)


def _load_config(experiment: str, config_path, overrides: dict):
    base = {}
    if config_path is not None:
        with open(config_path) as fh:
            base = json.load(fh)
    base.update({k: v for k, v in overrides.items() if v is not None})
    return simlab.config_from_dict(experiment, base)


def _simulate_options(fn):
    for deco in reversed(
        [
            click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                         help="JSON file of config overrides."),
            click.option("--output", required=True, type=click.Path()),
            click.option("--seed", default=None, type=int),
            click.option("--trials", default=None, type=int),
            click.option("--workers", default=None, type=int),
        ]
    ):
        fn = deco(fn)
    return fn


@main.group()
def simulate() -> None:
    """Desk-scale simulation experiments (CSV output)."""


@simulate.command()
@_simulate_options
@_domain_errors_exit_2
def threshold(config_path, output, seed, trials, workers) -> None:
    """Threshold-sensitivity type-I comparison."""
    cfg = _load_config(
        "threshold", config_path, {"seed": seed, "trials": trials, "workers": workers}
    )
    simlab.experiment_threshold_sensitivity(cfg, output)
    click.echo(f"wrote {output}")


@simulate.command()
@_simulate_options
@_domain_errors_exit_2
def qq(config_path, output, seed, trials, workers) -> None:
    """Permutation-vs-null quantile comparison."""
    if trials is not None:
        raise ValueError("qq has no --trials; set replicates/null_reps in --config")
    cfg = _load_config("qq", config_path, {"seed": seed, "workers": workers})
    result = simlab.experiment_qq(cfg, output)
    for (d, design), ks in sorted(result.ks.items()):
        click.echo(f"d={d} design={design} ks={ks:.4f}")
    click.echo(f"wrote {output}")


@simulate.command()
@_simulate_options
@_domain_errors_exit_2
def histogram(config_path, output, seed, trials, workers) -> None:
    """Null statistic samples for histogramming."""
    overrides = {"seed": seed, "workers": workers}
    if trials is not None:
        overrides["replicates"] = trials
    cfg = _load_config("histogram", config_path, overrides)
    skew = simlab.experiment_null_histogram(cfg, output)
    for d, s in sorted(skew.items()):
        click.echo(f"d={d} skewness={s:.4f}")
    click.echo(f"wrote {output}")


@simulate.command()
@_simulate_options
@_domain_errors_exit_2
def power(config_path, output, seed, trials, workers) -> None:
    """Monte Carlo power along a separation grid."""
    cfg = _load_config(
        "power", config_path, {"seed": seed, "trials": trials, "workers": workers}
    )
    rows = simlab.power_curve(cfg, output)
    for value, rate, se in rows:
        click.echo(f"value={value} power={rate:.3f} se={se:.4f}")
    click.echo(f"wrote {output}")


if __name__ == "__main__":
    main()
