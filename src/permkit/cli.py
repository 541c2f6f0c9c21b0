"""Command-line interface.

Subcommands: ``twosample``, ``independence``, ``poisson-chisq`` run one test
on a CSV file and emit a JSON record; ``simulate`` runs the desk-scale
experiments and writes CSV.  Input or domain errors exit with code 2, and so
does a test flag that the chosen test would not read.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import numpy as np
from click.core import ParameterSource

from . import dataio, simlab, testing
from .perm_core import PermutationPlan
from .ustats import Continuous

# (command, --stat, data kind, binning choice) -> (procedure, JSON record name,
# test flags the procedure reads).  The binning choice is "adaptive", "auto"
# (--bins auto) or "int" (--bins <int>) for the count statistic on continuous
# data and None elsewhere; the procedure takes the data, the arguments those
# flags give, alpha and the plan.
_ROUTES = {
    ("twosample", "multinomial-l2", "categorical", None):
        (testing.multinomial_l2_two_sample, "multinomial-l2-two-sample", ()),
    ("twosample", "multinomial-l2", "continuous", "adaptive"):
        (testing.adaptive_two_sample, "adaptive-two-sample", ("adaptive",)),
    ("twosample", "multinomial-l2", "continuous", "auto"):
        (testing.holder_two_sample, "binned-two-sample", ("bins", "smoothness")),
    ("twosample", "multinomial-l2", "continuous", "int"):
        (testing.binned_two_sample, "binned-two-sample", ("bins",)),
    ("twosample", "l1-split", "categorical", None):
        (testing.l1_split_two_sample, "l1-split-two-sample", ()),
    ("twosample", "mmd", "continuous", None):
        (testing.mmd_test, "mmd", ("bandwidth", "smoothness")),
    ("independence", "multinomial-l2", "categorical", None):
        (testing.multinomial_l2_independence, "multinomial-l2-independence", ()),
    ("independence", "multinomial-l2", "continuous", "adaptive"):
        (testing.adaptive_independence, "adaptive-independence", ("adaptive",)),
    ("independence", "multinomial-l2", "continuous", "auto"):
        (testing.holder_independence, "binned-independence", ("bins", "smoothness")),
    ("independence", "multinomial-l2", "continuous", "int"):
        (testing.binned_independence, "binned-independence", ("bins",)),
    ("independence", "l1-split", "categorical", None):
        (testing.l1_split_independence, "l1-split-independence", ()),
    ("independence", "hsic", "continuous", None):
        (testing.hsic_test, "hsic", ("bandwidth", "bandwidth_z", "smoothness")),
    ("poisson-chisq", None, None, None): (testing.poisson_chisq_test, "poisson-chisq", ()),
}
_TEST_FLAGS = {flag for _, _, reads in _ROUTES.values() for flag in reads}


def _domain_errors_exit_2(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _parse_bandwidth(text: str | None):
    if text is None:
        return None
    return np.array([float(v) for v in text.split(",")])


def _arguments(reads: tuple, params: dict) -> list:
    """The procedure's arguments between the data and alpha."""
    if "smoothness" in reads and params["smoothness"] is None:
        raise ValueError("--bins auto and a kernel side without --bandwidth need --smoothness")
    sides = [_parse_bandwidth(params[flag]) for flag in reads if flag.startswith("bandwidth")]
    if sides:
        return [testing.SmoothnessRule(params["smoothness"]) if bw is None else bw for bw in sides]
    if "bins" in reads:
        return [params["smoothness"] if params["bins"] == "auto" else int(params["bins"])]
    return []


def _dispatch(command: str, data, domain) -> None:
    """Find the route, refuse test flags it does not read, run it and emit the record."""
    ctx = click.get_current_context()
    params = ctx.params
    stat = params.get("stat")
    kind = None
    if domain is not None:
        kind = "continuous" if isinstance(domain, Continuous) else "categorical"
    choice = None
    if kind == "continuous" and stat == "multinomial-l2":
        if params["adaptive"]:
            choice = "adaptive"
        elif params["bins"] is not None:
            choice = "auto" if params["bins"] == "auto" else "int"
    route = _ROUTES.get((command, stat, kind, choice))
    if route is None:
        if any(key[:3] == (command, stat, kind) for key in _ROUTES):
            raise ValueError(f"continuous data with --stat {stat} needs --bins or --adaptive")
        raise ValueError(f"--stat {stat} does not apply to {kind} data")
    procedure, name, reads = route
    sides = [flag for flag in reads if flag.startswith("bandwidth")]
    if sides and all(params[flag] is not None for flag in sides):
        # the smoothness rule only fills in a missing bandwidth
        reads = tuple(flag for flag in reads if flag != "smoothness")
    given = sorted(flag for flag in _TEST_FLAGS & params.keys()
                   if ctx.get_parameter_source(flag) == ParameterSource.COMMANDLINE)
    unread = ", ".join(f"--{flag.replace('_', '-')}" for flag in given if flag not in reads)
    if unread:
        raise ValueError(f"{name} does not read {unread}; test flags apply only to the tests "
                         "that read them")
    args = _arguments(reads, params)
    plan = (PermutationPlan.exact() if params["exact"]
            else PermutationPlan.monte_carlo(params["perms"], params["seed"]))
    outcome = procedure(data, *args, params["alpha"], plan)
    record = dataio.outcome_record(name, outcome)
    click.echo(dataio.write_outcome_json(record, params["output"]))


def _stack(*decorators):
    """One decorator applying ``decorators`` in the order listed."""

    def apply(fn):
        for deco in reversed(decorators):
            fn = deco(fn)
        return fn

    return apply


def _stat_option(command: str):
    stats = tuple(dict.fromkeys(key[1] for key in _ROUTES if key[0] == command))
    return click.option("--stat", type=click.Choice(stats), default=stats[0], show_default=True)


_common_test_options = _stack(
    click.option("--input", "input_path", required=True, type=click.Path(exists=True)),
    click.option("--alpha", default=0.05, show_default=True),
    click.option("--perms", "-B", "perms", default=999, show_default=True,
                 help="Monte Carlo permutation replicates."),
    click.option("--seed", default=0, show_default=True),
    click.option("--exact", is_flag=True,
                 help="Enumerate every relabeling (the C(n, n1) subsets for two-sample tests)."),
    click.option("--output", type=click.Path(), default=None,
                 help="Write the JSON record here as well as stdout."),
)
_test_options = _stack(
    click.option("--bandwidth", default=None,
                 help="Comma-separated Gaussian bandwidths (mmd; the y side of hsic)."),
    click.option("--smoothness", "-s", default=None, type=float,
                 help="Holder/Sobolev exponent for bandwidth or bin rules."),
    click.option("--bins", default=None,
                 help="Bins per axis for continuous data: an integer or 'auto'."),
    click.option("--adaptive", is_flag=True, help="Adaptive binned test over a dyadic grid."),
    click.option("--type", "kind", type=click.Choice(["categorical", "continuous"]), default=None),
)


@click.group()
def main() -> None:
    """Permutation-calibrated two-sample and independence testing."""


@main.command()
@_common_test_options
@_stat_option("twosample")
@_test_options
@click.option("--categories", default=None, type=int, help="Category count override.")
@_domain_errors_exit_2
def twosample(input_path, categories, kind, **_) -> None:
    """Two-sample test on a CSV with a 'group' column."""
    data = dataio.load_two_sample_csv(input_path, categories=categories, kind=kind)
    _dispatch("twosample", data, data.domain)


@main.command()
@_common_test_options
@_stat_option("independence")
@_test_options
@click.option("--bandwidth-z", default=None, help="Comma-separated z-bandwidths (hsic).")
@_domain_errors_exit_2
def independence(input_path, kind, **_) -> None:
    """Independence test on a CSV with paired y*/z* columns."""
    data = dataio.load_paired_csv(input_path, kind=kind)
    _dispatch("independence", data, data.y_domain)


@main.command(name="poisson-chisq")
@_common_test_options
@_domain_errors_exit_2
def poisson_chisq(input_path, **_) -> None:
    """Poisson two-sample chi-square test on per-individual count rows."""
    _dispatch("poisson-chisq", dataio.load_poisson_csv(input_path), None)


def _load_config(experiment: str, config_path, overrides: dict):
    base = {}
    if config_path is not None:
        with open(config_path) as fh:
            base = json.load(fh)
    base.update({k: v for k, v in overrides.items() if v is not None})
    return simlab.config_from_dict(experiment, base)


_simulate_options = _stack(
    click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                 help="JSON file of config overrides."),
    click.option("--output", required=True, type=click.Path()),
    click.option("--seed", default=None, type=int),
    click.option("--trials", default=None, type=int),
    click.option("--workers", default=None, type=int),
)


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
