import json

import numpy as np
import pytest
from click.testing import CliRunner

from permkit import cli, dataio, testing
from permkit.cli import main
from permkit.dataio import load_paired_csv, load_poisson_csv, load_two_sample_csv
from permkit.perm_core import PermutationPlan
from permkit.ustats import Categorical, Continuous


@pytest.fixture
def runner():
    return CliRunner()


def _write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def categorical_two_sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["group,x"]
    lines += [f"1,{v}" for v in rng.integers(1, 5, 24)]
    lines += [f"2,{v}" for v in rng.integers(1, 5, 24)]
    return _write(tmp_path / "ts.csv", "\n".join(lines) + "\n")


@pytest.fixture
def continuous_two_sample_csv(tmp_path):
    rng = np.random.default_rng(3)
    lines = ["group,x1,x2"]
    lines += [f"1,{a},{b}" for a, b in rng.random((20, 2))]
    lines += [f"2,{a},{b}" for a, b in rng.random((20, 2)) ** 2]
    return _write(tmp_path / "ts_cont.csv", "\n".join(lines) + "\n")


@pytest.fixture
def categorical_paired_csv(tmp_path):
    rng = np.random.default_rng(4)
    lines = ["y,z"]
    lines += [f"{a},{b}" for a, b in rng.integers(1, 4, (36, 2))]
    return _write(tmp_path / "pair_cat.csv", "\n".join(lines) + "\n")


@pytest.fixture
def continuous_paired_csv(tmp_path):
    rng = np.random.default_rng(1)
    lines = ["y1,z1"]
    lines += [f"{a},{b}" for a, b in rng.random((30, 2))]
    return _write(tmp_path / "pair.csv", "\n".join(lines) + "\n")


@pytest.fixture
def poisson_csv(tmp_path):
    rng = np.random.default_rng(2)
    lines = ["group,c1,c2,c3"]
    for row in rng.poisson(1.0, (8, 3)):
        lines.append("1," + ",".join(map(str, row)))
    for row in rng.poisson(1.0, (8, 3)):
        lines.append("2," + ",".join(map(str, row)))
    return _write(tmp_path / "pois.csv", "\n".join(lines) + "\n")


class TestLoaders:
    def test_two_sample_categorical(self, categorical_two_sample_csv):
        data = load_two_sample_csv(categorical_two_sample_csv)
        assert isinstance(data.domain, Categorical)
        assert data.n1 == 24 and data.n2 == 24
        assert data.pooled().min() >= 0  # converted to 0-based

    def test_two_sample_category_override(self, categorical_two_sample_csv):
        data = load_two_sample_csv(categorical_two_sample_csv, categories=9)
        assert data.domain.d == 9

    def test_category_override_refused_on_continuous_data(
        self, continuous_two_sample_csv, continuous_paired_csv
    ):
        with pytest.raises(ValueError, match="categorical"):
            load_two_sample_csv(continuous_two_sample_csv, categories=9)
        with pytest.raises(ValueError, match="categorical"):
            load_paired_csv(continuous_paired_csv, categories=(None, 9))

    def test_paired_continuous(self, continuous_paired_csv):
        data = load_paired_csv(continuous_paired_csv)
        assert isinstance(data.y_domain, Continuous)
        assert data.n == 30

    def test_poisson(self, poisson_csv):
        counts = load_poisson_csv(poisson_csv)
        assert counts.d == 3
        assert counts.group_size == 8

    def test_missing_group_column(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "a,b\n1,2\n")
        with pytest.raises(ValueError, match="group"):
            load_two_sample_csv(path)

    def test_zero_category_rejected(self, tmp_path):
        path = _write(tmp_path / "bad.csv", "group,x\n1,0\n1,1\n2,1\n2,2\n")
        with pytest.raises(ValueError, match="positive"):
            load_two_sample_csv(path)

    @pytest.mark.parametrize(
        "load, text",
        [
            (load_two_sample_csv, "group,x\n# comment\n1,1\n1\n2,2\n2,1\n"),
            (load_paired_csv, "y,z\n# comment\n1,2\n2,1,1\n1,1\n2,2\n"),
            (load_poisson_csv, "group,c1,c2\n# comment\n1,1,2\n1,0\n2,1,1\n2,0,0\n"),
        ],
    )
    def test_row_with_wrong_field_count_names_its_line(self, tmp_path, load, text):
        path = _write(tmp_path / "ragged.csv", text)
        with pytest.raises(ValueError, match="line 4 has"):
            load(path)

    def test_paired_numbered_columns_sorted(self, tmp_path):
        path = _write(
            tmp_path / "p.csv",
            "y2,y1,z1\n0.1,0.2,0.3\n0.4,0.5,0.6\n0.7,0.8,0.9\n0.1,0.2,0.3\n",
        )
        data = load_paired_csv(path)
        assert data.y.shape == (4, 2)
        # y1 column comes first after sorting
        assert data.y[0, 0] == pytest.approx(0.2)


class TestCommands:
    def test_twosample_json(self, runner, categorical_two_sample_csv):
        result = runner.invoke(
            main,
            ["twosample", "--input", categorical_two_sample_csv, "--perms", "99",
             "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["test"] == "multinomial-l2-two-sample"
        assert record["B"] == 99
        assert record["seed"] == 7
        assert set(record) >= {"statistic", "critical_value", "p_value", "reject", "alpha"}

    def test_twosample_exact(self, runner, tmp_path):
        path = _write(tmp_path / "t.csv", "group,x\n1,1\n1,2\n2,1\n2,2\n")
        result = runner.invoke(main, ["twosample", "--input", path, "--exact"])
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["p_value"] == 1.0

    def test_independence_hsic(self, runner, continuous_paired_csv):
        result = runner.invoke(
            main,
            ["independence", "--input", continuous_paired_csv, "--stat", "hsic",
             "--smoothness", "1", "--perms", "49"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["test"] == "hsic"

    def test_independence_adaptive(self, runner, continuous_paired_csv):
        result = runner.invoke(
            main,
            ["independence", "--input", continuous_paired_csv, "--adaptive",
             "--perms", "49"],
        )
        assert result.exit_code == 0, result.output
        record = json.loads(result.output)
        assert record["test"] == "adaptive-independence"
        assert len(record["components"]) == record["gamma_max"]

    def test_poisson_command(self, runner, poisson_csv):
        result = runner.invoke(
            main, ["poisson-chisq", "--input", poisson_csv, "--perms", "49"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["test"] == "poisson-chisq"

    def test_output_file_written(self, runner, categorical_two_sample_csv, tmp_path):
        out = tmp_path / "result.json"
        result = runner.invoke(
            main,
            ["twosample", "--input", categorical_two_sample_csv, "--perms", "19",
             "--output", str(out)],
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["B"] == 19

    def test_domain_error_exit_code_2(self, runner, continuous_paired_csv):
        # continuous two-sample without bins/adaptive/mmd is a domain error
        result = runner.invoke(
            main, ["twosample", "--input", continuous_paired_csv]
        )
        assert result.exit_code == 2

    def test_non_finite_input_exit_code_2(self, runner, tmp_path):
        lines = ["group,x"] + [f"1,{v}" for v in (0.1, "nan", 0.3)]
        lines += [f"2,{v}" for v in (0.2, 0.4, 0.5)]
        path = _write(tmp_path / "nan.csv", "\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["twosample", "--input", path, "--stat", "mmd", "--bandwidth", "1"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("twosample", ["--adaptive"]),
            ("twosample", ["--bins", "5"]),
            ("twosample", ["--bandwidth", "1"]),
            ("independence", ["--adaptive"]),
            ("independence", ["--bins", "5"]),
            ("independence", ["--bandwidth", "1"]),
            ("independence", ["--stat", "l1-split", "--bandwidth-z", "1"]),
            ("twosample", ["--type", "continuous", "--stat", "mmd", "--bandwidth", "1",
                           "--bins", "5"]),
            ("independence", ["--type", "continuous", "--stat", "hsic", "--bandwidth", "1",
                              "--bandwidth-z", "1", "--adaptive"]),
            ("twosample", ["-s", "2"]),
            ("twosample", ["--stat", "l1-split", "-s", "1"]),
            ("twosample", ["--type", "continuous", "--bins", "4", "-s", "1"]),
            ("twosample", ["--type", "continuous", "--adaptive", "--bins", "5"]),
            ("twosample", ["--type", "continuous", "--adaptive", "-s", "1"]),
            ("twosample", ["--type", "continuous", "--stat", "mmd", "--bandwidth", "0.5",
                           "-s", "1"]),
            ("twosample", ["--type", "continuous", "--stat", "mmd", "--bandwidth", "0.5",
                           "--categories", "9"]),
            ("twosample", ["--type", "continuous", "--bins", "4", "--categories", "9"]),
            ("independence", ["-s", "1"]),
            ("independence", ["--type", "continuous", "--adaptive", "--bins", "3"]),
            ("independence", ["--type", "continuous", "--stat", "hsic", "--bandwidth", "0.5",
                              "--bandwidth-z", "0.5", "-s", "1"]),
        ],
    )
    def test_flag_the_test_ignores_exit_code_2(self, runner, tmp_path, command, flags):
        # binning applies only to the count statistic on continuous data,
        # bandwidths only to a kernel statistic, smoothness only to a rule
        rng = np.random.default_rng(7)
        header = "group,x" if command == "twosample" else "y,z"
        rows = rng.integers(1, 3, (24, 2)).tolist()
        if "continuous" in flags:
            # coordinates in [0, 1], where a binned test could run; a two-sample
            # file keeps its group column
            start = 1 if command == "twosample" else 0
            for row, u in zip(rows, rng.random((24, 2)).tolist()):
                row[start:] = u[start:]
        lines = [header] + [f"{a},{b}" for a, b in rows]
        path = _write(tmp_path / "cat.csv", "\n".join(lines) + "\n")
        result = runner.invoke(main, [command, "--input", path, *flags])
        assert result.exit_code == 2, result.output
        assert "apply only to" in result.output

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("twosample", ["--stat", "mmd", "-s", "nan"]),
            ("twosample", ["--stat", "mmd", "--bandwidth", "inf"]),
            ("twosample", ["--bins", "auto", "-s", "inf"]),
            ("independence", ["--stat", "hsic", "--bandwidth", "nan", "--bandwidth-z", "nan"]),
            ("independence", ["--bins", "auto", "-s", "nan"]),
        ],
    )
    def test_non_finite_smoothness_or_bandwidth_exit_code_2(
        self, runner, continuous_two_sample_csv, continuous_paired_csv, command, flags
    ):
        path = continuous_two_sample_csv if command == "twosample" else continuous_paired_csv
        result = runner.invoke(main, [command, "--input", path, "--perms", "19", *flags])
        assert result.exit_code == 2, result.output
        assert "finite" in result.output

    @pytest.mark.parametrize(
        "command, text",
        [
            ("twosample", "group,x\n1,1\n1\n2,2\n2,1\n"),
            ("independence", "y,z\n1,2\n2\n1,1\n2,2\n1,2\n"),
            ("poisson-chisq", "group,c1,c2\n1,1,2\n1,0\n2,1,1\n2,0,0\n"),
        ],
    )
    def test_short_row_exit_code_2(self, runner, tmp_path, command, text):
        path = _write(tmp_path / "short.csv", text)
        result = runner.invoke(main, [command, "--input", path])
        assert result.exit_code == 2, result.output
        assert "line 3 has" in result.output

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5"])
    def test_adaptive_level_outside_unit_interval_exit_code_2(
        self, runner, continuous_two_sample_csv, alpha
    ):
        result = runner.invoke(
            main, ["twosample", "--input", continuous_two_sample_csv, "--adaptive",
                   "--alpha", alpha, "--perms", "19"]
        )
        assert result.exit_code == 2, result.output
        assert "alpha" in result.output

    def test_continuous_twosample_binned(self, runner, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["group,x"]
        lines += [f"1,{v}" for v in rng.random(20)]
        lines += [f"2,{v}" for v in rng.random(20)]
        path = _write(tmp_path / "c.csv", "\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["twosample", "--input", path, "--bins", "auto", "--smoothness", "1",
             "--perms", "49"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["test"] == "binned-two-sample"

    def test_mmd_requires_bandwidth_or_smoothness(self, runner, tmp_path):
        rng = np.random.default_rng(6)
        lines = ["group,x"]
        lines += [f"1,{v}" for v in rng.random(10)]
        lines += [f"2,{v}" for v in rng.random(10)]
        path = _write(tmp_path / "m.csv", "\n".join(lines) + "\n")
        result = runner.invoke(main, ["twosample", "--input", path, "--stat", "mmd"])
        assert result.exit_code == 2

    def test_simulate_qq(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"d_values": [2], "n1": 10, "n2": 10, "replicates": 40,
                 "null_reps": 40, "designs": ["null"]}
            )
        )
        out = tmp_path / "qq.csv"
        result = runner.invoke(
            main,
            ["simulate", "qq", "--config", str(cfg), "--output", str(out), "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        assert out.exists()
        assert "ks=" in result.output

    def test_simulate_power(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"kind": "twosample", "grid": [0.05], "d": 10, "n1": 20, "n2": 20,
                 "replicates": 19}
            )
        )
        out = tmp_path / "pow.csv"
        result = runner.invoke(
            main,
            ["simulate", "power", "--config", str(cfg), "--output", str(out),
             "--trials", "10"],
        )
        assert result.exit_code == 0, result.output
        assert out.read_text().startswith("# permkit-csv v1 power twosample")

    @pytest.mark.parametrize(
        "experiment, config",
        [
            ("threshold", {"trials": "x"}),
            ("threshold", {"gammas": 5}),
            ("power", {"workers": "two"}),
            ("threshold", {"gammas": ["x"], "trials": 2}),
        ],
    )
    def test_simulate_mistyped_config_exits_2(self, runner, tmp_path, experiment, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "o.csv"
        result = runner.invoke(
            main, ["simulate", experiment, "--config", str(cfg), "--output", str(out)]
        )
        assert result.exit_code == 2
        assert "config key" in result.output


class TestOutcomeRecord:
    def test_exact_plan_has_null_seed(self, runner, tmp_path):
        path = _write(tmp_path / "t.csv", "group,x\n1,1\n1,2\n2,1\n2,2\n")
        result = runner.invoke(main, ["twosample", "--input", path, "--exact"])
        record = json.loads(result.output)
        assert record["seed"] is None
        assert record["B"] is None

    def test_exact_adaptive_plan_has_null_seed(self, runner, tmp_path):
        lines = ["group,x"] + [f"{g},{v}" for g in (1, 2) for v in (0.1, 0.4, 0.6, 0.9)]
        path = _write(tmp_path / "a.csv", "\n".join(lines) + "\n")
        result = runner.invoke(
            main, ["twosample", "--input", path, "--adaptive", "--exact", "--seed", "7"]
        )
        record = json.loads(result.output)
        assert record["seed"] is None
        assert record["B"] is None


# One case per route of cli._ROUTES: (command, input fixture, flags, procedure,
# the procedure's arguments between the data and alpha, JSON record name).
_ROUTE_CASES = [
    ("twosample", "categorical_two_sample_csv", [],
     testing.multinomial_l2_two_sample, (), "multinomial-l2-two-sample"),
    ("twosample", "continuous_two_sample_csv", ["--adaptive"],
     testing.adaptive_two_sample, (), "adaptive-two-sample"),
    ("twosample", "continuous_two_sample_csv", ["--bins", "auto", "-s", "1"],
     testing.holder_two_sample, (1.0,), "binned-two-sample"),
    ("twosample", "continuous_two_sample_csv", ["--bins", "3"],
     testing.binned_two_sample, (3,), "binned-two-sample"),
    ("twosample", "categorical_two_sample_csv", ["--stat", "l1-split"],
     testing.l1_split_two_sample, (), "l1-split-two-sample"),
    ("twosample", "continuous_two_sample_csv", ["--stat", "mmd", "--bandwidth", "0.3,0.5"],
     testing.mmd_test, (np.array([0.3, 0.5]),), "mmd"),
    ("independence", "categorical_paired_csv", [],
     testing.multinomial_l2_independence, (), "multinomial-l2-independence"),
    ("independence", "continuous_paired_csv", ["--adaptive"],
     testing.adaptive_independence, (), "adaptive-independence"),
    ("independence", "continuous_paired_csv", ["--bins", "auto", "-s", "1"],
     testing.holder_independence, (1.0,), "binned-independence"),
    ("independence", "continuous_paired_csv", ["--bins", "3"],
     testing.binned_independence, (3,), "binned-independence"),
    ("independence", "categorical_paired_csv", ["--stat", "l1-split"],
     testing.l1_split_independence, (), "l1-split-independence"),
    ("independence", "continuous_paired_csv", ["--stat", "hsic", "--bandwidth", "0.5", "-s", "1"],
     testing.hsic_test, (np.array([0.5]), testing.SmoothnessRule(1.0)), "hsic"),
    ("poisson-chisq", "poisson_csv", [], testing.poisson_chisq_test, (), "poisson-chisq"),
]
_LOADERS = {
    "twosample": load_two_sample_csv,
    "independence": load_paired_csv,
    "poisson-chisq": load_poisson_csv,
}


class TestRoutes:
    def test_cases_cover_every_route(self):
        def names(procedures):
            return sorted(p.__name__ for p in procedures)

        assert names(c[3] for c in _ROUTE_CASES) == names(r[0] for r in cli._ROUTES.values())

    @pytest.mark.parametrize(
        "command, fixture, flags, procedure, args, name",
        _ROUTE_CASES,
        ids=[f"{c[0]}-{c[3].__name__}" for c in _ROUTE_CASES],
    )
    def test_record_equals_direct_call(
        self, runner, request, command, fixture, flags, procedure, args, name
    ):
        path = request.getfixturevalue(fixture)
        result = runner.invoke(
            main, [command, "--input", path, *flags, "--perms", "49", "--seed", "3",
                   "--alpha", "0.1"]
        )
        assert result.exit_code == 0, result.output
        plan = PermutationPlan.monte_carlo(49, 3)
        outcome = procedure(_LOADERS[command](path), *args, 0.1, plan)
        record = dataio.outcome_record(name, outcome, plan_seed=3)
        assert result.output == dataio.write_outcome_json(record) + "\n"
