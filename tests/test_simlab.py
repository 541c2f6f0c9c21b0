import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from permkit import perm_core, simlab
from permkit.simlab import (
    ContinuousUniform,
    GaussianLocation,
    HistogramConfig,
    JointPerturbed,
    PerturbedHypercube,
    PowerConfig,
    PowerLaw,
    QQConfig,
    ThresholdConfig,
    Uniform,
    config_from_dict,
    estimate_error_rates,
    experiment_null_histogram,
    experiment_qq,
    experiment_threshold_sensitivity,
    pmf,
    power_curve,
    sample,
)


class TestPmf:
    def test_perturbed_hand_example(self):
        spec = PerturbedHypercube(4, 0.1, np.array([1.0, 1.0, -1.0, -1.0]))
        p = pmf(spec)
        np.testing.assert_allclose(p, [0.35, 0.35, 0.15, 0.15])
        assert np.linalg.norm(p - 0.25) == pytest.approx(0.1 * math.sqrt(4))

    def test_power_law_zero_gamma_uniform(self):
        np.testing.assert_allclose(pmf(PowerLaw(6, 0.0)), np.full(6, 1 / 6))

    def test_joint_marginals_exactly_uniform(self):
        spec = JointPerturbed(4, 6, delta=1 / 48)
        m = pmf(spec)
        np.testing.assert_allclose(m.sum(axis=0), np.full(6, 1 / 6), atol=1e-15)
        np.testing.assert_allclose(m.sum(axis=1), np.full(4, 1 / 4), atol=1e-15)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)

    def test_all_pmfs_valid(self):
        for spec in [
            PowerLaw(7, 1.3),
            Uniform(5),
            PerturbedHypercube(6, 0.05),
            JointPerturbed(2, 4, 0.1),
        ]:
            p = pmf(spec)
            assert np.all(p >= 0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    def test_delta_over_limit_rejected(self):
        with pytest.raises(ValueError):
            PerturbedHypercube(4, 0.3)
        with pytest.raises(ValueError):
            JointPerturbed(2, 2, 0.3)

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            PerturbedHypercube(5, 0.1)

    def test_unbalanced_signs_rejected(self):
        with pytest.raises(ValueError):
            PerturbedHypercube(4, 0.1, np.array([1.0, 1.0, 1.0, -1.0]))

    def test_continuous_has_no_pmf(self):
        with pytest.raises(ValueError):
            pmf(ContinuousUniform(2))


class TestSample:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        draws = sample(Uniform(1), 50, rng)
        assert np.all(draws == 0)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        draws = sample(Uniform(4), 100_000, rng)
        freqs = np.bincount(draws, minlength=4) / draws.size
        se = math.sqrt(0.25 * 0.75 / draws.size)
        assert np.all(np.abs(freqs - 0.25) <= 3 * se)

    def test_fixed_seed_reproducible(self):
        a = sample(PowerLaw(5, 1.0), 100, np.random.default_rng(7))
        b = sample(PowerLaw(5, 1.0), 100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_power_law_goodness_of_fit(self):
        # independent chi-square check against the target pmf
        rng = np.random.default_rng(2)
        spec = PowerLaw(6, 0.8)
        draws = sample(spec, 60_000, rng)
        observed = np.bincount(draws, minlength=6)
        result = scipy_stats.chisquare(observed, f_exp=pmf(spec) * draws.size)
        assert result.pvalue > 1e-3

    def test_joint_sample_shape_and_fit(self):
        rng = np.random.default_rng(3)
        spec = JointPerturbed(2, 2, 0.2)
        draws = sample(spec, 40_000, rng)
        assert draws.shape == (40_000, 2)
        observed = np.bincount(draws[:, 0] * 2 + draws[:, 1], minlength=4)
        result = scipy_stats.chisquare(observed, f_exp=pmf(spec).ravel() * draws.shape[0])
        assert result.pvalue > 1e-3

    def test_continuous_shapes(self):
        rng = np.random.default_rng(4)
        assert sample(ContinuousUniform(3), 10, rng).shape == (10, 3)
        g = sample(GaussianLocation(2, 5.0), 2000, rng)
        assert abs(g.mean() - 5.0) < 0.1


class TestEstimateErrorRates:
    def test_always_reject(self):
        rate, se = estimate_error_rates(lambda seed: True, trials=200, seed=0)
        assert rate == 1.0
        assert se == 0.0

    def test_never_reject(self):
        rate, se = estimate_error_rates(lambda seed: False, trials=200, seed=0)
        assert rate == 0.0

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            estimate_error_rates(lambda seed: True, trials=0, seed=0)


def _usable_cpus_of_worker(_task) -> int:
    return perm_core._usable_cpus()


class TestWorkerPool:
    def test_workers_start_helper_threads_on_their_share_of_the_cpus(self):
        cpus = perm_core._usable_cpus()
        shares = simlab._run_tasks(_usable_cpus_of_worker, [0, 1, 2, 3], workers=2)
        assert shares == [max(1, cpus // 2)] * 4
        assert perm_core._usable_cpus() == cpus  # the calling process keeps its CPUs


class TestThresholdExperiment:
    def test_rows_and_extreme_c(self, tmp_path):
        cfg = ThresholdConfig(
            gammas=(0.5,),
            c_grid=(0.5, 1e6),
            n1=20,
            n2=20,
            d=10,
            trials=60,
            replicates=49,
            seed=3,
        )
        out = tmp_path / "thr.csv"
        rows = experiment_threshold_sensitivity(cfg, out)
        assert rows[0][0] == "permutation"
        by_c = {r[1]: r[3] for r in rows if r[0] == "threshold"}
        assert by_c[1e6] == 0.0  # C -> infinity kills all rejections
        lines = out.read_text().splitlines()
        assert lines[0] == "# permkit-csv v1 threshold-sensitivity twosample"
        assert lines[1] == "method,C,gamma,type1,se"

    def test_independence_kind_runs(self):
        cfg = ThresholdConfig(
            kind="independence",
            gammas=(0.5,),
            c_grid=(1.0,),
            n=30,
            d1=4,
            d2=4,
            trials=20,
            replicates=29,
            seed=4,
        )
        rows = experiment_threshold_sensitivity(cfg)
        assert len(rows) == 2

    def test_worker_determinism(self, tmp_path):
        cfg1 = ThresholdConfig(
            gammas=(0.4,), c_grid=(1.0,), n1=15, n2=15, d=6, trials=30,
            replicates=19, seed=5, workers=1,
        )
        cfg2 = ThresholdConfig(
            gammas=(0.4,), c_grid=(1.0,), n1=15, n2=15, d=6, trials=30,
            replicates=19, seed=5, workers=2,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        experiment_threshold_sensitivity(cfg1, p1)
        experiment_threshold_sensitivity(cfg2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestQQExperiment:
    def test_degenerate_single_category(self, tmp_path):
        # d=1 makes the statistic constant: identical quantiles, KS = 0
        cfg = QQConfig(
            d_values=(1,), n1=10, n2=10, replicates=50, null_reps=50,
            designs=("null",), seed=1,
        )
        result = experiment_qq(cfg, tmp_path / "qq.csv")
        assert result.ks[(1, "null")] == 0.0
        for _, _, _, perm_q, null_q, _ in result.rows:
            assert perm_q == null_q == 0.0

    def test_alternative_design_runs(self):
        cfg = QQConfig(
            d_values=(3,), n1=30, n2=30, replicates=200, null_reps=200,
            designs=("alternative",), seed=2,
        )
        result = experiment_qq(cfg)
        assert (3, "alternative") in result.ks

    def test_worker_determinism(self, tmp_path):
        base = dict(d_values=(2, 3), n1=12, n2=12, replicates=60, null_reps=60, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        experiment_qq(QQConfig(workers=1, **base), p1)
        experiment_qq(QQConfig(workers=2, **base), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestHistogramExperiment:
    def test_reproducible_and_centered(self, tmp_path):
        cfg = HistogramConfig(d_values=(5,), n1=50, n2=50, replicates=400, seed=6)
        skew1 = experiment_null_histogram(cfg, tmp_path / "h.csv")
        skew2 = experiment_null_histogram(cfg)
        assert skew1 == skew2
        rows = (tmp_path / "h.csv").read_text().splitlines()
        assert rows[1] == "d,rep,u"
        values = np.array([float(r.split(",")[2]) for r in rows[2:]])
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean()) <= 3 * se  # unbiased under the null

    def test_small_d_right_skewed(self):
        cfg = HistogramConfig(d_values=(5,), n1=50, n2=50, replicates=500, seed=7)
        skew = experiment_null_histogram(cfg)
        assert skew[5] > 0

    def test_skewness_decreases_with_d(self):
        # null statistic shape: right-skewed for few bins, near symmetric
        # for many (full design: n1 = n2 = 100, 1000 replicates)
        cfg = HistogramConfig(seed=8)
        skew = experiment_null_histogram(cfg)
        assert skew[5] > skew[100] > skew[10000]
        assert skew[5] > 0


class TestPowerCurve:
    def test_two_sample_grid(self):
        cfg = PowerConfig(
            kind="twosample", grid=(0.0, 0.08), d=10, n1=60, n2=60,
            trials=40, replicates=99, seed=8,
        )
        rows = power_curve(cfg)
        assert len(rows) == 2
        assert rows[1][1] >= rows[0][1]  # more separation, more power

    def test_worker_determinism(self, tmp_path):
        base = dict(kind="twosample", grid=(0.05,), d=10, n1=30, n2=30,
                    trials=20, replicates=49, seed=10)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        power_curve(PowerConfig(workers=1, **base), p1)
        power_curve(PowerConfig(workers=2, **base), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_grid_required(self):
        with pytest.raises(ValueError):
            PowerConfig(kind="twosample", grid=())


class TestConfigFromDict:
    def test_round_trip(self):
        cfg = config_from_dict("qq", {"d_values": [2, 3], "seed": 5})
        assert cfg.d_values == (2, 3)
        assert cfg.seed == 5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict("qq", {"nope": 1})

    @pytest.mark.parametrize(
        "experiment, overrides, key",
        [
            ("threshold", {"trials": "x"}, "trials"),
            ("threshold", {"gammas": 5}, "gammas"),
            ("power", {"grid": [0.1], "workers": "two"}, "workers"),
            ("power", {"grid": [0.1], "trials": True}, "trials"),
            ("qq", {"seed": 1.5}, "seed"),
            ("threshold", {"gammas": ["x"]}, "gammas"),
            ("threshold", {"c_grid": [1.0, None]}, "c_grid"),
            ("qq", {"d_values": [5, 2.5]}, "d_values"),
            ("qq", {"designs": ["null", 1]}, "designs"),
            ("qq", {"quantiles": [0.5, True]}, "quantiles"),
            ("histogram", {"d_values": ["5"]}, "d_values"),
            ("power", {"grid": [0.1, [0.2]]}, "grid"),
        ],
    )
    def test_mistyped_values_rejected(self, experiment, overrides, key):
        with pytest.raises(ValueError, match=f"config key '{key}'"):
            config_from_dict(experiment, overrides)

    @pytest.mark.parametrize(
        "experiment, overrides, key, kind",
        [
            ("threshold", {"kind": "independence", "n1": 500, "d": 7, "trials": 1}, "d",
             "independence"),
            ("threshold", {"n": 30}, "n", "twosample"),
            ("threshold", {"kind": "twosample", "d1": 5}, "d1", "twosample"),
            ("power", {"kind": "mmd", "d1": 9, "grid": [0.1]}, "d1", "mmd"),
            ("power", {"grid": [0.1], "dim": 2}, "dim", "twosample"),
            ("power", {"grid": [0.1], "bandwidth": 0.5}, "bandwidth", "twosample"),
            ("power", {"kind": "independence", "grid": [0.1], "n1": 20}, "n1", "independence"),
            ("power", {"kind": "hsic", "grid": [0.1], "n2": 20}, "n2", "hsic"),
            ("power", {"kind": "mmd", "grid": [0.1], "n": 20}, "n", "mmd"),
        ],
    )
    def test_keys_another_kind_reads_rejected(self, experiment, overrides, key, kind):
        with pytest.raises(ValueError, match=f"kind '{kind}' does not read config keys .*'{key}'"):
            config_from_dict(experiment, overrides)

    @pytest.mark.parametrize("kind", ["mmd", "hsic"])
    def test_smoothness_with_bandwidth_rejected(self, kind):
        with pytest.raises(ValueError, match="'smoothness' does not apply"):
            config_from_dict("power", {"kind": kind, "grid": [0.1], "bandwidth": 0.5,
                                       "smoothness": 2.0})

    @pytest.mark.parametrize(
        "experiment, overrides",
        [
            ("threshold", {"kind": "independence", "n": 40, "d1": 6, "d2": 4}),
            ("power", {"kind": "mmd", "grid": [0.1], "dim": 2, "n1": 20, "smoothness": 2.0}),
            ("power", {"kind": "hsic", "grid": [0.1], "bandwidth": None, "smoothness": 2.0}),
            ("power", {"kind": "hsic", "grid": [0.1], "n": 30, "bandwidth": 0.7}),
        ],
    )
    def test_keys_the_kind_reads_accepted(self, experiment, overrides):
        cfg = config_from_dict(experiment, overrides)
        assert all(getattr(cfg, k) == v for k, v in overrides.items() if k != "grid")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict("mystery", {})
