import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from permkit import perm_core, ustats
from permkit.perm_core import GroupCounts, PermutationPlan, replicate_rng
from permkit.testing import (
    AdaptiveOutcome,
    BinGrid,
    SmoothnessRule,
    binned_independence,
    binned_two_sample,
    adaptive_grid_independence,
    adaptive_grid_two_sample,
    adaptive_independence,
    adaptive_two_sample,
    bin_data,
    holder_independence,
    holder_two_sample,
    hsic_bandwidths,
    hsic_test,
    independence_bin_count,
    l1_split_independence,
    l1_split_two_sample,
    mmd_bandwidths,
    mmd_test,
    multinomial_l2_independence,
    multinomial_l2_two_sample,
    poisson_chisq_test,
    two_sample_bin_count,
)
from permkit.ustats import (
    Categorical,
    Continuous,
    PairedSample,
    PoissonCounts,
    TwoSamplePooled,
    multinomial_two_sample_u,
)
from permkit.kernels import Gaussian, GramMatrix, gram, split_weights

MC = PermutationPlan.monte_carlo
EXACT = PermutationPlan.exact()


class TestBinData:
    def test_left_boundary(self):
        grid = BinGrid(kappa=4, dim=1)
        assert bin_data(np.array([0.0]), grid)[0] == 0

    def test_right_boundary_clamped(self):
        grid = BinGrid(kappa=4, dim=1)
        assert bin_data(np.array([1.0]), grid)[0] == 3

    def test_row_major_flattening(self):
        # spec hand case (1-based): kappa=2, dim=2, x=(0.6, 0.1) -> cell (2,1),
        # flat index 3; with 0-based codes that is axis (1, 0) -> flat 2.
        grid = BinGrid(kappa=2, dim=2)
        assert bin_data(np.array([[0.6, 0.1]]), grid)[0] == 2

    def test_out_of_range_rejected(self):
        grid = BinGrid(kappa=2, dim=1)
        with pytest.raises(ValueError):
            bin_data(np.array([1.2]), grid)
        with pytest.raises(ValueError):
            bin_data(np.array([-0.1]), grid)
        with pytest.raises(ValueError):
            bin_data(np.array([0.5, np.nan]), BinGrid(kappa=4, dim=1))

    def test_cells_partition(self):
        rng = np.random.default_rng(0)
        grid = BinGrid(kappa=3, dim=2)
        codes = bin_data(rng.random((500, 2)), grid)
        assert codes.min() >= 0 and codes.max() < 9


class TestRules:
    def test_two_sample_kappa(self):
        assert two_sample_bin_count(100, s=1.0, d=1) == 6

    def test_independence_kappa(self):
        assert independence_bin_count(100, s=1.0, d_total=2) == 4

    def test_kappa_floor(self):
        assert two_sample_bin_count(2, s=3.0, d=1) == 1

    def test_adaptive_gamma_two_sample(self):
        grid = adaptive_grid_two_sample(100, 1)
        assert grid.gamma_max == 13
        assert grid.kappas[0] == 2 and list(grid.kappas) == sorted(grid.kappas)
        assert grid.per_test_alpha(0.13) == pytest.approx(0.01)

    def test_adaptive_gamma_independence(self):
        grid = adaptive_grid_independence(100, 1, 1)
        assert grid.gamma_max == 7
        assert grid.kappas == (2, 4, 8, 16, 32, 64, 128)

    def test_adaptive_needs_n_at_least_3(self):
        with pytest.raises(ValueError):
            adaptive_grid_two_sample(2, 1)

    def test_grid_cap_drops_large_kappa(self):
        with pytest.warns(RuntimeWarning, match="cap"):
            grid = adaptive_grid_two_sample(1000, 4)
        assert all(k**4 <= 10**6 for k in grid.kappas)
        # the level still splits by the uncapped formula value
        assert grid.gamma_max > len(grid.kappas)

    def test_mmd_bandwidth_rule(self):
        lam = mmd_bandwidths(100, 100, s=1.0, dim=1)
        assert lam[0] == pytest.approx(0.02**0.4)
        assert lam[0] == pytest.approx(0.2091, abs=2e-4)

    def test_hsic_bandwidth_rule(self):
        lam_y, lam_z = hsic_bandwidths(100, s=1.0, d1=1, d2=1)
        assert lam_y[0] == pytest.approx(100 ** (-1 / 3))
        assert lam_y[0] == pytest.approx(0.2154, abs=2e-4)
        assert lam_z[0] == lam_y[0]


class TestNonFiniteParameters:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_smoothness_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SmoothnessRule(bad)
        with pytest.raises(ValueError, match="finite"):
            two_sample_bin_count(50, bad, 1)
        with pytest.raises(ValueError, match="finite"):
            independence_bin_count(50, bad, 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bandwidths_refused(self, bad):
        rng = np.random.default_rng(16)
        two = TwoSamplePooled(y=rng.random(5), z=rng.random(5), domain=Continuous(1))
        pair = PairedSample(
            y=rng.random(6), z=rng.random(6), y_domain=Continuous(1), z_domain=Continuous(1)
        )
        with pytest.raises(ValueError, match="finite"):
            mmd_test(two, np.array([bad]), 0.05, MC(19, seed=0))
        with pytest.raises(ValueError, match="finite"):
            hsic_test(pair, np.array([0.5]), np.array([bad]), 0.05, MC(19, seed=0))


class TestMultinomialTwoSample:
    def test_disjoint_supports_reject(self):
        data = TwoSamplePooled(
            y=np.zeros(20, dtype=int), z=np.ones(20, dtype=int), domain=Categorical(2)
        )
        out = multinomial_l2_two_sample(data, alpha=0.05, plan=MC(999, seed=1))
        assert out.statistic == pytest.approx(2.0)
        assert out.reject

    def test_identical_datasets_p_one_exact(self):
        data = TwoSamplePooled(
            y=np.array([0, 1]), z=np.array([0, 1]), domain=Categorical(2)
        )
        out = multinomial_l2_two_sample(data, alpha=0.05, plan=EXACT)
        assert out.p_value == 1.0
        assert not out.reject

    def test_category_relabeling_invariance(self):
        # same seeded plan -> identical permutation rows, so every replicate
        # is computed from relabeled counts and must agree
        rng = np.random.default_rng(3)
        y = rng.integers(0, 5, 12)
        z = rng.integers(0, 5, 10)
        relabel = rng.permutation(5)
        plan = MC(299, seed=8)
        a = multinomial_l2_two_sample(
            TwoSamplePooled(y=y, z=z, domain=Categorical(5)), 0.05, plan
        )
        b = multinomial_l2_two_sample(
            TwoSamplePooled(y=relabel[y], z=relabel[z], domain=Categorical(5)),
            0.05,
            plan,
        )
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert a.critical_value == pytest.approx(b.critical_value, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


class TestMultinomialIndependence:
    def test_minimal_n_runs(self):
        data = PairedSample(
            y=np.array([0, 1, 0, 1]),
            z=np.array([1, 0, 1, 0]),
            y_domain=Categorical(2),
            z_domain=Categorical(2),
        )
        out = multinomial_l2_independence(data, alpha=0.05, plan=EXACT)
        assert math.isfinite(out.statistic)
        assert 0 < out.p_value <= 1

    def test_perfect_dependence_power(self):
        rng = np.random.default_rng(4)
        rejects = 0
        trials = 100
        for t in range(trials):
            y = rng.integers(0, 2, 60)
            data = PairedSample(
                y=y, z=y.copy(), y_domain=Categorical(2), z_domain=Categorical(2)
            )
            out = multinomial_l2_independence(data, 0.05, MC(299, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.9


class TestHolder:
    def test_kappa_used(self):
        # n1=100, s=1, d=1 -> kappa=6; identical binned data must give p=1-ish
        rng = np.random.default_rng(5)
        data = TwoSamplePooled(
            y=rng.random(100), z=rng.random(100), domain=Continuous(1)
        )
        out = holder_two_sample(data, s=1.0, alpha=0.05, plan=MC(99, seed=0))
        assert math.isfinite(out.statistic)

    def test_boundary_shift_power(self):
        rng = np.random.default_rng(6)
        rejects = 0
        trials = 50
        for t in range(trials):
            y = rng.random(100) * 0.5
            z = 0.5 + rng.random(100) * 0.5
            data = TwoSamplePooled(y=y, z=z, domain=Continuous(1))
            out = holder_two_sample(data, s=1.0, alpha=0.05, plan=MC(199, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.9

    def test_independence_dependent_pairs_power(self):
        rng = np.random.default_rng(7)
        rejects = 0
        trials = 50
        for t in range(trials):
            y = rng.random(100)
            data = PairedSample(
                y=y, z=y.copy(), y_domain=Continuous(1), z_domain=Continuous(1)
            )
            out = holder_independence(data, s=1.0, alpha=0.05, plan=MC(199, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.9


def _outcome_bytes(outcome):
    return (
        outcome.statistic.hex(), outcome.critical_value.hex(), outcome.p_value.hex(),
        outcome.reject, outcome.alpha.hex(), outcome.replicate_count, outcome.plan,
    )


def _assert_components_are_binned_tests(out, data, plan):
    """Each component equals the binned test at (kappa, alpha / gamma_max, plan)."""
    binned = binned_two_sample if isinstance(data, TwoSamplePooled) else binned_independence
    for kappa, comp in out.components:
        fixed = binned(data, kappa, out.per_test_alpha, plan)
        assert _outcome_bytes(comp) == _outcome_bytes(fixed), kappa


class TestAdaptive:
    def test_reject_iff_any_component(self):
        rng = np.random.default_rng(8)
        data = TwoSamplePooled(
            y=rng.random(30), z=rng.random(30) ** 3, domain=Continuous(1)
        )
        out = adaptive_two_sample(data, alpha=0.2, plan=MC(199, seed=5))
        assert out.reject == any(o.reject for _, o in out.components)

    def test_component_levels_split(self):
        rng = np.random.default_rng(9)
        data = TwoSamplePooled(
            y=rng.random(20), z=rng.random(20), domain=Continuous(1)
        )
        # B=49 cannot reach the Bonferroni-split level: warn loudly
        with pytest.warns(RuntimeWarning, match="never reject"):
            out = adaptive_two_sample(data, alpha=0.1, plan=MC(49, seed=2))
        assert out.per_test_alpha == pytest.approx(0.1 / out.gamma_max)
        for _, comp in out.components:
            assert comp.alpha == pytest.approx(out.per_test_alpha)

    def test_single_kappa_degenerate_equals_fixed_test(self):
        # n1=4, d=8 gives gamma_max=1, so the adaptive test IS the kappa=2 test
        rng = np.random.default_rng(10)
        data = TwoSamplePooled(
            y=rng.random((4, 8)), z=rng.random((4, 8)), domain=Continuous(8)
        )
        adaptive = adaptive_two_sample(data, alpha=0.1, plan=EXACT)
        assert adaptive.gamma_max == 1
        assert len(adaptive.components) == 1
        kappa, comp = adaptive.components[0]
        assert kappa == 2
        fixed = binned_two_sample(data, kappa=2, alpha=0.1, plan=EXACT)
        assert comp.statistic == fixed.statistic
        assert comp.critical_value == fixed.critical_value
        assert comp.p_value == fixed.p_value
        assert adaptive.reject == fixed.reject

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_level_outside_unit_interval_raises(self, alpha):
        # checked before the Bonferroni split, so no component is run at alpha / gamma_max
        rng = np.random.default_rng(12)
        two = TwoSamplePooled(y=rng.random(20), z=rng.random(20), domain=Continuous(1))
        pair = PairedSample(
            y=rng.random(20), z=rng.random(20), y_domain=Continuous(1), z_domain=Continuous(1)
        )
        with pytest.raises(ValueError, match="alpha"):
            adaptive_two_sample(two, alpha=alpha, plan=MC(99, seed=0))
        with pytest.raises(ValueError, match="alpha"):
            adaptive_independence(pair, alpha=alpha, plan=MC(99, seed=0))

    @pytest.mark.parametrize("plan", [MC(199, seed=5), MC(199, seed=6)])
    def test_components_are_the_binned_tests_on_the_callers_plan(self, plan):
        rng = np.random.default_rng(13)
        two = TwoSamplePooled(y=rng.random(30), z=rng.random(30) ** 2, domain=Continuous(1))
        y = rng.random((40, 2))
        pair = PairedSample(
            y=y, z=(y[:, 0] + rng.random(40)) / 2, y_domain=Continuous(2), z_domain=Continuous(1)
        )
        _assert_components_are_binned_tests(adaptive_two_sample(two, 0.2, plan), two, plan)
        _assert_components_are_binned_tests(adaptive_independence(pair, 0.2, plan), pair, plan)

    @pytest.mark.parametrize("plan", [MC(199, seed=7), EXACT], ids=["monte-carlo", "exact"])
    def test_components_are_the_binned_tests_in_two_dimensions(self, plan):
        # at d = 2 the adaptive test numbers its cells in Morton order, the binned tests row-major
        rng = np.random.default_rng(16)
        n1, n2 = (30, 30) if plan.mode == "monte_carlo" else (4, 3)
        two = TwoSamplePooled(
            y=rng.random((n1, 2)), z=rng.random((n2, 2)) ** 2, domain=Continuous(2)
        )
        out = adaptive_two_sample(two, 0.2, plan)
        assert len(out.components) >= 4
        _assert_components_are_binned_tests(out, two, plan)

    def test_exact_components_are_the_binned_tests(self):
        rng = np.random.default_rng(14)
        two = TwoSamplePooled(y=rng.random(4), z=rng.random(3), domain=Continuous(1))
        pair = PairedSample(
            y=rng.random(7), z=rng.random(7), y_domain=Continuous(1), z_domain=Continuous(1)
        )
        out = adaptive_two_sample(two, 0.1, EXACT)
        assert len(out.components) > 1
        _assert_components_are_binned_tests(out, two, EXACT)
        out = adaptive_independence(pair, 0.1, EXACT)
        assert len(out.components) > 1
        _assert_components_are_binned_tests(out, pair, EXACT)

    def test_unreachable_level_warns_once_per_call(self):
        rng = np.random.default_rng(15)
        two = TwoSamplePooled(y=rng.random(20), z=rng.random(20), domain=Continuous(1))
        pair = PairedSample(
            y=rng.random(20), z=rng.random(20), y_domain=Continuous(1), z_domain=Continuous(1)
        )
        for adaptive, data in ((adaptive_two_sample, two), (adaptive_independence, pair)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = adaptive(data, alpha=0.05, plan=MC(49, seed=2))
            assert len(out.components) > 1
            assert [str(w.message).count("never reject") for w in caught] == [1]

    def test_independence_adaptive_runs(self):
        rng = np.random.default_rng(11)
        y = rng.random(40)
        data = PairedSample(
            y=y, z=y, y_domain=Continuous(1), z_domain=Continuous(1)
        )
        out = adaptive_independence(data, alpha=0.05, plan=MC(199, seed=1))
        assert isinstance(out, AdaptiveOutcome)
        assert out.reject  # fully dependent data


class TestL1SplitTwoSample:
    def test_weights_from_trailing_block(self):
        # engineered so the statistic is computable by hand: weights from the
        # trailing block of the larger group
        y = np.array([0, 0, 1, 1])  # 2*n1 = 4
        z = np.array([1, 1, 0, 0, 0, 0])  # 2*n2 = 6, holdout = z[3:3+m]
        data = TwoSamplePooled(y=y, z=z, domain=Categorical(2))
        out = l1_split_two_sample(data, alpha=0.5, plan=EXACT)
        # n1=2, n2=3, m=min(3,2)=2, holdout=z[3:5]=[0,0] -> w=(0.75,0.25)
        # statistic on y[:2]=[0,0] vs z[:2]=[1,1]:
        # category 0: (1/0.75)*(2*1/2 + 0 - 0) = 4/3; category 1: (1/0.25)*(0+ 1 - 0) = 4
        assert out.statistic == pytest.approx(4 / 3 + 4)

    def test_swaps_to_keep_weights_from_larger(self):
        y_small = np.array([0, 0, 1, 1])
        z_large = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        a = l1_split_two_sample(
            TwoSamplePooled(y=y_small, z=z_large, domain=Categorical(2)), 0.3, EXACT
        )
        b = l1_split_two_sample(
            TwoSamplePooled(y=z_large, z=y_small, domain=Categorical(2)), 0.3, EXACT
        )
        assert a.statistic == pytest.approx(b.statistic)

    def test_conditional_expectation_identity(self):
        # E[U | w] = sum_k (pY(k) - pZ(k))^2 / w_k, Monte Carlo within 3 SE;
        # the holdout block (hence w) is held fixed across trials
        rng = np.random.default_rng(12)
        d = 4
        p_y = np.array([0.4, 0.3, 0.2, 0.1])
        p_z = np.array([0.1, 0.2, 0.3, 0.4])
        n1 = 25
        holdout = np.array([0, 1, 2, 3])  # m = min(n2, d) = 4 with n2 = 25
        w = split_weights(holdout, d)
        target = float((((p_y - p_z) ** 2) / w).sum())
        reps = 3000
        vals = np.empty(reps)
        for r in range(reps):
            y_lead = rng.choice(d, n1, p=p_y)
            z_lead = rng.choice(d, n1, p=p_z)
            vals[r] = multinomial_two_sample_u(
                np.bincount(y_lead, minlength=d),
                np.bincount(z_lead, minlength=d),
                weights=w,
            )
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - target) <= 3 * se

    def test_disjoint_support_power(self):
        rng = np.random.default_rng(13)
        rejects = 0
        trials = 60
        for t in range(trials):
            y = rng.integers(0, 2, 60)  # 2*n1, support {0,1}
            z = rng.integers(2, 4, 60)  # support {2,3}
            data = TwoSamplePooled(y=y, z=z, domain=Categorical(4))
            out = l1_split_two_sample(data, 0.05, MC(199, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.9

    def test_odd_sizes_rejected(self):
        data = TwoSamplePooled(
            y=np.array([0, 1, 0]), z=np.array([0, 1, 0, 1]), domain=Categorical(2)
        )
        with pytest.raises(ValueError):
            l1_split_two_sample(data, 0.05, EXACT)


class TestL1SplitIndependence:
    def test_hand_index_trace(self):
        # 12 pairs with y_i = z_i = i: n=4, half=2.
        # joint block: pairs 0,1; product block: (y4, z8), (y5, z9);
        # row holdout: y[6:8] = [6, 7]; col holdout: z[10:12] = [10, 11].
        idx = np.arange(12)
        data = PairedSample(
            y=idx, z=idx, y_domain=Categorical(12), z_domain=Categorical(12)
        )
        out = l1_split_independence(data, alpha=0.5, plan=EXACT)
        # all 4 split points have distinct pair codes: (0,0),(1,1),(4,8),(5,9).
        # weights: row factor = 1/24 + [holdout counts]/4 on cats 6,7;
        # col factor = 1/24 + counts/4 on 10,11.  For every split pair code the
        # factors are the floors 1/24, so each matched pair contributes
        # 1/w = 576 -- but no two split points share a code, so within-group
        # match counts are all zero and only cross terms could fire: none do.
        # The observed statistic is exactly 0.
        assert out.statistic == pytest.approx(0.0)

    def test_divisibility_enforced(self):
        idx = np.arange(9) % 3
        data = PairedSample(
            y=idx, z=idx, y_domain=Categorical(3), z_domain=Categorical(3)
        )
        with pytest.raises(ValueError, match="3n pairs with n even"):
            l1_split_independence(data, 0.05, EXACT)

    def test_dependent_pairs_power(self):
        rng = np.random.default_rng(14)
        rejects = 0
        trials = 60
        for t in range(trials):
            y = rng.integers(0, 2, 180)
            data = PairedSample(
                y=y, z=y.copy(), y_domain=Categorical(2), z_domain=Categorical(2)
            )
            out = l1_split_independence(data, 0.05, MC(199, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.8


class TestMMD:
    def test_rule_bandwidth_value(self):
        rng = np.random.default_rng(15)
        data = TwoSamplePooled(
            y=rng.normal(size=(100, 1)),
            z=rng.normal(size=(100, 1)),
            domain=Continuous(1),
        )
        out = mmd_test(data, SmoothnessRule(1.0), 0.05, MC(49, seed=0))
        assert math.isfinite(out.statistic)

    def test_translation_invariance(self):
        rng = np.random.default_rng(16)
        y = rng.normal(size=(15, 1))
        z = rng.normal(size=(15, 1))
        a = mmd_test(
            TwoSamplePooled(y=y, z=z, domain=Continuous(1)),
            np.array([0.7]),
            0.05,
            MC(99, seed=3),
        )
        b = mmd_test(
            TwoSamplePooled(y=y + 5.0, z=z + 5.0, domain=Continuous(1)),
            np.array([0.7]),
            0.05,
            MC(99, seed=3),
        )
        assert a.statistic == pytest.approx(b.statistic, rel=1e-9)

    def test_group_swap_invariance(self):
        rng = np.random.default_rng(17)
        y = rng.normal(size=(4, 1))
        z = rng.normal(size=(4, 1)) + 0.5
        a = mmd_test(
            TwoSamplePooled(y=y, z=z, domain=Continuous(1)), np.array([1.0]), 0.05, EXACT
        )
        b = mmd_test(
            TwoSamplePooled(y=z, z=y, domain=Continuous(1)), np.array([1.0]), 0.05, EXACT
        )
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_location_shift_power(self):
        rng = np.random.default_rng(18)
        rejects = 0
        trials = 50
        for t in range(trials):
            data = TwoSamplePooled(
                y=rng.normal(size=(100, 1)),
                z=rng.normal(loc=1.0, size=(100, 1)),
                domain=Continuous(1),
            )
            out = mmd_test(data, SmoothnessRule(1.0), 0.05, MC(199, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.9

    def test_decision_independent_of_bandwidth_scale(self):
        # at huge bandwidths the statistic is ~1e-14 or smaller; the tie rule
        # must not fold every replicate into a tie with it
        rng = np.random.default_rng(20)
        data = TwoSamplePooled(
            y=rng.normal(size=(40, 1)),
            z=rng.normal(loc=1.5, size=(40, 1)),
            domain=Continuous(1),
        )
        pvals = {
            mmd_test(data, np.array([bw]), 0.05, MC(199, seed=1)).p_value
            for bw in (5e3, 5e4, 5e5)
        }
        assert pvals == {0.005}

    def test_unreachable_level_warns(self):
        rng = np.random.default_rng(21)
        data = TwoSamplePooled(
            y=rng.normal(size=(10, 1)), z=rng.normal(size=(10, 1)), domain=Continuous(1)
        )
        with pytest.warns(RuntimeWarning, match="never reject"):
            out = mmd_test(data, np.array([1.0]), 0.01, MC(19, seed=0))
        assert not out.reject

    def test_nonpositive_bandwidth_rejected(self):
        rng = np.random.default_rng(19)
        data = TwoSamplePooled(
            y=rng.normal(size=(5, 1)), z=rng.normal(size=(5, 1)), domain=Continuous(1)
        )
        with pytest.raises(ValueError):
            mmd_test(data, np.array([0.0]), 0.05, EXACT)


class TestHSIC:
    def test_noise_dependence_power(self):
        rng = np.random.default_rng(20)
        rejects = 0
        trials = 50
        for t in range(trials):
            y = rng.normal(size=(100, 1))
            z = y + 0.25 * rng.normal(size=(100, 1))
            data = PairedSample(
                y=y, z=z, y_domain=Continuous(1), z_domain=Continuous(1)
            )
            out = hsic_test(
                data, SmoothnessRule(1.0), SmoothnessRule(1.0), 0.05, MC(199, seed=t)
            )
            rejects += out.reject
        assert rejects / trials >= 0.9

    def test_explicit_bandwidths(self):
        rng = np.random.default_rng(21)
        data = PairedSample(
            y=rng.normal(size=(20, 2)),
            z=rng.normal(size=(20, 1)),
            y_domain=Continuous(2),
            z_domain=Continuous(1),
        )
        out = hsic_test(data, np.array([0.5, 1.0]), np.array([0.8]), 0.05, MC(99, seed=0))
        assert math.isfinite(out.statistic)


class TestMonteCarloLevel:
    def test_multinomial_two_sample_level(self):
        # Monte Carlo plan validity: P(p <= u) <= u + 3se at several levels
        trials = 1000
        pvals = np.empty(trials)
        for t in range(trials):
            rng = replicate_rng(40, t)
            data = TwoSamplePooled(
                y=rng.integers(0, 6, 25), z=rng.integers(0, 6, 25),
                domain=Categorical(6),
            )
            pvals[t] = multinomial_l2_two_sample(data, 0.1, MC(99, seed=t)).p_value
        for u in (0.01, 0.05, 0.1):
            se = math.sqrt(u * (1 - u) / trials)
            assert (pvals <= u).mean() <= u + 3 * se

    def test_hsic_level(self):
        trials = 600
        pvals = np.empty(trials)
        for t in range(trials):
            rng = replicate_rng(41, t)
            data = PairedSample(
                y=rng.normal(size=(20, 1)), z=rng.normal(size=(20, 1)),
                y_domain=Continuous(1), z_domain=Continuous(1),
            )
            pvals[t] = hsic_test(
                data, np.array([0.5]), np.array([0.5]), 0.1, MC(99, seed=t)
            ).p_value
        for u in (0.01, 0.05, 0.1):
            se = math.sqrt(u * (1 - u) / trials)
            assert (pvals <= u).mean() <= u + 3 * se


class TestWarningLocation:
    """The unreachable-level warning names the caller's line, not a line of permkit."""

    def test_two_sample_warning_points_at_the_caller(self):
        rng = np.random.default_rng(0)
        data = TwoSamplePooled(y=rng.integers(0, 4, 10), z=rng.integers(0, 4, 10),
                               domain=Categorical(4))
        with pytest.warns(RuntimeWarning, match="never reject") as record:
            multinomial_l2_two_sample(data, 0.01, MC(49, seed=0))
        assert record[0].filename == __file__

    def test_adaptive_warning_points_at_the_caller(self):
        rng = np.random.default_rng(1)
        data = PairedSample(y=rng.random((40, 1)), z=rng.random((40, 1)),
                            y_domain=Continuous(1), z_domain=Continuous(1))
        with pytest.warns(RuntimeWarning, match="never reject") as record:
            adaptive_independence(data, 0.01, MC(49, seed=0))
        assert record[0].filename == __file__

    @pytest.mark.parametrize("procedure", [adaptive_two_sample, adaptive_independence])
    def test_grid_cap_warning_points_at_the_caller(self, procedure):
        # 5 + 5 dimensions at 100 points: the grid's kappa = 4 has 4^10 > 10^6 cells
        rng = np.random.default_rng(2)
        if procedure is adaptive_two_sample:
            data = TwoSamplePooled(y=rng.random((100, 10)), z=rng.random((100, 10)),
                                   domain=Continuous(10))
        else:
            data = PairedSample(y=rng.random((100, 5)), z=rng.random((100, 5)),
                                y_domain=Continuous(5), z_domain=Continuous(5))
        with pytest.warns(RuntimeWarning, match="dropping kappa=4") as record:
            procedure(data, 0.05, MC(99, seed=0))
        assert [w.filename for w in record if "dropping" in str(w.message)] == [__file__]


class TestPoissonTest:
    def test_all_zero_counts_never_rejects(self):
        counts = PoissonCounts(np.zeros((5, 4), dtype=int), np.zeros((5, 4), dtype=int))
        out = poisson_chisq_test(counts, alpha=0.05, plan=MC(99, seed=0))
        assert out.statistic == 0.0
        assert not out.reject

    def test_separated_rates_power(self):
        rng = np.random.default_rng(22)
        d = 10
        p_y = np.full(d, 0.02)
        p_z = np.full(d, 0.02)
        p_y[: d // 2] += 0.08
        p_z[d // 2 :] += 0.08  # l1 distance 0.8
        rejects = 0
        trials = 50
        for t in range(trials):
            ym = rng.poisson(p_y, (100, d))
            zm = rng.poisson(p_z, (100, d))
            counts = PoissonCounts(ym, zm)
            out = poisson_chisq_test(counts, 0.05, MC(199, seed=t))
            rejects += out.reject
        assert rejects / trials >= 0.9


class _RowsOnly:
    """Forwards only ``evaluate_many``, so an exact plan enumerates all n! rows."""

    def __init__(self, stat):
        self.evaluate_many = stat.evaluate_many


def _exact_run(call, hide_subsets: bool):
    """``call()``'s outcome and the ``subset_size`` each evaluator it ran declared.

    With ``hide_subsets`` every evaluator is stripped of its declaration, so
    an exact plan enumerates all n! rows.
    """
    declared = []
    run_test = perm_core.run_test

    def patched(stat, *args):
        declared.append(getattr(stat, "subset_size", None))
        return run_test(_RowsOnly(stat) if hide_subsets else stat, *args)

    perm_core.run_test = patched
    try:
        return call(), declared
    finally:
        perm_core.run_test = run_test


def _decision_fields(outcome):
    if isinstance(outcome, AdaptiveOutcome):
        return [_decision_fields(c) for _, c in outcome.components]
    return (outcome.statistic.hex(), outcome.critical_value.hex(), outcome.p_value.hex(),
            outcome.reject, outcome.replicate_count)


def _continuous(rng, n1, n2, dim=2):
    return TwoSamplePooled(y=rng.random((n1, dim)), z=rng.random((n2, dim)) ** 1.5,
                           domain=Continuous(dim))


def _categorical(rng, n1, n2, d=4):
    return TwoSamplePooled(y=rng.integers(0, d, n1), z=rng.integers(0, (d + 1) // 2, n2),
                           domain=Categorical(d))


def _split_pairs(rng, n1, n2):
    # 3 * (n1 + n2) pairs: l1_split_independence permutes n1 + n2 of them, half per group
    y = rng.integers(0, 3, 3 * (n1 + n2))
    return PairedSample(y=y, z=(y + rng.integers(0, 2, y.size)) % 3,
                        y_domain=Categorical(3), z_domain=Categorical(3))


def _poisson_rows(rng, n1, n2):
    return PoissonCounts(rng.poisson(1.0, (n1, 3)), rng.poisson(1.5, (n2, 3)))


# every procedure whose evaluator declares subset_size: (procedure on (data, plan),
# data on n1 + n2 permuted points, the (n1, n2) designs it accepts)
SUBSET_PROCEDURES = {
    "multinomial": (lambda d, p: multinomial_l2_two_sample(d, 0.1, p), _categorical,
                    [(4, 4), (5, 4)]),
    "binned": (lambda d, p: binned_two_sample(d, 3, 0.1, p), _continuous, [(4, 4), (5, 4)]),
    "holder": (lambda d, p: holder_two_sample(d, 0.5, 0.05, p), _continuous, [(4, 4), (5, 4)]),
    "adaptive": (lambda d, p: adaptive_two_sample(d, 0.1, p), _continuous, [(4, 4), (5, 4)]),
    "l1-split": (lambda d, p: l1_split_two_sample(d, 0.1, p),
                 lambda rng, n1, n2: _categorical(rng, 2 * n1, 2 * n2), [(4, 4), (5, 4)]),
    "l1-split-independence": (lambda d, p: l1_split_independence(d, 0.1, p), _split_pairs,
                              [(4, 4), (3, 3)]),
    "mmd": (lambda d, p: mmd_test(d, SmoothnessRule(1.0), 0.1, p), _continuous,
            [(4, 4), (5, 4)]),
    "mmd-bandwidth": (lambda d, p: mmd_test(d, [0.3, 0.5], 0.05, p), _continuous,
                      [(4, 4), (5, 4)]),
    "poisson": (lambda d, p: poisson_chisq_test(d, 0.1, p), _poisson_rows, [(4, 4), (3, 3)]),
}

# acceptance criterion 1's two-sample designs, on its data streams
CRITERION_1_DESIGNS = {
    "multinomial": (0, lambda rng: multinomial_l2_two_sample(
        TwoSamplePooled(y=rng.integers(0, 3, 2), z=rng.integers(0, 3, 2), domain=Categorical(3)),
        0.1, EXACT)),
    "holder": (2, lambda rng: holder_two_sample(
        TwoSamplePooled(y=rng.random(3), z=rng.random(2), domain=Continuous(1)),
        0.25, 0.1, EXACT)),
    "adaptive": (4, lambda rng: adaptive_two_sample(
        TwoSamplePooled(y=rng.random((3, 2)), z=rng.random((2, 2)), domain=Continuous(2)),
        0.1, EXACT)),
    "l1-split": (6, lambda rng: l1_split_two_sample(
        TwoSamplePooled(y=rng.integers(0, 2, 4), z=rng.integers(0, 2, 4), domain=Categorical(2)),
        0.1, EXACT)),
    "mmd": (8, lambda rng: mmd_test(
        TwoSamplePooled(y=rng.normal(size=(2, 1)), z=rng.normal(size=(2, 1)),
                        domain=Continuous(1)),
        np.array([0.5]), 0.1, EXACT)),
    "poisson": (10, lambda rng: poisson_chisq_test(
        PoissonCounts(rng.poisson(0.7, (2, 3)), rng.poisson(0.7, (2, 3))), 0.1, EXACT)),
}


def _subset_mismatches(names, seeds=(0, 1)) -> list[str]:
    """Designs of ``SUBSET_PROCEDURES[names]`` whose subset and n! outcomes differ."""
    bad = []
    for name in names:
        procedure, make, designs = SUBSET_PROCEDURES[name]
        for (n1, n2), seed in itertools.product(designs, seeds):
            data = make(np.random.default_rng(seed), n1, n2)
            fast, declared = _exact_run(lambda: procedure(data, EXACT), False)
            slow, _ = _exact_run(lambda: procedure(data, EXACT), True)
            if None in declared or _decision_fields(fast) != _decision_fields(slow):
                bad.append(f"{name} {n1}+{n2} seed {seed}")
    return bad


class TestSubsetEnumeration:
    """Two-sample evaluators declare ``subset_size``: exact plans enumerate C(n, n1) rows."""

    @pytest.mark.parametrize("name", list(SUBSET_PROCEDURES))
    def test_same_outcome_as_all_permutations(self, name):
        assert _subset_mismatches([name]) == []

    def test_mmd_same_outcome_under_one_blas_thread(self):
        # the MMD's last bits depend on how BLAS blocks mask @ g, so pin one
        # thread (as the fixture does) in a fresh process
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "tests")])}
        code = ("import test_procedures as t; "
                "print(t._subset_mismatches(['mmd', 'mmd-bandwidth'], seeds=range(4)))")
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", list(CRITERION_1_DESIGNS))
    def test_criterion_1_designs(self, name):
        index, run = CRITERION_1_DESIGNS[name]
        for t in range(100):
            fast, declared = _exact_run(lambda: run(replicate_rng(1000 + index, t)), False)
            slow, _ = _exact_run(lambda: run(replicate_rng(1000 + index, t)), True)
            assert None not in declared
            assert _decision_fields(fast) == _decision_fields(slow), t

    @pytest.mark.parametrize(
        "n1, n2, alpha",
        [(7, 7, 0.05), (2, 169, 0.2), (4, 20, 0.5), (12, 12, 0.05)],
        ids=["7+7", "2+169", "4+20", "12+12"],
    )
    def test_exact_reach_past_the_permutation_limit(self, n1, n2, alpha):
        # 7 + 7 points: 14! relabelings, enumerated as C(14, 7) = 3432 subsets;
        # n = 24 and 171 have n! beyond 2^53 (171! beyond the float range),
        # with C(n, n1) (1 - alpha) an integer
        rng = np.random.default_rng(4)
        y, z = rng.integers(0, 4, n1), rng.integers(0, 2, n2)
        out = multinomial_l2_two_sample(
            TwoSamplePooled(y=y, z=z, domain=Categorical(4)), alpha, EXACT)
        assert out.replicate_count == math.factorial(n1 + n2)
        if (n1, n2) == (12, 12):  # C(24, 12) subsets: too many for the integer count below
            return
        # the statistic times n1(n1-1)n2(n2-1), in integers, on every subset
        x = np.concatenate([y, z])
        subsets = np.array(list(itertools.combinations(range(n1 + n2), n1)))
        c1 = np.stack([np.bincount(x[s], minlength=4) for s in subsets])
        c2 = np.bincount(x, minlength=4) - c1
        t = (c1 * (c1 - 1) * n2 * (n2 - 1) + c2 * (c2 - 1) * n1 * (n1 - 1)
             - 2 * c1 * c2 * (n1 - 1) * (n2 - 1)).sum(axis=1)
        assert out.p_value == int((t >= t[0]).sum()) / len(subsets)
        assert 0 < out.p_value < 1
        # the smallest k with k / C >= 1 - alpha, alpha read as the decimal it is written as
        k = math.ceil(len(subsets) * (1 - Fraction(str(alpha))))
        scale = n1 * (n1 - 1) * n2 * (n2 - 1)
        assert out.critical_value == pytest.approx(np.sort(t)[k - 1] / scale, rel=1e-12)
        assert out.reject == (t[0] > np.sort(t)[k - 1])

    def test_exact_independence_still_enumerates_all_permutations(self):
        rng = np.random.default_rng(5)
        data = PairedSample(y=rng.integers(0, 3, 11), z=rng.integers(0, 3, 11),
                            y_domain=Categorical(3), z_domain=Categorical(3))
        with pytest.raises(ValueError, match="11! = 39916800 permutations exceeds"):
            multinomial_l2_independence(data, 0.1, EXACT)
        with pytest.raises(ValueError, match="enumeration limit"):
            adaptive_independence(
                PairedSample(y=rng.random(11), z=rng.random(11),
                             y_domain=Continuous(1), z_domain=Continuous(1)),
                0.1, EXACT)

    def test_exact_plan_stops_where_n_factorial_still_prints(self):
        # replicate_count is n!; above 4300 digits Python refuses to print it
        assert math.factorial(1558) < 10**4300 <= math.factorial(1559)
        assert perm_core._enumeration_size(1558, 1) == 1558
        data = TwoSamplePooled(y=np.zeros(2, int), z=np.arange(1557) % 2, domain=Categorical(2))
        with pytest.raises(ValueError, match=r"on 1559 points .* \(at most 1558 points\)"):
            multinomial_l2_two_sample(data, 0.05, EXACT)

    def test_exact_adaptive_memory_is_bounded(self):
        # 5 + 5 points, K = 7 kappas: all 10! rows would hold K * 10! floats (about 200 MB)
        data = _continuous(np.random.default_rng(6), 5, 5, dim=1)
        tracemalloc.start()
        try:
            out = adaptive_two_sample(data, 0.1, EXACT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.components) == 7
        assert all(c.replicate_count == math.factorial(10) for _, c in out.components)
        assert peak < 5 * 2**20


class _ForwardOnly:
    """Forwards only ``evaluate_many`` and ``__call__``, as a tracing wrapper does."""

    def __init__(self, stat):
        self._stat = stat
        if hasattr(stat, "evaluate_many"):
            self.evaluate_many = stat.evaluate_many

    def __call__(self, data, perm):
        return self._stat(data, perm)


# the procedures whose data reach perm_core as GroupCounts under a Monte Carlo plan
COUNT_SOURCE = ("multinomial", "l1-split", "l1-split-independence")


class TestCountSourceUnderAWrapper:
    """The count-row declaration rides on the data, so a wrapped evaluator keeps it."""

    @pytest.mark.parametrize("plan", [MC(199, seed=3), EXACT], ids=["monte-carlo", "exact"])
    @pytest.mark.parametrize("name", list(SUBSET_PROCEDURES))
    def test_same_outcome_as_the_bare_evaluator(self, name, plan, monkeypatch):
        procedure, make, designs = SUBSET_PROCEDURES[name]
        n1, n2 = designs[-1]
        data = make(np.random.default_rng(21), n1, n2)
        bare = procedure(data, plan)
        counted = []
        distribution = perm_core.permutation_distribution

        def wrapped(stat, reduced, n, plan):
            counted.append(isinstance(reduced, GroupCounts))
            return distribution(_ForwardOnly(stat), reduced, n, plan)

        monkeypatch.setattr(perm_core, "permutation_distribution", wrapped)
        assert _decision_fields(procedure(data, plan)) == _decision_fields(bare)
        assert counted == [name in COUNT_SOURCE and plan.mode == "monte_carlo"]


def _slicing_case(name):
    """(a ``ustats`` batch form as a function of the rows, its temporaries per row), n = 12."""
    rng = np.random.default_rng(11)
    if name == "count-two-sample":
        codes = rng.permutation(np.arange(12) % 5)
        return lambda rows: ustats.multinomial_two_sample_u_many(codes, 6, 6, rows), 5
    if name == "count-independence":
        y, z = rng.permutation(np.arange(12) % 3), rng.permutation(np.arange(12) % 4)
        # the joint table of 3 x 4 cells and the gathered keys
        return lambda rows: ustats.multinomial_independence_u_many(y, z, rows), 3 * 4 + 12
    if name == "count-independence-stacked":
        ys = np.array([rng.permutation(np.arange(12) % w) for w in (3, 2, 6)])
        zs = np.array([rng.permutation(np.arange(12) % w) for w in (4, 5, 1)])
        # 3 * 4 + 2 * 5 + 6 * 1 joint cells and the 3 grids' gathered keys
        return lambda rows: ustats.multinomial_independence_u_many(ys, zs, rows), 28 + 3 * 12
    if name == "gram-two-sample":
        # BLAS may round a row of mask @ g differently by its place in the
        # block; entries in eighths keep every sum exact, so only the slicing
        # itself can change a value here
        upper = np.triu(rng.integers(0, 8, (12, 12)) / 8.0, 1)
        g = GramMatrix(upper + upper.T, True)
        return lambda rows: ustats.two_sample_u_many(g, 6, 6, rows), 2 * 12
    if name == "gram-independence":
        gy, gz = (gram(Gaussian(np.array([1.0])), rng.normal(size=12)) for _ in "yz")
        return lambda rows: ustats.independence_u_many(gy, gz, rows), 2 * 12 * 12
    pooled = rng.poisson(1.0, (12, 4))
    return lambda rows: ustats.poisson_chisq_many(pooled, 6, rows), 6 * 4


class TestRowSlices:
    @pytest.mark.parametrize(
        "name",
        [
            "count-two-sample",
            "count-independence",
            "count-independence-stacked",
            "gram-two-sample",
            "gram-independence",
            "poisson-chisq",
        ],
    )
    def test_values_do_not_depend_on_the_slicing(self, name, monkeypatch):
        evaluate, per_row = _slicing_case(name)
        rng = np.random.default_rng(12)
        perms = np.array([np.arange(12)] + [rng.permutation(12) for _ in range(40)])
        whole = evaluate(perms)  # one slice under the default budget
        assert ustats.CHUNK_ENTRIES // per_row >= perms.shape[0]
        for budget in (7 * per_row, 1):  # slices of 7 rows, then of one row
            monkeypatch.setattr(ustats, "CHUNK_ENTRIES", budget)
            assert evaluate(perms).tobytes() == whole.tobytes()

    def test_hsic_peak_memory_is_bounded_by_the_chunk(self):
        # 999 relabeled 150 x 150 Gram blocks at once would take 180 MB
        rng = np.random.default_rng(5)
        data = PairedSample(
            y=rng.normal(size=150), z=rng.normal(size=150),
            y_domain=Continuous(1), z_domain=Continuous(1),
        )
        tracemalloc.start()
        try:
            hsic_test(data, np.array([1.0]), np.array([1.0]), 0.05, MC(999, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_adaptive_peak_memory_is_bounded_by_the_chunk(self):
        # 1000 + 1000 points, K = 19 grids: 1000 rows' running tables and
        # gathers of the 2865 runs of two or more points would take 59 MB at
        # once; a chunk of index rows takes 8 MB
        data = _continuous(np.random.default_rng(5), 1000, 1000, dim=1)
        tracemalloc.start()
        try:
            out = adaptive_two_sample(data, 0.05, MC(999, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.components) == 19
        assert peak < 16 * 2**20

    def test_adaptive_independence_peak_memory_is_bounded_by_the_chunk(self):
        # 300 pairs, K = 8 grids of 41,154 joint cells in all: 1000 rows' joint
        # tables would take 330 MB at once; a chunk of index rows takes 2.4 MB
        rng = np.random.default_rng(5)
        y = rng.random(300)
        data = PairedSample(y=y, z=(y + rng.random(300)) / 2,
                            y_domain=Continuous(1), z_domain=Continuous(1))
        tracemalloc.start()
        try:
            out = adaptive_independence(data, 0.05, MC(999, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.components) == 8
        assert peak < 16 * 2**20
