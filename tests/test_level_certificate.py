"""An exact level certificate for every command-line procedure.

Under an exact plan the level guarantee is a counting fact about one
dataset: relabeling the data by any sigma leaves the pool of statistic
values unchanged as a multiset, so over the N relabelings of one dataset at
most floor(alpha N) have p <= alpha, whatever the data (the randomization
hypothesis; Lehmann & Romano, Testing Statistical Hypotheses, 3rd ed.,
section 15.2; Hemerik & Goeman 2018).  Each design below is small enough to
run the procedure on every relabeling of the points it permutes: the pooled
points of a two-sample test, the z side of an independence test, and only
the permuted blocks of the l1-split tests.  The designs hold repeated
points, and empty and singleton categories, so ties that rounding could
split are present.  The bound is checked at fixed levels and at every
attainable p-value, where it is tightest.  A Monte Carlo plan has no such
certificate; its level stays with the statistical checks.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from permkit import cli, testing
from permkit.perm_core import ENUMERATION_LIMIT, PermutationPlan
from permkit.testing import AdaptiveOutcome
from permkit.ustats import Categorical, Continuous, PairedSample, PoissonCounts, TwoSamplePooled

EXACT = PermutationPlan.exact()
LEVELS = (Fraction(1, 20), Fraction(1, 10), Fraction(1, 5))


def _two_sample(y, z, domain):
    """Relabelings of the pooled points of ``y`` and ``z``, the first len(y) forming group one."""
    pooled, n1 = np.concatenate([y, z]), len(y)
    return pooled.shape[0], lambda order: TwoSamplePooled(
        y=pooled[order[:n1]], z=pooled[order[n1:]], domain=domain
    )


def _independence(y, z, y_domain, z_domain):
    """Relabelings of the z side of the pairs."""
    return len(z), lambda order: PairedSample(y=y, z=z[order], y_domain=y_domain, z_domain=z_domain)


def _l1_split_two_sample(y, z, domain):
    """Relabelings of the 2 n1 points the test permutes: y[:n1] and z[:n1]; the rest stay."""
    n1 = len(y) // 2
    block = np.concatenate([y[:n1], z[:n1]])

    def relabeled(order):
        moved = block[order]
        return TwoSamplePooled(y=np.concatenate([moved[:n1], y[n1:]]),
                               z=np.concatenate([moved[n1:], z[n1:]]), domain=domain)

    return 2 * n1, relabeled


def _l1_split_independence(y, z, y_domain, z_domain):
    """Relabelings of the 2 half pairs the test permutes: the first half joint pairs
    (i, i) and the first half product pairs (n + j, 2n + j); the rest stay."""
    n = len(y) // 3
    half = n // 2
    slots = [(i, i) for i in range(half)] + [(n + j, 2 * n + j) for j in range(half)]
    pairs = [(y[a], z[b]) for a, b in slots]

    def relabeled(order):
        y2, z2 = y.copy(), z.copy()
        for (a, b), k in zip(slots, order):
            y2[a], z2[b] = pairs[k]
        return PairedSample(y=y2, z=z2, y_domain=y_domain, z_domain=z_domain)

    return 2 * half, relabeled


def _poisson(y_rows, z_rows):
    """Relabelings of the pooled per-individual count rows."""
    pooled, n = np.vstack([y_rows, z_rows]), len(y_rows)
    return 2 * n, lambda order: PoissonCounts(pooled[order[:n]], pooled[order[n:]])


def _column(*values):
    return np.array(values, dtype=float)[:, None]


# category 3 is empty and category 1 a singleton; points repeat
_CAT_Y, _CAT_Z = np.array([0, 0, 1]), np.array([0, 2, 2])
_POINTS_Y, _POINTS_Z = _column(0.3, 0.3, 0.6), _column(0.6, 0.3, 0.9)
_PAIRS_Y = _column(0.1, 0.1, 0.4, 0.4, 0.8, 0.95)
_PAIRS_Z = _column(0.2, 0.7, 0.2, 0.7, 0.7, 0.05)
_CONT = Continuous(1)

# procedure -> (points relabeled, data of a relabeling, the rest of its arguments)
DESIGNS = {
    testing.multinomial_l2_two_sample: (*_two_sample(_CAT_Y, _CAT_Z, Categorical(4)), ()),
    testing.binned_two_sample: (*_two_sample(_POINTS_Y, _POINTS_Z, _CONT), (3,)),
    testing.holder_two_sample: (*_two_sample(_POINTS_Y, _POINTS_Z, _CONT), (0.25,)),
    # 4 + 2 points: with 3 + 3, every p-value is at least 2 / 20, so no component can reject
    testing.adaptive_two_sample: (*_two_sample(_column(0.1, 0.1, 0.55, 0.9), _column(0.55, 0.1),
                                               _CONT), ()),
    testing.mmd_test: (*_two_sample(_POINTS_Y, _POINTS_Z, _CONT), (np.array([0.5]),)),
    testing.l1_split_two_sample: (
        # the holdout z[3:] sets the weights; category 3 is empty among the permuted points
        *_l1_split_two_sample(np.array([0, 0, 1, 2, 1, 0]), np.array([1, 2, 2, 0, 1, 2]),
                              Categorical(4)),
        (),
    ),
    testing.poisson_chisq_test: (
        *_poisson(np.array([[0, 1], [0, 1], [2, 0]]), np.array([[0, 1], [1, 0], [0, 0]])),
        (),
    ),
    testing.multinomial_l2_independence: (
        *_independence(np.array([0, 0, 1, 1, 2, 2]), np.array([0, 3, 0, 3, 1, 0]),
                       Categorical(3), Categorical(4)),
        (),
    ),
    testing.binned_independence: (*_independence(_PAIRS_Y, _PAIRS_Z, _CONT, _CONT), (2,)),
    testing.holder_independence: (*_independence(_PAIRS_Y, _PAIRS_Z, _CONT, _CONT), (0.25,)),
    testing.adaptive_independence: (*_independence(_PAIRS_Y, _PAIRS_Z, _CONT, _CONT), ()),
    testing.hsic_test: (
        *_independence(_PAIRS_Y, _PAIRS_Z, _CONT, _CONT), (np.array([0.5]), np.array([0.5]))
    ),
    testing.l1_split_independence: (
        # 18 pairs: n = 6, so 3 joint and 3 product pairs are permuted
        *_l1_split_independence(np.array([0, 0, 1, 0, 1, 1, 2, 0, 1, 0, 2, 1, 0, 1, 2, 0, 0, 1]),
                                np.array([1, 1, 0, 2, 0, 1, 1, 0, 2, 1, 1, 0, 0, 1, 0, 2, 1, 1]),
                                Categorical(3), Categorical(3)),
        (),
    ),
}


def test_every_route_has_a_design():
    assert {procedure for procedure, _, _ in cli._ROUTES.values()} == set(DESIGNS)


def _exact(p: float) -> Fraction:
    """The attainable p-value ``p`` (a count over a pool of at most 10! rows) as a fraction."""
    return Fraction(p).limit_denominator(ENUMERATION_LIMIT)


def _assert_bounded(p_values: np.ndarray, levels, gamma: int = 1) -> int:
    """Assert #{p <= alpha / gamma} <= floor(alpha N) over the N relabelings at each level alpha.

    With ``gamma`` = gamma_max and each relabeling's smallest component
    p-value, the count is that of the adaptive union's rejections.  Returns
    the number of levels at which the count meets the bound.
    """
    total, tight = len(p_values), 0
    for level in levels:
        count = int(np.count_nonzero(p_values <= float(level) / gamma))
        bound = math.floor(level * total)
        assert count <= bound, f"{count} of {total} relabelings reject at {level}, above {bound}"
        tight += count == bound > 0
    return tight


@pytest.mark.parametrize("procedure", list(DESIGNS), ids=lambda procedure: procedure.__name__)
def test_exact_plan_keeps_its_level_over_every_relabeling(procedure):
    points, relabeled, args = DESIGNS[procedure]
    outcomes = [procedure(relabeled(list(order)), *args, 0.1, EXACT)
                for order in itertools.permutations(range(points))]
    assert len(outcomes) == math.factorial(points)
    if not isinstance(outcomes[0], AdaptiveOutcome):
        p_values = np.array([o.p_value for o in outcomes])
        atoms = {_exact(p) for p in p_values} - {0, 1}
        assert _assert_bounded(p_values, sorted(set(LEVELS) | atoms)) > 0
        return
    gamma = outcomes[0].gamma_max
    components = np.array([[o.p_value for _, o in out.components] for out in outcomes])
    atoms = {_exact(p) for p in components.ravel()} - {0, 1}
    # each component, at alpha / gamma_max for every union level and at its own atoms
    for column in components.T:
        _assert_bounded(column, sorted({level / gamma for level in LEVELS} | atoms))
    # the union (Bonferroni) decision, as the outcome takes it, at the fixed levels
    # and at the union levels that put a component's level on an atom
    union_levels = sorted(set(LEVELS) | {gamma * atom for atom in atoms if gamma * atom < 1})
    assert len(union_levels) > len(LEVELS)
    smallest = components.min(axis=1)
    _assert_bounded(smallest, union_levels, gamma)
    assert [out.reject for out in outcomes] == list(smallest <= 0.1 / gamma)
