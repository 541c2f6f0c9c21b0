"""Permutation-calibrated hypothesis tests with degenerate U-statistics.

Library layout:

* :mod:`permkit.perm_core` -- permutation plans, distributions, critical
  values, p-values.
* :mod:`permkit.kernels` -- the bivariate kernels and flattening weights.
* :mod:`permkit.ustats` -- U-statistic evaluators and brute-force oracles.
* :mod:`permkit.testing` -- the named test procedures (multinomial, binned,
  adaptive, sample-splitting, Gaussian-kernel, Poisson chi-square).
* :mod:`permkit.concentration` -- concentration scales and explicit tail
  bounds with empirical validation helpers.
* :mod:`permkit.simlab` -- data generators and the simulation harness.
"""

from .kernels import (
    Gaussian,
    GramMatrix,
    MultinomialIndicator,
    ProductWeighted,
    WeightedMultinomial,
    gram,
    product_weights,
    split_weights,
)
from .perm_core import (
    PermutationDistribution,
    PermutationPlan,
    TestOutcome,
    critical_value,
    enumerate_permutations,
    p_value,
    permutation_distribution,
    run_test,
)
from .testing import (
    AdaptiveGrid,
    AdaptiveOutcome,
    BinGrid,
    SmoothnessRule,
    adaptive_independence,
    adaptive_two_sample,
    bin_data,
    binned_independence,
    binned_two_sample,
    holder_independence,
    holder_two_sample,
    hsic_test,
    l1_split_independence,
    l1_split_two_sample,
    mmd_test,
    multinomial_l2_independence,
    multinomial_l2_two_sample,
    poisson_chisq_test,
)
from .ustats import (
    Categorical,
    Continuous,
    PairedSample,
    PoissonCounts,
    TwoSamplePooled,
    independence_u,
    independence_u_naive,
    linear_stat,
    multinomial_two_sample_u,
    poisson_chisq,
    two_sample_u,
    two_sample_u_naive,
)

__version__ = "0.1.0"
