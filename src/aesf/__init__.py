"""Sensitivity functions for classical functionals and rank correlations.

The package measures how much an estimator moves when one observation is
added to a sample: the finite-sample sensitivity function, its expectation
under a model at sample size n, and the closed-form large-n limit of that
expectation for the mean, variance, uniform maximum, smooth transforms of
linear functionals, and the Kendall, Spearman and Chatterjee rank
correlations.
"""

from .closedform import AesfRequest, aesf, aesf_many, esf_exact, is_supported, population_value
from .errors import (
    AesfError,
    DomainError,
    NumericsError,
    ParseError,
    TieError,
    UnsupportedError,
)
from .estimators import (
    Dataset,
    FunctionalId,
    chatterjee_xi,
    estimate,
    kendall_tau,
    spearman_s,
)
from .models import (
    AdditiveNoise,
    BivariateGaussian,
    IndependentProduct,
    Link,
    NormalLaw,
    UniformLaw,
    UniformMax,
    UnivariateNormal,
    conditional_survival,
    derive_seed,
    expect_y_prime,
    marginal_cdf_y,
    model_from_json,
    model_to_json,
    sample,
    scenario,
)
from .numerics import bvn_cdf, hermite_rule, normal_cdf
from .sensitivity import (
    ConvergenceCurve,
    McEstimate,
    convergence_study,
    esf_mc,
    sf,
    sf_distribution,
)

__version__ = "0.1.0"
