"""Numerical laboratory for classical, martingale and nonlinear CLTs."""

from .classical import (
    DiscreteLaw,
    IidModel,
    LaplaceParams,
    binomial_standardized_prob,
    feller_ratio,
    laplace_approx,
    laplace_exact,
    lindeberg_statistic,
    lyapunov_statistic,
    simulate_clt_distance,
)
from .densities import (
    DensityParams,
    MeanInterval,
    VarianceInterval,
    cez_pdf,
    chen_epstein_pdf,
    emit_density_curve,
    select_mean_limit_params,
    select_variance_limit_params,
)
from .errors import (
    ConfigError,
    GridTooCoarse,
    InvalidParams,
    InvalidTheta,
    NlcltError,
    NonConvergence,
    PolicyMismatch,
    UnstableResolution,
    UnsupportedCombination,
)
from .martingale import (
    MdsModel,
    MixtureLimit,
    brown_ratios,
    hall_convergence_check,
    hall_mixture_sampler,
    levy_condition_terms,
    mcleish_product_mean,
)
from .measure_dp import (
    AdversaryPolicy,
    RectangularModel,
    convergence_experiment,
    lindeberg_condition_value,
    policy_simulate,
    sup_expectation_dp,
)
from .numerics import (
    Grid1D,
    SeedSpec,
    generator,
    ks_one_sample,
    quad_integrate,
    std_normal_cdf,
    std_normal_pdf,
)
from .sublinear import (
    GMean,
    GVariance,
    HjbProblem,
    Shape,
    SShapeSpec,
    TestFunction,
    ValueGrid,
    make_s_shaped,
    named_test_function,
    solve_g_expectation,
    solve_g_heat,
    tree_value_oracle,
)

__version__ = "0.1.0"
