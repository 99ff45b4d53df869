"""Robust marginal location estimation and bootstrap inference for
partially observed functional data."""

__version__ = "0.1.0"

from .data import (
    DataFormatError,
    Dataset,
    Grid,
    PartialCurve,
    integrate,
    load_csv,
    matrix_dataset,
    restrict_dataset,
    save_csv,
)
from .losses import (
    LossSpec,
    ScaledHuber,
    huber,
    parse_loss,
    psi,
    psi_dot,
    quantile,
    rho,
    smoothed_quantile,
    square,
)
from .estimator import (
    MEstimate,
    NumericalError,
    fit,
    fit_marginal,
    influence_function,
    interpolate_undefined,
    mad_profile,
    solve_locations,
)
from .sampling import (
    MissingScheme,
    analytic_b,
    bernoulli_sparse,
    complete,
    empirical_b,
    fixed_intervals,
    generate_masks,
    parse_scheme,
    random_interval,
    snippet,
    sup_deviation,
)
from .inference import (
    BootstrapEnsemble,
    TestResult,
    TrendCI,
    anova_l2_test,
    bootstrap_ensemble,
    constant_probe,
    eigen_mixture,
    linear_probe,
    parse_probe,
    quadratic_probe,
    resample,
    step_probe,
    trend_ci,
)
from .simulation import (
    Contamination,
    ConstantScale,
    ErrorModel,
    ProcessModel,
    RandomScale,
    ScenarioConfig,
    generate_curves,
    ise,
    model_mean,
    model_preset,
    probe_mean,
    read_scenario_config,
    run_coverage_study,
    run_ise_study,
    run_size_study,
    smooth_mean,
)
