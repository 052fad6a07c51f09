"""Distribution-free regression for the relative treatment effect
P(T1 > T2 | Z1, Z2) from possibly right-censored two-sample data."""

from .survival import (
    SurvivalCurve,
    TwoSampleDataset,
    kaplan_meier,
    theta_integral,
)
from .pseudo import PseudoMatrix, pseudo_matrix
from .gee import (
    Link,
    IDENTITY,
    LOGIT,
    FitResult,
    estimating_function,
    jacobian,
    solve_closed_form_identity,
    solve_newton,
    fit,
    sandwich_covariance_uncensored,
)
from .inference import (
    FitSpec,
    BootstrapEnsemble,
    TestReport,
    bootstrap,
    test_coefficient,
    warp_speed,
)
from .predict import Predictions, tie_correction_term, predict_profiles
from .sim import (
    Scenario,
    make_scenario,
    simulate_dataset,
    true_theta_weibull_equal_shapes,
    warp_speed_harness,
    run_scenario,
)

__version__ = "0.1.0"
