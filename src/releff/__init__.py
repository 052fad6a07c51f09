"""Distribution-free regression for the relative treatment effect
P(T1 > T2 | Z1, Z2) from possibly right-censored two-sample data."""

from .survival import TwoSampleDataset
from .pseudo import pseudo_matrix, tie_correction_term
from .gee import (
    IDENTITY,
    LOGIT,
    LINKS,
    FitResult,
    solve_newton,
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
from .predict import Predictions, predict_profiles
from .sim import (
    Scenario,
    make_scenario,
    simulate_dataset,
    true_theta_weibull_equal_shapes,
    run_scenario,
)

__version__ = "0.1.0"
