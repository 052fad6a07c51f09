"""Tie-corrected probability predictions and benefit classification.

The tie correction splits the estimated probability of a tie (exact ties at
common jump times plus joint survival past the horizon) evenly between the
two orderings:

    0.5 * [ S1(tau) * S2(tau) + sum_{t <= tau} dS1(t) * dS2(t) ].

It is defined for the identity link, where it enters the prediction
additively; for other links only the plain model prediction mu(beta'z) is
offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import norm

from .gee import FitResult, Link, IDENTITY
from .inference import BootstrapEnsemble, scale_estimates
from .survival import SurvivalCurve

__all__ = [
    "Prediction",
    "tie_correction_term",
    "predict_probability",
    "predict_with_ci",
    "classify",
]


@dataclass
class Prediction:
    z1: np.ndarray
    z2: np.ndarray
    point: float
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    out_of_range: bool = False

    @property
    def classification(self) -> str:
        return classify(self)


def tie_correction_term(S1: SurvivalCurve, S2: SurvivalCurve, tau: float) -> float:
    """Half the estimated tie probability at horizon ``tau``.

    Jump products are summed over common jump times t <= tau (boundary
    inclusive), unlike the open-interval convention of the main estimator.
    """
    if not np.isfinite(tau):
        raise ValueError("tie correction requires a finite horizon")
    plateau = float(S1(tau)) * float(S2(tau))
    t1, d1 = S1.jump_times, S1.jumps()
    t2, d2 = S2.jump_times, S2.jumps()
    common, i1, i2 = np.intersect1d(t1, t2, return_indices=True)
    keep = common <= tau
    joint = float(np.dot(d1[i1[keep]], d2[i2[keep]])) if np.any(keep) else 0.0
    return 0.5 * (plateau + joint)


def _split(beta: np.ndarray, p1: int, p2: int):
    return beta[0], beta[1 : 1 + p1], beta[1 + p1 : 1 + p1 + p2]


def _slope_contribution(fit: FitResult, z1, z2) -> float:
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    _, b1, b2 = _split(fit.beta, z1.size, z2.size)
    return float(b1 @ z1 + b2 @ z2)


def predict_probability(
    fit: FitResult,
    z1,
    z2,
    link: Link = IDENTITY,
    correction: Optional[float] = None,
) -> Prediction:
    """Point prediction of the conditional ordering probability.

    With a tie ``correction`` (identity link only) the prediction is
    correction + beta1'z1 + beta2'z2: the correction replaces the intercept
    of the fitted linear model.  Without one it is mu(beta'z).
    Out-of-range values are flagged, never clamped.
    """
    if not fit.converged:
        raise ValueError("cannot predict from a non-converged fit")
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    if correction is not None:
        if link.name != "identity":
            raise ValueError("the additive tie correction is defined for the identity link only")
        point = correction + _slope_contribution(fit, z1, z2)
    else:
        b0, b1, b2 = _split(fit.beta, z1.size, z2.size)
        point = float(link.mu(b0 + b1 @ z1 + b2 @ z2))
    return Prediction(
        z1=z1, z2=z2, point=point, out_of_range=not (0.0 <= point <= 1.0)
    )


def predict_with_ci(
    fit: FitResult,
    ensemble: BootstrapEnsemble,
    z1,
    z2,
    link: Link = IDENTITY,
    correction: Optional[float] = None,
    alpha: float = 0.05,
    method: str = "emp",
) -> Prediction:
    """Prediction with a bootstrap CI for the covariate contribution.

    Only the uncertainty of beta1'z1 + beta2'z2 is propagated; the tie
    correction (and the intercept in plain mode) is treated as fixed.
    """
    pred = predict_probability(fit, z1, z2, link=link, correction=correction)
    z1 = pred.z1
    z2 = pred.z2
    p1, p2 = z1.size, z2.size
    reps = ensemble.replicates[ensemble.ok]
    slopes = reps[:, 1 : 1 + p1] @ z1 + reps[:, 1 + p1 : 1 + p1 + p2] @ z2
    base_slope = _slope_contribution(fit, z1, z2)
    centered = slopes - base_slope
    if method == "emp":
        sd = scale_estimates(slopes)[0]
        z_crit = float(norm.ppf(1 - alpha / 2))
        lo, hi = pred.point - z_crit * sd, pred.point + z_crit * sd
    elif method == "quantile":
        q_lo, q_hi = np.quantile(centered, [alpha / 2, 1 - alpha / 2])
        lo, hi = pred.point - float(q_hi), pred.point - float(q_lo)
    else:
        raise ValueError(f"unknown CI method {method!r}")
    pred.ci_low, pred.ci_high = lo, hi
    return pred


def classify(prediction: Prediction) -> str:
    """Benefit label from the CI position relative to 1/2."""
    if prediction.ci_low is None or prediction.ci_high is None:
        raise ValueError("classification requires a confidence interval")
    if prediction.ci_low > 0.5:
        return "intervention-benefit"
    if prediction.ci_high < 0.5:
        return "control-benefit"
    return "indeterminate"
