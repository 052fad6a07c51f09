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
from .inference import BootstrapEnsemble
from .survival import SurvivalCurve

__all__ = [
    "Prediction",
    "Predictions",
    "tie_correction_term",
    "predict_probability",
    "predict_profiles",
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


def _out_of_range(point):
    return ~((point >= 0.0) & (point <= 1.0))


def _labels(ci_low, ci_high):
    """Benefit label from the CI position relative to 1/2."""
    return np.where(
        ci_low > 0.5, "intervention-benefit",
        np.where(ci_high < 0.5, "control-benefit", "indeterminate"),
    )


def _split(beta: np.ndarray, p1: int, p2: int):
    return beta[0], beta[1 : 1 + p1], beta[1 + p1 : 1 + p1 + p2]


def _points(fit: FitResult, Z1: np.ndarray, Z2: np.ndarray, link: Link,
            correction: Optional[float]):
    """Covariate contributions beta1'z1 + beta2'z2 and point predictions
    for profile rows (Z1[i], Z2[i])."""
    if not fit.converged:
        raise ValueError("cannot predict from a non-converged fit")
    b0, b1, b2 = _split(fit.beta, Z1.shape[1], Z2.shape[1])
    s1, s2 = Z1 @ b1, Z2 @ b2
    slope = s1 + s2
    if correction is not None:
        if link.name != "identity":
            raise ValueError("the additive tie correction is defined for the identity link only")
        return slope, correction + slope
    return slope, link.mu(b0 + s1 + s2)   # summed in the order of beta'z


@dataclass
class Predictions:
    """Predictions with bootstrap CIs for N profiles, one entry per row."""

    point: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray

    @property
    def out_of_range(self) -> np.ndarray:
        return _out_of_range(self.point)

    @property
    def classification(self) -> np.ndarray:
        return _labels(self.ci_low, self.ci_high)


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
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    _, point = _points(fit, z1[None, :], z2[None, :], link, correction)
    return Prediction(
        z1=z1, z2=z2, point=float(point[0]), out_of_range=bool(_out_of_range(point[0]))
    )


def predict_profiles(
    fit: FitResult,
    ensemble: BootstrapEnsemble,
    Z1,
    Z2,
    link: Link = IDENTITY,
    correction: Optional[float] = None,
    alpha: float = 0.05,
    method: str = "emp",
) -> Predictions:
    """Predictions with bootstrap CIs for the profiles (Z1[i], Z2[i]), given
    as (N, p1) and (N, p2) arrays.

    Only the uncertainty of beta1'z1 + beta2'z2 is propagated; the tie
    correction (and the intercept in plain mode) is treated as fixed.  The
    CI is point +- z * SD of the replicate contributions (``emp``) or the
    basic bootstrap interval of their centered quantiles (``quantile``).
    """
    if method not in ("emp", "quantile"):
        raise ValueError(f"unknown CI method {method!r}")
    Z1 = np.asarray(Z1, dtype=float)
    Z2 = np.asarray(Z2, dtype=float)
    base_slope, point = _points(fit, Z1, Z2, link, correction)
    p1, p2 = Z1.shape[1], Z2.shape[1]
    reps = ensemble.replicates[ensemble.ok]
    slopes = reps[:, 1 : 1 + p1] @ Z1.T + reps[:, 1 + p1 : 1 + p1 + p2] @ Z2.T  # (B_ok, N)
    if method == "emp":
        sd = np.std(slopes, axis=0, ddof=1) if slopes.shape[0] > 1 else np.zeros(point.shape)
        half = float(norm.ppf(1 - alpha / 2)) * sd
        return Predictions(point=point, ci_low=point - half, ci_high=point + half)
    q_lo, q_hi = np.quantile(slopes - base_slope, [alpha / 2, 1 - alpha / 2], axis=0)
    return Predictions(point=point, ci_low=point - q_hi, ci_high=point - q_lo)


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
    """``predict_profiles`` for the single profile (z1, z2)."""
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    batch = predict_profiles(fit, ensemble, z1[None, :], z2[None, :], link=link,
                             correction=correction, alpha=alpha, method=method)
    return Prediction(
        z1=z1, z2=z2, point=float(batch.point[0]),
        ci_low=float(batch.ci_low[0]), ci_high=float(batch.ci_high[0]),
        out_of_range=bool(batch.out_of_range[0]),
    )


def classify(prediction: Prediction) -> str:
    """Benefit label from the CI position relative to 1/2."""
    if prediction.ci_low is None or prediction.ci_high is None:
        raise ValueError("classification requires a confidence interval")
    return str(_labels(prediction.ci_low, prediction.ci_high))
