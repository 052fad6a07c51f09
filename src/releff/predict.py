"""Tie-corrected probability predictions and benefit classification.

The tie correction, half the estimated probability of a tie, comes from
``pseudo.tie_correction_term``.  It is defined for the identity link, where
it enters the prediction additively; for the logit link only the plain model
prediction mu(beta'z) is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .gee import IDENTITY, LOGIT, FitResult, check_link
from .inference import BootstrapEnsemble, _two_sided_z

__all__ = ["Predictions", "predict_profiles"]


@dataclass
class Predictions:
    """Predictions with bootstrap CIs for N profiles, one entry per row."""

    point: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    interval: str                 # the CI built: emp or quantile

    @property
    def out_of_range(self) -> np.ndarray:
        """Points outside [0, 1], NaN included; they are flagged, never clamped."""
        return ~((self.point >= 0.0) & (self.point <= 1.0))

    @property
    def classification(self) -> np.ndarray:
        """Benefit label from the CI position relative to 1/2."""
        return np.where(
            self.ci_low > 0.5, "intervention-benefit",
            np.where(self.ci_high < 0.5, "control-benefit", "indeterminate"),
        )


def predict_profiles(
    fit: FitResult,
    ensemble: BootstrapEnsemble,
    Z1,
    Z2,
    link: str = IDENTITY,
    correction: Optional[float] = None,
    alpha: float = 0.05,
    method: str = "emp",
) -> Predictions:
    """Predictions with bootstrap CIs for the profiles (Z1[i], Z2[i]), given
    as (N, p1) and (N, p2) arrays.

    With a tie ``correction`` (identity link only) the point prediction is
    correction + beta1'z1 + beta2'z2: the correction replaces the intercept
    of the fitted linear model.  Without one it is mu(beta'z).

    Only the uncertainty of beta1'z1 + beta2'z2 is propagated; the tie
    correction (and the intercept in plain mode) is treated as fixed.  The
    CI is built on the scale of beta'z: there it is the center +- z * SD of
    the replicate contributions (``emp``) or the basic bootstrap interval of
    their centered quantiles (``quantile``).  For the logit link the point
    and both ends are then mapped through mu, so they lie in [0, 1].
    A link not in ``gee.LINKS`` raises ValueError.
    """
    if method not in ("emp", "quantile"):
        raise ValueError(f"unknown CI method {method!r}")
    if not fit.converged:
        raise ValueError("cannot predict from a non-converged fit")
    check_link(link)
    if correction is not None and link != IDENTITY:
        raise ValueError("the additive tie correction is defined for the identity link only")
    Z1 = np.asarray(Z1, dtype=float)
    Z2 = np.asarray(Z2, dtype=float)
    p1, p2 = Z1.shape[1], Z2.shape[1]
    s1, s2 = Z1 @ fit.beta[1 : 1 + p1], Z2 @ fit.beta[1 + p1 : 1 + p1 + p2]
    base_slope = s1 + s2
    if correction is not None:
        center = correction + base_slope
    else:
        center = fit.beta[0] + s1 + s2   # summed in the order of beta'z
    reps = ensemble.replicates[ensemble.ok]
    slopes = reps[:, 1 : 1 + p1] @ Z1.T + reps[:, 1 + p1 : 1 + p1 + p2] @ Z2.T  # (B_ok, N)
    if method == "emp":
        sd = np.std(slopes, axis=0, ddof=1) if slopes.shape[0] > 1 else np.zeros(center.shape)
        half = _two_sided_z(alpha) * sd
        low, high = center - half, center + half
    else:
        q_lo, q_hi = np.quantile(slopes - base_slope, [alpha / 2, 1 - alpha / 2], axis=0)
        low, high = center - q_hi, center - q_lo
    if link == LOGIT:
        # mu = 1 / (1 + exp(-x)); exp(-x) overflows to inf for x below about
        # -709, which gives the correct limit 0, so that is not warned about
        with np.errstate(over="ignore"):
            center, low, high = (1.0 / (1.0 + np.exp(-x)) for x in (center, low, high))
    return Predictions(point=center, ci_low=low, ci_high=high, interval=method)
