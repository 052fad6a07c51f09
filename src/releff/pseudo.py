"""Two-sample jackknife pseudo-observations.

Each matrix entry combines the full estimate with the three leave-one-out
variants dropping subject i1 from group 1, subject i2 from group 2, or both:

    n1*n2*full - (n1-1)*n2*drop1 - n1*(n2-1)*drop2 + (n1-1)*(n2-1)*drop12

On fully observed data every entry reduces to the pair indicator
1{T1 > T2, T2 < tau}.  Entries may fall outside [0, 1] under censoring and
are never clipped.

Under censoring every leave-one-out Kaplan-Meier curve of a group comes from
one cumulative product (the fast jackknife of Andersen & Perme, 2010):
dropping subject i lowers the at-risk count at each distinct event time up
to t_i by one and the death count at t_i by its event flag, so the full
curve and all n leave-one-out curves are the rows of one (n+1, K) cumprod
over the group's K distinct event times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival import TwoSampleDataset, kaplan_meier, theta_integral

__all__ = ["PseudoMatrix", "theta_hat", "pseudo_matrix"]


@dataclass(frozen=True)
class PseudoMatrix:
    """n1 x n2 pseudo-observation array with marginal means."""

    values: np.ndarray
    theta_hat: float

    @property
    def n1(self) -> int:
        return self.values.shape[0]

    @property
    def n2(self) -> int:
        return self.values.shape[1]

    @property
    def row_means(self) -> np.ndarray:
        return self.values.mean(axis=1)

    @property
    def col_means(self) -> np.ndarray:
        return self.values.mean(axis=0)

    @property
    def grand_mean(self) -> float:
        return float(self.values.mean())


def theta_hat(data: TwoSampleDataset) -> float:
    """Plug-in estimate of P(min(T1,tau) > min(T2,tau)) from the KM curves."""
    S1 = kaplan_meier(data.times1, data.events1)
    S2 = kaplan_meier(data.times2, data.events2)
    return theta_integral(S1, S2, data.tau)


def pseudo_matrix(data: TwoSampleDataset) -> PseudoMatrix:
    """Build the pseudo-observation matrix.

    On fully observed data the entries are the pair indicators (exact by
    inclusion-exclusion), whose mean is the plug-in estimate; under censoring
    all leave-one-out curves are evaluated on a shared grid of group-2 event
    times.
    """
    if data.n1 < 2 or data.n2 < 2:
        raise ValueError("pseudo-observations need at least 2 subjects per group")
    if data.uncensored:
        values = _indicator_matrix(data)
        return PseudoMatrix(values=values, theta_hat=float(values.mean()))
    return _stieltjes_matrix(data)


def _indicator_matrix(data: TwoSampleDataset) -> np.ndarray:
    """Pair indicators 1{T1 > T2, T2 < tau}."""
    t1 = data.times1[:, None]
    t2 = data.times2[None, :]
    return ((t1 > t2) & (t2 < data.tau)).astype(float)


def _leave_one_out_curves(times: np.ndarray, events: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Full and leave-one-out Kaplan-Meier curves of one group on ``grid``.

    Row 0 is the full-sample curve and row i+1 the curve without subject i,
    each evaluated right-continuously at ``grid``; shape (n+1, grid.size).
    """
    event_times = np.unique(times[events == 1])
    at_risk_each = times[:, None] >= event_times            # (n, K)
    dies_each = (times[:, None] == event_times) & (events[:, None] == 1)
    kept = np.zeros((1, event_times.size), dtype=bool)      # row 0 drops nobody
    at_risk = at_risk_each.sum(axis=0) - np.vstack((kept, at_risk_each))
    deaths = dies_each.sum(axis=0) - np.vstack((kept, dies_each))
    # an empty risk set (the dropped subject alone at the largest time) has
    # no deaths either and leaves the curve unchanged
    hazard = np.divide(deaths, at_risk, out=np.zeros(at_risk.shape), where=at_risk > 0)
    curves = np.hstack((np.ones((times.size + 1, 1)), np.cumprod(1.0 - hazard, axis=1)))
    return curves[:, np.searchsorted(event_times, grid, side="right")]


def _stieltjes_matrix(data: TwoSampleDataset) -> PseudoMatrix:
    n1, n2, tau = data.n1, data.n2, data.tau
    grid = np.unique(data.times2[data.events2 == 1])
    grid = grid[grid < tau]

    if grid.size == 0:
        # no group-2 jumps below tau anywhere: all Stieltjes sums vanish
        return PseudoMatrix(values=np.zeros((n1, n2)), theta_hat=0.0)

    F1 = _leave_one_out_curves(data.times1, data.events1, grid)
    # every group-2 jump below tau, with or without a subject, lies on the
    # grid, so the jump at grid[k] is the step from the value at grid[k-1]
    S2 = _leave_one_out_curves(data.times2, data.events2, grid)
    D2 = np.hstack((np.ones((n2 + 1, 1)), S2[:, :-1])) - S2
    d_full = D2[0]

    th = float(F1[0] @ d_full)
    th1 = F1[1:] @ d_full            # (n1,)
    th2 = D2[1:] @ F1[0]             # (n2,)
    th12 = F1[1:] @ D2[1:].T         # (n1, n2)

    values = (
        n1 * n2 * th
        - (n1 - 1) * n2 * th1[:, None]
        - n1 * (n2 - 1) * th2[None, :]
        + (n1 - 1) * (n2 - 1) * th12
    )
    return PseudoMatrix(values=values, theta_hat=th)
