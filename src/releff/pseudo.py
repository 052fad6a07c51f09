"""Two-sample jackknife pseudo-observations.

Each matrix entry combines the full estimate with the three leave-one-out
variants dropping subject i1 from group 1, subject i2 from group 2, or both:

    n1*n2*full - (n1-1)*n2*drop1 - n1*(n2-1)*drop2 + (n1-1)*(n2-1)*drop12

On fully observed data every entry reduces to the pair indicator
1{T1 > T2, T2 < tau}.  Entries may fall outside [0, 1] under censoring and
are never clipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival import TwoSampleDataset, kaplan_meier, leave_one_out_km, theta_integral

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
    inclusion-exclusion); under censoring all leave-one-out curves are
    evaluated on a shared grid of group-2 event times.
    """
    if data.n1 < 2 or data.n2 < 2:
        raise ValueError("pseudo-observations need at least 2 subjects per group")
    values = _indicator_matrix(data) if data.uncensored else _stieltjes_matrix(data)
    return PseudoMatrix(values=values, theta_hat=theta_hat(data))


def _indicator_matrix(data: TwoSampleDataset) -> np.ndarray:
    """Pair indicators 1{T1 > T2, T2 < tau}."""
    t1 = data.times1[:, None]
    t2 = data.times2[None, :]
    return ((t1 > t2) & (t2 < data.tau)).astype(float)


def _curve_deltas_on_grid(curve, grid: np.ndarray, tau: float) -> np.ndarray:
    """Scatter a curve's jump sizes below tau onto positions of ``grid``.

    Every jump time of a (leave-one-out) group-2 curve is a distinct
    uncensored time of the full group-2 sample, so it is present in ``grid``.
    """
    out = np.zeros(grid.size)
    jt = curve.jump_times
    delta = curve.jumps()
    mask = jt < tau
    if np.any(mask):
        idx = np.searchsorted(grid, jt[mask])
        out[idx] = delta[mask]
    return out


def _stieltjes_matrix(data: TwoSampleDataset) -> np.ndarray:
    n1, n2, tau = data.n1, data.n2, data.tau
    grid = np.unique(data.times2[data.events2 == 1])
    grid = grid[grid < tau]

    if grid.size == 0:
        # no group-2 jumps below tau anywhere: all Stieltjes sums vanish
        return np.zeros((n1, n2))

    S1_full = kaplan_meier(data.times1, data.events1)
    F1 = np.empty((n1 + 1, grid.size))
    F1[0] = S1_full(grid)
    for i1 in range(n1):
        F1[i1 + 1] = leave_one_out_km(data.times1, data.events1, i1)(grid)

    S2_full = kaplan_meier(data.times2, data.events2)
    d_full = _curve_deltas_on_grid(S2_full, grid, tau)
    D2 = np.empty((n2, grid.size))
    for i2 in range(n2):
        D2[i2] = _curve_deltas_on_grid(
            leave_one_out_km(data.times2, data.events2, i2), grid, tau
        )

    th = float(F1[0] @ d_full)
    th1 = F1[1:] @ d_full            # (n1,)
    th2 = D2 @ F1[0]                 # (n2,)
    th12 = F1[1:] @ D2.T             # (n1, n2)

    return (
        n1 * n2 * th
        - (n1 - 1) * n2 * th1[:, None]
        - n1 * (n2 - 1) * th2[None, :]
        + (n1 - 1) * (n2 - 1) * th12
    )
