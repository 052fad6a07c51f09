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

The identity-link fit needs only the matrix's row and column means, and
those follow from the same leave-one-out structure without any n1 x n2 or
(n+1) x K array.  Sort a group by time, events before censorings at a tied
time, and give each subject its own product-limit factor: position j has
1 - e_j / (n - j) in the full sample and 1 - e_j / (n - 1 - j) with one
earlier subject dropped (at a tied time the per-subject factors multiply to
the usual 1 - d / r).  With P_c and L_c the products of the first c factors
of each kind, the curve without the subject at position i, after c
positions, is L_c for c <= i and L_i * P_c / P_{i+1} beyond.  Only P_n can
vanish (the last subject alone at risk has an event), and it is a
denominator only for i = n - 1, where the ratio is an empty product, 1.
Every sum over the leave-one-out curves is therefore a prefix or suffix sum,
O(n log n) per dataset, and ``pseudo_marginals`` computes them for a stack
of datasets at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .survival import TwoSampleDataset

__all__ = ["PseudoMatrix", "PseudoMarginals", "pseudo_matrix", "pseudo_marginals"]


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

    # the (n1, n2) product th12 becomes the matrix: scaled, then the row and
    # column terms added in place
    values = F1[1:] @ D2[1:].T
    values *= (n1 - 1) * (n2 - 1)
    values += (n1 * n2 * th - (n1 - 1) * n2 * th1)[:, None]
    values -= (n1 * (n2 - 1) * th2)[None, :]
    return PseudoMatrix(values=values, theta_hat=th)


@dataclass(frozen=True)
class PseudoMarginals:
    """Row means (N, n1), column means (N, n2) and plug-in estimates (N,) of
    the pseudo-observation matrices of N datasets."""

    row_means: np.ndarray
    col_means: np.ndarray
    theta_hat: np.ndarray


def _cumprod_from_one(factors: np.ndarray) -> np.ndarray:
    out = np.ones(factors.shape[:-1] + (factors.shape[-1] + 1,))
    np.cumprod(factors, axis=-1, out=out[..., 1:])
    return out


class _SortedLeaveOneOut:
    """The full and leave-one-out Kaplan-Meier curves of one group in each of
    N datasets, kept as the prefix products P and L of the module docstring.

    Column c of a curve is its value after the first c sorted positions; row
    i of the implied (n, n+1) matrix G is the curve without the subject at
    sorted position i.
    """

    def __init__(self, times: np.ndarray, events: np.ndarray):
        self.order = np.lexsort((-events, times), axis=-1)
        self.times = np.take_along_axis(times, self.order, axis=-1)
        e = np.take_along_axis(events, self.order, axis=-1)
        n = self.n = e.shape[-1]
        j = np.arange(n)
        self.P = _cumprod_from_one(1.0 - e / (n - j))
        # L uses the factor at j only for j < i <= n - 1, never the last one
        self.L = _cumprod_from_one(1.0 - e / np.maximum(n - 1 - j, 1))

    def row_sums(self, W: np.ndarray) -> np.ndarray:
        """sum_c G[i, c] * W[c] for every left-out position i; W is (N, n+1)."""
        P, L, n = self.P, self.L, self.n
        head = np.cumsum(L[:, :n] * W[:, :n], axis=-1)
        beyond = np.cumsum((P * W)[:, ::-1], axis=-1)[:, ::-1]   # sum over c' >= c
        tail = np.empty_like(head)
        tail[:, :-1] = beyond[:, 1:-1] / P[:, 1:-1]
        tail[:, -1] = W[:, -1]
        return head + L[:, :n] * tail

    def col_means(self) -> np.ndarray:
        """Mean over left-out positions of G[:, c], shape (N, n+1)."""
        P, L, n = self.P, self.L, self.n
        ratios = np.zeros(P.shape)                 # sum_{i < min(c, n-1)} L_i / P_{i+1}
        np.cumsum(L[:, : n - 1] / P[:, 1:n], axis=-1, out=ratios[:, 1:n])
        ratios[:, n] = ratios[:, n - 1]
        G = (n - np.arange(n + 1)) * L + P * ratios
        G[:, n] += L[:, n - 1]
        return G / n


def pseudo_marginals(times1, events1, times2, events2, tau) -> PseudoMarginals:
    """Marginals of the pseudo-observation matrices of N datasets of one
    shape, without building the matrices.

    ``times*`` and ``events*`` are (N, n1) and (N, n2) arrays, ``tau`` an (N,)
    array of horizons.  Entry (i1, i2) of a matrix is
    n1 n2 th - (n1-1) n2 th1[i1] - n1 (n2-1) th2[i2] + (n1-1)(n2-1) th12[i1, i2]
    with th12[i1, i2] = sum_g F1^{-i1}(g) dS2^{-i2}(g) over the group-2 event
    times g < tau, so a row mean needs th1[i1] and F1^{-i1} against the mean
    group-2 jump, and a column mean th2[i2] and dS2^{-i2} against the mean
    group-1 curve.  Fully observed data take the same path.
    """
    n_sets, n1 = times1.shape
    n2 = times2.shape[1]
    g1 = _SortedLeaveOneOut(times1, events1)
    g2 = _SortedLeaveOneOut(times2, events2)
    # at[k]: the number of group-1 times <= the k-th group-2 time, i.e. the
    # column of the group-1 curves at that time (a stable merge puts group 1
    # first among equal times)
    merged = np.argsort(np.concatenate((g1.times, g2.times), axis=-1), axis=-1, kind="stable")
    at = np.cumsum(merged < n1, axis=-1)[merged >= n1].reshape(n_sets, n2)
    below_tau = g2.times < np.asarray(tau, dtype=float)[:, None]

    f = np.take_along_axis(g1.P, at, axis=-1)                    # S1 at group-2 times
    d = (g2.P[:, :-1] - g2.P[:, 1:]) * below_tau                 # jumps of S2
    f_mean = np.take_along_axis(g1.col_means(), at, axis=-1)     # mean of F1^{-i1}
    S2_mean = g2.col_means()
    d_mean = (S2_mean[:, :-1] - S2_mean[:, 1:]) * below_tau      # mean of dS2^{-i2}
    th = np.einsum("nk,nk->n", f, d)

    # rows: weights on group-2 times, gathered onto the group-1 columns
    w1 = (n1 - 1) * ((n2 - 1) * d_mean - n2 * d)
    cells = (at + (n1 + 1) * np.arange(n_sets)[:, None]).ravel()
    W1 = np.bincount(cells, weights=w1.ravel(), minlength=n_sets * (n1 + 1))
    rows = g1.row_sums(W1.reshape(n_sets, n1 + 1))
    rows += (n1 * n2 * th - n1 * (n2 - 1) * np.einsum("nk,nk->n", d_mean, f))[:, None]
    # columns: sum_k (G[i, k] - G[i, k+1]) v_k = sum_c G[i, c] (v_c - v_{c-1})
    v = (n2 - 1) * ((n1 - 1) * f_mean - n1 * f) * below_tau
    cols = g2.row_sums(np.diff(v, axis=-1, prepend=0.0, append=0.0))
    cols += (n1 * n2 * th - (n1 - 1) * n2 * np.einsum("nk,nk->n", f_mean, d))[:, None]

    row_means = np.empty_like(rows)
    np.put_along_axis(row_means, g1.order, rows, axis=-1)
    col_means = np.empty_like(cols)
    np.put_along_axis(col_means, g2.order, cols, axis=-1)
    return PseudoMarginals(row_means=row_means, col_means=col_means, theta_hat=th)
