"""Two-sample jackknife pseudo-observations.

Each matrix entry combines the full estimate with the three leave-one-out
variants dropping subject i1 from group 1, subject i2 from group 2, or both:

    n1*n2*full - (n1-1)*n2*drop1 - n1*(n2-1)*drop2 + (n1-1)*(n2-1)*drop12

On fully observed data every entry reduces to the pair indicator
1{T1 > T2, T2 < tau}.  Entries may fall outside [0, 1] under censoring and
are never clipped.

Under censoring all leave-one-out Kaplan-Meier curves of a group come from
two prefix products (the fast jackknife of Andersen & Perme, 2010).  Sort a
group by time, events before censorings at a tied time, and give each
subject its own product-limit factor: position j has 1 - e_j / (n - j) in
the full sample and 1 - e_j / (n - 1 - j) with one earlier subject dropped
(at a tied time the per-subject factors multiply to the usual 1 - d / r).
With P_c and L_c the products of the first c factors of each kind, the
curve without the subject at position i, after c positions, is L_c for
c <= i and L_i * P_c / P_{i+1} beyond.  Only P_n can vanish (the last
subject alone at risk has an event), and it is a denominator only for
i = n - 1, where the ratio is an empty product, 1.

This one engine serves all three consumers.  ``pseudo_matrix`` gathers the
curves at the K group-2 event times below tau and writes the matrix as one
product of rank K + 2, the scaled curves with the row and column terms
appended; it writes the leave-one-out curves in row blocks, and
``matrix_working_set`` counts what the build holds at its peak.
Given some rows and columns it builds only those entries, from the
leave-one-out curves of the subjects they name in the whole dataset, so a
logit fit of a resample builds one row or column per distinct subject.
The identity-link fit needs only the matrix's row and column means: exact
pair-indicator counts on fully observed data (``_indicator_ranks``, which
the ``gee`` sandwich reads too), else prefix and suffix sums over the
leave-one-out curves, so ``pseudo_marginals`` computes them in O(n log n)
per dataset, for a stack at once, without any n1 x n2 array.
``tie_correction_term`` reads only the full-sample curves P: S(t) is P
after the positions with times <= t, S(t-) P before the first one at t.
"""

from __future__ import annotations

import numpy as np

from .survival import TwoSampleDataset

__all__ = [
    "pseudo_matrix",
    "pseudo_marginals",
    "matrix_working_set",
    "tie_correction_term",
]

# entries of one row block of leave-one-out curves in ``pseudo_matrix``
CURVE_BLOCK_ELEMENTS = 1 << 15


def pseudo_matrix(data: TwoSampleDataset, *, rows=None, cols=None) -> np.ndarray:
    """The n1 x n2 pseudo-observation matrix, or only its entries in the
    group-1 ``rows`` and group-2 ``cols`` (index arrays; None takes all).

    On fully observed data the entries are the pair indicators (exact by
    inclusion-exclusion); under censoring all leave-one-out curves are
    evaluated on a shared grid of group-2 event times.  A restricted entry
    is the entry of the whole matrix: the full estimate and the sample sizes
    are those of ``data``, and only the leave-one-out curves of the named
    subjects are built.
    """
    if data.uncensored:
        return _indicator_matrix(data, rows, cols)
    return _stieltjes_matrix(data, rows, cols)


def _indicator_matrix(data: TwoSampleDataset, rows=None, cols=None) -> np.ndarray:
    """Pair indicators 1{T1 > T2, T2 < tau} of the given rows and columns."""
    t1 = (data.times1 if rows is None else data.times1[rows])[:, None]
    t2 = (data.times2 if cols is None else data.times2[cols])[None, :]
    return ((t1 > t2) & (t2 < data.tau)).astype(float)


def _indicator_ranks(times1: np.ndarray, times2: np.ndarray, tau: float) -> tuple:
    """One stable argsort of the merged times, (n1 + n2,) or (N, n1 + n2) with
    group 1 first among ties, and from it the pair indicators' row and column
    sums in input order: #{T2 < min(T1, tau)} and #{T1 > T2} 1{T2 < tau}."""
    n1 = times1.shape[-1]
    merged = np.argsort(np.concatenate((times1, times2), axis=-1), axis=-1, kind="stable")
    in2 = merged >= n1
    # c[p] group-2 subjects up to merged position p: a group-1 subject there has
    # c[p] of them before it, a group-2 one n1 - 1 - p + c[p] group-1 ones after
    c = np.cumsum(in2, axis=-1)
    c += in2 * np.arange(n1 - 1, n1 - 1 - in2.shape[-1], -1)
    counts = np.empty(merged.shape, dtype=merged.dtype)
    counts.reshape(-1)[merged + _row_offsets(merged)] = c
    below_tau = times2 < tau
    rows = np.minimum(counts[..., :n1], np.count_nonzero(below_tau, axis=-1)[..., None])
    return merged, rows, counts[..., n1:] * below_tau


def _row_offsets(a: np.ndarray) -> np.ndarray:
    """The offset of each row of ``a`` (..., n) in its C-order flat view, to
    add to indices along the last axis: a gather along it is then one
    ``take``, a scatter one assignment to the ``reshape(-1)`` view."""
    n = a.shape[-1]
    return n * np.arange(a.size // n).reshape(a.shape[:-1] + (1,))


def _jump_grid(data: TwoSampleDataset) -> np.ndarray:
    """The distinct group-2 event times below tau."""
    grid = np.unique(data.times2[data.events2 == 1])
    return grid[grid < data.tau]


def matrix_working_set(data: TwoSampleDataset) -> int:
    """Bytes of the float arrays that ``pseudo_matrix(data)`` holds at its
    peak, the returned matrix included.

    Fully observed data take the matrix and two boolean n1 x n2 arrays.
    Under censoring, with K the size of the jump grid, the group-1 curves
    (n1 + 1, K + 2), two columns spare for the product's factors, are held
    throughout; then either the group-2 curves (n2 + 1, K) and their jumps
    (n2 + 1, K + 2), or the jumps and the matrix; and the row blocks of
    ``_SortedLeaveOneOut.curves``, at most five of CURVE_BLOCK_ELEMENTS
    each.
    """
    n1, n2 = data.n1, data.n2
    if data.uncensored:
        return 10 * n1 * n2
    K = _jump_grid(data).size
    held = (n1 + 1) * (K + 2) + (n2 + 1) * (K + 2) + max((n2 + 1) * K, n1 * n2)
    return 8 * (held + 5 * CURVE_BLOCK_ELEMENTS)


def _stieltjes_matrix(data: TwoSampleDataset, rows=None, cols=None) -> np.ndarray:
    n1, n2 = data.n1, data.n2
    grid = _jump_grid(data)

    if grid.size == 0:
        # no group-2 jumps below tau anywhere: all Stieltjes sums vanish
        return np.zeros((n1 if rows is None else len(rows), n2 if cols is None else len(cols)))

    # the matrix is one rank-(K + 2) product (its products by 1 are exact):
    # left = ((n1-1)(n2-1) F1, the row term, 1), right = (D2, 1, the column
    # term).  F1 and D2 carry two spare columns for the extra terms, so the
    # factors are their rows written in place and the build holds no array
    # beyond the curves, their jumps and the matrix
    K = grid.size
    F1 = _SortedLeaveOneOut(data.times1, data.events1).curves(grid, rows, spare=2)
    # every group-2 jump below tau, with or without a subject, lies on the
    # grid, so the jump at grid[k] is the step from the value at grid[k-1]
    S2 = _SortedLeaveOneOut(data.times2, data.events2).curves(grid, cols)
    D2 = np.empty((S2.shape[0], K + 2))
    np.subtract(1.0, S2[:, 0], out=D2[:, 0])
    np.subtract(S2[:, :-1], S2[:, 1:], out=D2[:, 1:K])
    del S2
    th = float(F1[0, :K] @ D2[0, :K])
    th1 = F1[1:, :K] @ D2[0, :K]     # one per row
    th2 = D2[1:, :K] @ F1[0, :K]     # one per column

    left, right = F1[1:], D2[1:]
    left[:, :K] *= (n1 - 1) * (n2 - 1)
    left[:, K] = n1 * n2 * th - (n1 - 1) * n2 * th1
    left[:, K + 1] = 1.0
    right[:, K] = 1.0
    right[:, K + 1] = -(n1 * (n2 - 1) * th2)
    return left @ right.T


def _cumprod_from_one(factors: np.ndarray) -> np.ndarray:
    out = np.ones(factors.shape[:-1] + (factors.shape[-1] + 1,))
    np.cumprod(factors, axis=-1, out=out[..., 1:])
    return out


class _SortedLeaveOneOut:
    """The full and leave-one-out Kaplan-Meier curves of one group in each of
    N datasets, kept as the prefix products P and L of the module docstring;
    times and events are (N, n), or (n,) for one dataset.

    Column c of a curve is its value after the first c sorted positions; row
    i of the implied (n, n+1) matrix G is the curve without the subject at
    sorted position i.
    """

    def __init__(self, times: np.ndarray, events: np.ndarray):
        self.order = np.lexsort((-events, times), axis=-1)
        flat = self.order + _row_offsets(self.order)
        self.times = times.take(flat)
        e = events.take(flat)
        n = self.n = e.shape[-1]
        j = np.arange(n)
        self.P = _cumprod_from_one(1.0 - e / (n - j))
        # L uses the factor at j only for j < i <= n - 1, never the last one
        self.L = _cumprod_from_one(1.0 - e / np.maximum(n - 1 - j, 1))

    def curves(self, grid: np.ndarray, subjects=None, spare: int = 0) -> np.ndarray:
        """Full and leave-one-out curves of one dataset (1-D times) at
        ``grid``, right-continuous, shape (1 + m, grid.size + spare): row 0
        is the full-sample curve and row k+1 the curve without input subject
        subjects[k] (every subject, m = n, if None); the ``spare`` columns
        after the curves are left unset.  The leave-one-out rows are built
        in blocks of at most CURVE_BLOCK_ELEMENTS entries."""
        P, L, n = self.P, self.L, self.n
        position = np.empty(n, dtype=np.intp)
        position[self.order] = np.arange(n)
        if subjects is not None:
            position = position[subjects]
        c = np.searchsorted(self.times, grid, side="right")
        Pc = P[c]
        out = np.empty((1 + position.size, c.size + spare))
        out[0, : c.size] = Pc
        rows = max(1, CURVE_BLOCK_ELEMENTS // max(c.size, 1))
        for start in range(0, position.size, rows):
            i = position[start : start + rows, None]
            # P_{i+1} = 0 only for i = n - 1, where the ratio is an empty product
            beyond = (c > i) & (i < n - 1)
            ratio = np.divide(Pc, P[i + 1], out=np.ones(beyond.shape), where=beyond)
            out[1 + start : 1 + start + i.shape[0], : c.size] = L[np.minimum(c, i)] * ratio
        return out

    def curve(self, t, side: str = "right"):
        """The full-sample curve of one dataset at t: S(t), or S(t-) with
        side="left"."""
        return self.P[np.searchsorted(self.times, t, side=side)]

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


def pseudo_marginals(stack: TwoSampleDataset) -> tuple:
    """Row means (N, n1) and column means (N, n2) of the pseudo-observation
    matrices of the N datasets of ``stack``, without building the matrices.

    Entry (i1, i2) of a matrix is
    n1 n2 th - (n1-1) n2 th1[i1] - n1 (n2-1) th2[i2] + (n1-1)(n2-1) th12[i1, i2]
    with th12[i1, i2] = sum_g F1^{-i1}(g) dS2^{-i2}(g) over the group-2 event
    times g < tau, so a row mean needs th1[i1] and F1^{-i1} against the mean
    group-2 jump, and a column mean th2[i2] and dS2^{-i2} against the mean
    group-1 curve.  A fully observed dataset takes exact counts (``_indicator_ranks``).
    A dataset that is not a stack raises ValueError.
    """
    stack._require_stack()
    if stack.uncensored:
        _, rows, cols = _indicator_ranks(stack.times1, stack.times2, stack.tau)
        return rows / stack.n2, cols / stack.n1
    n_sets, n1 = stack.times1.shape
    n2 = stack.n2
    g1 = _SortedLeaveOneOut(stack.times1, stack.events1)
    g2 = _SortedLeaveOneOut(stack.times2, stack.events2)
    # at[k]: group-1 times <= the k-th group-2 time, the column of the group-1 curves there
    at = n1 - _indicator_ranks(g1.times, g2.times, np.inf)[2]
    below_tau = g2.times < stack.tau

    cells = at + _row_offsets(g1.P)                              # flat cells of (N, n1 + 1)
    f = g1.P.take(cells)                                         # S1 at group-2 times
    d = (g2.P[:, :-1] - g2.P[:, 1:]) * below_tau                 # jumps of S2
    f_mean = g1.col_means().take(cells)                          # mean of F1^{-i1}
    S2_mean = g2.col_means()
    d_mean = (S2_mean[:, :-1] - S2_mean[:, 1:]) * below_tau      # mean of dS2^{-i2}
    th = np.einsum("nk,nk->n", f, d)

    # rows: weights on group-2 times, gathered onto the group-1 columns
    w1 = (n1 - 1) * ((n2 - 1) * d_mean - n2 * d)
    W1 = np.bincount(cells.ravel(), weights=w1.ravel(), minlength=n_sets * (n1 + 1))
    rows = g1.row_sums(W1.reshape(n_sets, n1 + 1))
    rows += (n1 * n2 * th - n1 * (n2 - 1) * np.einsum("nk,nk->n", d_mean, f))[:, None]
    # columns: sum_k (G[i, k] - G[i, k+1]) v_k = sum_c G[i, c] (v_c - v_{c-1})
    v = (n2 - 1) * ((n1 - 1) * f_mean - n1 * f) * below_tau
    cols = g2.row_sums(np.diff(v, axis=-1, prepend=0.0, append=0.0))
    cols += (n1 * n2 * th - (n1 - 1) * n2 * np.einsum("nk,nk->n", f_mean, d))[:, None]

    row_means = np.empty(rows.shape)
    row_means.reshape(-1)[g1.order + _row_offsets(rows)] = rows
    col_means = np.empty(cols.shape)
    col_means.reshape(-1)[g2.order + _row_offsets(cols)] = cols
    observed = stack.events1.all(axis=-1) & stack.events2.all(axis=-1)
    if observed.any():
        row_means[observed], col_means[observed] = pseudo_marginals(stack[observed])
    return row_means, col_means


def tie_correction_term(data: TwoSampleDataset) -> float:
    """Half the estimated tie probability at the horizon tau, exact ties at
    common jump times plus joint survival past tau, split evenly between the
    two orderings:

        0.5 * [ S1(tau) * S2(tau) + sum_{t <= tau} dS1(t) * dS2(t) ].

    Unlike the open interval of the main estimator, the jump sum includes
    t = tau.  An infinite horizon raises ValueError.
    """
    tau = data.tau
    if not np.isfinite(tau):
        raise ValueError("tie correction requires a finite horizon")
    S1 = _SortedLeaveOneOut(data.times1, data.events1)
    S2 = _SortedLeaveOneOut(data.times2, data.events2)
    # group 2 jumps by exactly 0 at a time where it has no event
    t = np.unique(data.times1[(data.events1 == 1) & (data.times1 <= tau)])
    plateau = S1.curve(tau) * S2.curve(tau)
    joint = (S1.curve(t, "left") - S1.curve(t)) @ (S2.curve(t, "left") - S2.curve(t))
    return 0.5 * float(plateau + joint)
