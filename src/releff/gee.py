"""Estimating-equation fitting of the relative-effect regression model.

The coefficient vector beta = (beta0, beta1, beta2) solves

    0 = U(beta) = (1/(n1*n2)) * sum_{i1,i2} z * mu'(eta) * (pseudo - mu(eta)),

with z = (1, Z1[i1], Z2[i2]) and eta = beta' z.  For the identity link U is
psi - Sigma beta, where Sigma is the pair average of z z' and psi that of
z * pseudo, which needs only the grand, row and column means of the pseudo
matrix; ``solve_identity`` solves it for a stack of datasets at once.  The
logit link goes through ``solve_newton``, a damped Newton iteration on a
pseudo matrix whose rows and columns may carry multiplicities, so that a
resample is fitted on its distinct subjects; Newton fits the logit link
only.  A link is one of the two names in ``LINKS``.
``inference.FitSpec._fit_stack`` is the one place that picks the solver,
for every fit: it starts Newton at the identity-link solution mapped onto
the logit scale (``inference._logit_start``) and judges the root Newton
stops at.  A logit fit with some |beta'z| beyond SATURATED_ETA is saturated
(``max_abs_eta``).  Every Newton candidate is evaluated as (U, J) in one
sweep over row blocks of the pseudo matrix, with three block buffers of at
most BLOCK_ELEMENTS each, allocated once per fit; no other n1 x n2 array is
held.  exp(-eta) factors as u[i1] v[i2], so a candidate takes n1 + n2 exps,
and 1 + exp(-eta) is one rank-2 BLAS product per block; mu = 1 / (1 +
exp(-eta)), then mu' = mu (1 - mu) and mu'' = mu' (1 - 2 mu) follow from
mu.  A candidate whose balanced factors would leave exp(+-EXP_FACTOR_LIMIT),
which only a saturated fit reaches, is not evaluated: its score is NaN, so
the line search halves the step, and a start there ends the fit not
converged; every iterate Newton accepts has max |beta'z| <= 2
EXP_FACTOR_LIMIT = 600.  Before Newton evaluates a full step,
``_step_bound`` bounds the score there from O(n1 + n2) moments of the step
and of |z| by Taylor's theorem; when the bound certifies that max |U| would
fall below TOL and J stays negative definite, the step is taken without its
sweep (``FitResult.sweeps`` counts the sweeps taken); a step that an O(p)
Jensen pre-test already refuses costs nothing more.  The uncensored
sandwich covariance sums the pair indicators along
``pseudo._indicator_ranks``, no n1 x n2 array.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .pseudo import _indicator_ranks, matrix_working_set
from .survival import TwoSampleDataset

log = logging.getLogger("releff")

__all__ = [
    "IDENTITY",
    "LOGIT",
    "LINKS",
    "check_link",
    "FitResult",
    "solve_identity",
    "solve_newton",
    "SATURATED_ETA",
    "max_abs_eta",
    "logit_working_set",
    "sandwich_covariance_uncensored",
    "design_second_moment",
]


# the two links, by name: mu(eta) = eta or 1 / (1 + exp(-eta))
IDENTITY = "identity"
LOGIT = "logit"
LINKS = (IDENTITY, LOGIT)


def check_link(link: str) -> None:
    """Raise ValueError unless ``link`` is one of LINKS."""
    if link not in LINKS:
        raise ValueError(f"unknown link {link!r}; available: {list(LINKS)}")


@dataclass
class FitResult:
    """One fit, or a stack of N fits with a leading axis on every field but
    ``message``; ``fits[k]`` is fit k, as Python bool/int/float.
    A Newton fit also keeps ``jacobian``, the p x p Jacobian J of U at
    ``beta``, and ``sweeps``, the evaluations of (U, J) it took; a root of U
    is a maximum of the fit's potential where J is negative definite.  When
    Newton's last step is certified (``_step_bound``), ``gradient_norm`` is
    the certified upper bound on max |U(beta)| and ``jacobian`` is J at the
    previous iterate; both that J and J at ``beta`` are negative definite."""

    beta: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    used_pinv: bool = False
    message: str = ""
    jacobian: np.ndarray | None = None
    sweeps: int = 0

    def __getitem__(self, k: int) -> FitResult:
        return FitResult(self.beta[k], bool(self.converged[k]), int(self.iterations[k]),
                         float(self.gradient_norm[k]), bool(self.used_pinv[k]), self.message)


def _group_parts(beta, Z1, Z2):
    """The two parts of eta = a[i1] + b[i2]: a = b0 + Z1 b1 and b = Z2 b2."""
    p1 = Z1.shape[1]
    return beta[0] + Z1 @ beta[1 : 1 + p1], Z2 @ beta[1 + p1 : 1 + p1 + Z2.shape[1]]


def _paired_quadratic(rs, cs, cross, Z1, Z2, scratch=None):
    """sum_{i1,i2} G[i1,i2] * z z' for z = (1, Z1[i1], Z2[i2]), unnormalized,
    from the row sums ``rs``, the column sums ``cs`` and ``cross`` = Z1' G Z2
    of G; ``scratch``, if given, holds Z1 * rs and then Z2 * cs."""
    g1, g2 = slice(1, 1 + Z1.shape[1]), slice(1 + Z1.shape[1], None)
    out = np.empty((g2.start + Z2.shape[1],) * 2)
    out[0, 0] = rs.sum()
    out[g1, g2], out[g2, g1] = cross, cross.T
    for g, Z, w in ((g1, Z1, rs), (g2, Z2, cs)):
        out[0, g] = out[g, 0] = Z.T @ w
        weighted = np.empty_like(Z) if scratch is None else scratch[: Z.size].reshape(Z.shape)
        for j in range(Z.shape[1]):   # by columns: Z * w[:, None] takes a buffer of numpy's
            np.multiply(Z[:, j], w, out=weighted[:, j])
        out[g, g] = weighted.T @ Z
    return out


EPS = np.finfo(float).eps
# elements of one block buffer: a block is as many whole rows of the pseudo
# matrix as fit, at least one
BLOCK_ELEMENTS = 1 << 15
# the evaluator factors exp(-eta) while every factor's exponent stays
# within +-EXP_FACTOR_LIMIT, so that products of two factors neither
# overflow nor underflow
EXP_FACTOR_LIMIT = 300.0


def _block_rows(n1, n2):
    """Rows of one block: as many as BLOCK_ELEMENTS holds, at least one."""
    return min(n1, max(1, BLOCK_ELEMENTS // n2))


def logit_working_set(data: TwoSampleDataset) -> int:
    """Bytes of the float arrays that a logit fit of ``data`` holds at its
    peak: building the pseudo matrix (``pseudo.matrix_working_set``), or
    then the matrix and the three block buffers of its evaluator, whichever
    is larger, plus 64 vectors of length n1 + n2.  A bootstrap replicate of
    ``data`` has the same sizes and no larger jump grid, so it needs no
    more."""
    n1, n2 = data.n1, data.n2
    newton = 8 * n2 * (n1 + 3 * _block_rows(n1, n2))
    return max(matrix_working_set(data), newton) + 64 * 8 * (n1 + n2)


def _exp_factors(a, b):
    """u, v with u[i1] v[i2] = exp(-(a[i1] + b[i2])): u = exp(-(a - d)) and
    v = exp(-(b + d)), with the shift d that balances the largest exponent
    of the two.  None when that exponent exceeds EXP_FACTOR_LIMIT (or is not
    finite)."""
    high = np.maximum(a.max(), -b.min())
    low = np.maximum(-a.min(), b.max())
    if not high + low <= 2.0 * EXP_FACTOR_LIMIT:
        return None
    d = 0.5 * (high - low)
    return np.exp(-(a - d)), np.exp(-(b + d))


class _Evaluator:
    """Logit-link score and Jacobian of one pseudo matrix Y at any beta, in
    one sweep over row blocks of Y.

    A block of k rows lives in three k x n2 buffers, allocated once: mu',
    W = mu' (Y - mu) and G = mu' ((1 - 2 mu)(Y - mu) - mu'), the Jacobian
    weight, which first holds mu.  The sweep accumulates the row and column
    sums of W and G and Z1' G into buffers allocated once too; beyond the
    factors of exp(-eta) an evaluation allocates nothing of length n1 or n2.

    With ``weights`` = (w1, w2), row i1 of Y stands for w1[i1] rows and
    column i2 for w2[i2] columns of a larger matrix, whose U and J it
    returns: every row and column sum is weighted by the multiplicities of
    the other axis, the margins then by their own, and the pair mean divides
    by sum(w1) * sum(w2).  Without weights every multiplicity is 1, which
    leaves every product exact.
    """

    def __init__(self, values, Z1, Z2, weights=None):
        n1, n2 = values.shape
        self.values, self.Z1, self.Z2 = values, Z1, Z2
        ones = np.ones(max(n1, n2))
        self.w1, self.w2 = (ones[:n1], ones[:n2]) if weights is None else weights
        self.sizes = self.w1.sum(), self.w2.sum()
        self.pairs = self.sizes[0] * self.sizes[1]
        self.X1 = np.column_stack((self.w1, Z1 * self.w1[:, None]))   # the rows of (1, Z1), weighted
        self.blocks = np.empty((3, _block_rows(n1, n2), n2))
        self.row_sums = np.empty((2, n1))   # of W and G
        # (u, 1) and (v, 1)' of 1 + exp(-eta), the column sums of W and of X1' G, and
        # a scratch for a block's share of those, for J's Z * w and ``_abs_design_means``
        self.left, self.right = np.ones((n1, 2)), np.ones((2, n2))
        self.columns = np.empty((self.X1.shape[1] + 1, n2))
        self.scratch = np.empty(max(self.columns.size, Z1.size, Z2.size, 3 * max(n1, n2)))
        self.sweeps = 0
        # for ``_step_bound``: the weighted rows of (1, |Z1|) and (1, |Z2|),
        # the pair mean of x x' for x = (1, z1, z2), max |x| and
        # s = max(max Y, 1 - min Y)
        self.abs_rows = np.abs(self.X1), np.column_stack((self.w2, np.abs(Z2) * self.w2[:, None]))
        self.design = _paired_quadratic(self.w1 * self.sizes[1], self.w2 * self.sizes[0],
                                        np.outer(self.w1 @ Z1, self.w2 @ Z2), Z1, Z2) / self.pairs
        self.x_max = np.concatenate(([1.0], *(np.abs(Z).max(axis=0) for Z in (Z1, Z2))))
        self.spread = max(float(values.max()), 1.0 - float(values.min()))

    def evaluate(self, beta):
        """(U, J): the normalized score and its Jacobian at beta, or a NaN U
        and J, without a sweep, where ``_exp_factors`` cannot factor
        exp(-eta)."""
        values, Z1, Z2, X1 = self.values, self.Z1, self.Z2, self.X1
        w1, w2, columns = self.w1, self.w2, self.columns
        factors = _exp_factors(*_group_parts(beta, Z1, Z2))
        if factors is None:
            return np.full(beta.size, np.nan), np.full((beta.size, beta.size), np.nan)
        self.sweeps += 1
        self.left[:, 0], self.right[0] = factors
        rs_w, rs_g = self.row_sums
        columns.fill(0.0)
        block_columns = self.scratch[: columns.size].reshape(columns.shape)
        rows = self.blocks.shape[1]
        for start in range(0, values.shape[0], rows):
            stop = min(start + rows, values.shape[0])
            W, G, mu_prime = self.blocks[:, : stop - start]
            Y = values[start:stop]
            np.matmul(self.left[start:stop], self.right, out=G)
            mu = np.reciprocal(G, out=G)
            np.subtract(1.0, mu, out=mu_prime)
            mu_prime *= mu
            residual = np.subtract(Y, mu, out=W)
            mu *= -2.0
            mu += 1.0
            mu *= residual
            mu -= mu_prime
            mu *= mu_prime
            W *= mu_prime
            np.matmul(W, w2, out=rs_w[start:stop])
            np.matmul(G, w2, out=rs_g[start:stop])
            np.matmul(w1[start:stop], W, out=block_columns[0])
            np.matmul(X1[start:stop].T, G, out=block_columns[1:])
            columns += block_columns
        rs_w *= w1
        rs_g *= w1
        for row in columns:   # row by row: columns * w2 takes a buffer of numpy's
            row *= w2
        U = np.empty(beta.size)
        U[0], U[1 : X1.shape[1]], U[X1.shape[1] :] = rs_w.sum(), Z1.T @ rs_w, Z2.T @ columns[0]
        J = _paired_quadratic(rs_g, columns[1], columns[2:] @ Z2, Z1, Z2, self.scratch)
        return U / self.pairs, J / self.pairs


# |d^2/d eta^2 mu'(eta) (y - mu(eta))| = |mu''' (y - mu) - 3 mu' mu''|, where
# max |mu'''| = 1/8 and 3 max |mu' mu''| = 3 (1/5)^2 sqrt(1/5) < LOGIT_CURVATURE
# (at mu (1 - mu) = 1/5)
LOGIT_CURVATURE = 0.0537
# a step is certified when its bound is below this share of TOL
CERTIFIED_SHARE = 0.9


def _abs_design_means(evaluator: _Evaluator, a, b):
    """pairmean(w |x_k|) and pairmean(w |x_k| (a[i1] + b[i2])^2) for each
    entry k of x = (1, z1, z2), from the group means of |x_k|, |x_k| a^2
    and |x_k| a over the columns of (1, |Z1|), and of |x_k|, |x_k| b^2 and
    |x_k| b over those of (1, |Z2|)."""
    means = []
    for abs_rows, x, size in zip(evaluator.abs_rows, (a, b), evaluator.sizes):
        moments = evaluator.scratch[: 3 * x.size].reshape(x.size, 3)   # (1, x^2, x)
        moments[:, 0], moments[:, 1], moments[:, 2] = 1.0, x * x, x
        means.append((abs_rows.T @ moments).T / size)
    (m1, A2, A1), (m2, B2, B1) = means
    return (np.concatenate((m1, m2[1:])),
            np.concatenate((A2 + 2 * A1 * B1[0] + m1 * B2[0],
                            A2[0] * m2[1:] + 2 * A1[0] * B1[1:] + B2[1:])))


def _step_bound(evaluator: _Evaluator, beta, U, J, step):
    """An a posteriori bound on max |U(beta + step)| for Newton's full step
    from beta, in O(n1 + n2) (Kantorovich, 1948; Ortega & Rheinboldt,
    1970), if it is below CERTIFIED_SHARE * TOL and J is negative definite
    at beta and at beta + step, else None.

    Along the step eta moves by d = a[i1] + b[i2] (``_group_parts`` of the
    step).  The summand f = mu'(eta) (y - mu(eta)) of U has |f| <= F,
    |f'| <= S and |f''| <= g: F = s/4, S = s/8 + 1/16 and g = s/8 +
    LOGIT_CURVATURE, with s = max(max Y, 1 - min Y) >= |y - mu|.  With
    x = (1, z1, z2) and D = pairmean(w x x'), Taylor gives

        |U_k(beta + step)| <= |U + J step|_k + g/2 pairmean(w |x_k| d^2),
        -g max|d| D <= J(beta + step) - J <= g max|d| D,

    with the pair mean from group means (``_abs_design_means``) and
    max|d| <= max|a| + max|b|.  Both carry the rounding of the sweeps behind
    U and J and behind their values at beta + step: a pair mean of n1 n2
    terms rounds by at most (n1 + n2 + 32) eps times their mean magnitude,
    and eta by (p + 2) eps max|x|'|beta|, which moves f by S and f' by g
    times that; a Jacobian entry (k, l) so rounds by a share of
    sqrt(D_kk D_ll), which is at most p times that share of diag(D) as a
    quadratic form.  Where -J - g max|d| D less that rounding has a Cholesky
    factor, both evaluated Jacobians are negative definite.  A score bound
    scales with its own covariate and the Cholesky test with none.  A step
    whose intercept bound fails already with pairmean(w d^2) >=
    (pairmean(w x)' step)^2 (Jensen) stops after O(p) work."""
    ev, margin = evaluator, CERTIFIED_SHARE * TOL
    spread = ev.spread
    f_max, slope, curvature = spread / 4, spread / 8 + 1 / 16, spread / 8 + LOGIT_CURVATURE
    # a step that overflows gives a bound that is not finite and certifies nothing
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(U + J @ step)
        if not max(residual.max(),
                   residual[0] + 0.5 * curvature * (ev.design[0] @ step) ** 2) < margin:
            return None
        a, b = _group_parts(step, ev.Z1, ev.Z2)
        means, square = _abs_design_means(ev, a, b)
        eta_max = ev.x_max @ np.maximum(np.abs(beta), np.abs(beta + step))
        sweep = (a.size + b.size + 32) * EPS
        eta_error = (beta.size + 2) * EPS * eta_max
        rounding = 2 * (sweep * f_max + slope * eta_error) * means
        bound = float(np.max(residual + 0.5 * curvature * square + rounding))
        if not bound < margin:
            return None
        drift = curvature * (np.abs(a).max() + np.abs(b).max())
        jacobian_rounding = 2 * beta.size * (sweep * slope + curvature * eta_error)
        try:
            np.linalg.cholesky(-J - drift * ev.design
                               - jacobian_rounding * np.diag(np.diag(ev.design)))
        except np.linalg.LinAlgError:
            return None
    return bound


def design_second_moment(Z1, Z2) -> np.ndarray:
    """Average over all pairs of the outer product of (1, z1, z2); leading
    axes of Z1 (..., n1, p1) and Z2 (..., n2, p2) index datasets."""
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    n1, p1 = Z1.shape[-2:]
    n2, p2 = Z2.shape[-2:]
    # moments that overflow are inf or NaN, which ``solve_identity`` leaves
    # unsolved; numpy is not let warn about them
    with np.errstate(over="ignore", invalid="ignore"):
        # mean(axis=-2) bit for bit: einsum adds the rows in that order without
        # its strided reduction; one column is a contiguous pairwise sum
        m1, m2 = (Z.mean(axis=-2) if Z.shape[-1] == 1 else np.einsum("...ip->...p", Z) / Z.shape[-2]
                  for Z in (Z1, Z2))
        g1 = slice(1, 1 + p1)
        g2 = slice(1 + p1, 1 + p1 + p2)
        out = np.empty(m1.shape[:-1] + (1 + p1 + p2, 1 + p1 + p2))
        out[..., 0, 0] = 1.0
        out[..., 0, g1] = out[..., g1, 0] = m1
        out[..., 0, g2] = out[..., g2, 0] = m2
        out[..., g1, g1] = np.swapaxes(Z1, -1, -2) @ Z1 / n1
        out[..., g2, g2] = np.swapaxes(Z2, -1, -2) @ Z2 / n2
        cross = m1[..., :, None] * m2[..., None, :]
    out[..., g1, g2] = cross
    out[..., g2, g1] = np.swapaxes(cross, -1, -2)
    return out


# a design is certified full rank when its lower bound on the smallest
# eigenvalue clears matrix_rank's tolerance by this factor, which absorbs the
# rounding of the LU determinant and of eigvalsh
RANK_CERTIFICATE_MARGIN = 1e6


def _full_rank_certified(Sigma) -> np.ndarray:
    """Which of the finite p x p second moments ``Sigma`` (N, p, p) are full
    rank as ``np.linalg.matrix_rank(Sigma, hermitian=True)`` counts ranks,
    certified without eigenvalues; False means undecided.

    For a PSD Sigma every eigenvalue is at most tr Sigma, and by AM-GM on
    the other p - 1 the smallest is at least det Sigma ((p - 1) / tr Sigma)^(p - 1).
    matrix_rank's tolerance is at most p eps tr Sigma, so a bound above
    RANK_CERTIFICATE_MARGIN times that certifies full rank.  The test is taken
    in logs, so nothing overflows."""
    p = Sigma.shape[-1]
    # an exactly singular Sigma has sign 0 and logdet -inf, and a trace that
    # overflows or is not positive gives a bound that is not finite: neither
    # certifies anything
    with np.errstate(all="ignore"):
        sign, logdet = np.linalg.slogdet(Sigma)
        log_trace = np.log(np.trace(Sigma, axis1=-2, axis2=-1))
        # (p - 1) log(p - 1) is 0 at p = 1 and p = 2
        log_bound = logdet + (p - 1) * np.log(max(p - 1, 1)) - p * log_trace
    return (sign > 0) & (log_bound > np.log(RANK_CERTIFICATE_MARGIN * p * EPS))


def solve_identity(row_means, col_means, Z1, Z2, strict_singular: bool = False) -> FitResult:
    """Exact identity-link fits of N datasets, as a stack of fits, from their
    pseudo-matrix marginals: row means (N, n1), column means (N, n2) and
    covariates (N, n1, p1), (N, n2, p2); ``gradient_norm`` is max |psi - Sigma beta|.

    A rank-deficient design, as ``np.linalg.matrix_rank(Sigma,
    hermitian=True)`` counts ranks, is solved by pseudo-inverse
    (``used_pinv``), or with ``strict_singular`` left unsolved: NaN
    coefficients, ``converged`` False.  Only designs that a determinant
    bound (``_full_rank_certified``) does not certify full rank go to
    ``matrix_rank``; the decisions are the same.  A design whose second
    moments overflow is left unsolved with NaN coefficients.
    """
    n1, n2 = row_means.shape[-1], col_means.shape[-1]
    Sigma = design_second_moment(Z1, Z2)
    psi = np.concatenate(
        (
            row_means.mean(axis=-1, keepdims=True),
            (row_means[:, None, :] @ Z1)[:, 0] / n1,
            (col_means[:, None, :] @ Z2)[:, 0] / n2,
        ),
        axis=-1,
    )
    finite = np.isfinite(Sigma).all(axis=(-2, -1))
    deficient = np.zeros(finite.shape, dtype=bool)
    uncertain = np.flatnonzero(finite)
    uncertain = uncertain[~_full_rank_certified(Sigma[uncertain])]
    if uncertain.size:
        deficient[uncertain] = (np.linalg.matrix_rank(Sigma[uncertain], hermitian=True)
                                < psi.shape[-1])
    beta = np.full(psi.shape, np.nan)
    full = finite & ~deficient
    if full.any():
        beta[full] = np.linalg.solve(Sigma[full], psi[full][..., None])[..., 0]
    used_pinv = deficient & (not strict_singular)
    if used_pinv.any():
        beta[used_pinv] = (np.linalg.pinv(Sigma[used_pinv]) @ psi[used_pinv][..., None])[..., 0]
    residual = psi - (Sigma @ beta[..., None])[..., 0]
    return FitResult(beta, ~(deficient & strict_singular), np.zeros(len(beta), dtype=int),
                     np.max(np.abs(residual), axis=-1), used_pinv)


# Newton's limits: max |U| below TOL, MAX_ITER iterations, MAX_HALVINGS halvings a step
TOL, MAX_ITER, MAX_HALVINGS = 1e-10, 50, 10
# a logit fit with some |beta'z| beyond this is saturated: there mu' < 1e-13,
# three orders below TOL, so the score no longer pins beta (the data are
# (quasi-)separated and the MLE does not exist; Albert & Anderson, 1984)
SATURATED_ETA = 30.0


def max_abs_eta(beta, Z1, Z2) -> float:
    """max over all pairs of |beta'z|, from the extremes of the two group
    parts of eta = a[i1] + b[i2] in O(n1 + n2)."""
    a, b = _group_parts(beta, Z1, Z2)
    return float(max(abs(a.max() + b.max()), abs(a.min() + b.min())))


def solve_newton(matrix: np.ndarray, Z1, Z2, *, x0=None, weights=None) -> FitResult:
    """Damped Newton iteration on the logit-link estimating function of the
    n1 x n2 pseudo-observation array ``matrix`` from ``x0`` (zeros if None),
    within the fixed limits TOL, MAX_ITER and MAX_HALVINGS.

    ``weights`` = (w1, w2), if given, are the multiplicities of the rows and
    columns: the fit is that of the matrix with row i1 repeated w1[i1] times
    and column i2 w2[i2] times (see ``_Evaluator``).  Non-convergence is
    reported honestly: the last iterate is returned with
    ``converged=False``.  A candidate whose exp(-eta) ``_exp_factors``
    cannot factor, as at any |beta'z| above 2 EXP_FACTOR_LIMIT, is rejected
    as one that does not lower max |U| is; a start there is returned not
    converged after 0 sweeps.
    """
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    p = 1 + Z1.shape[1] + Z2.shape[1]
    beta = np.zeros(p) if x0 is None else np.array(x0, dtype=float)
    n1, n2 = matrix.shape
    if Z1.shape[0] != n1 or Z2.shape[0] != n2:
        raise ValueError("covariate rows do not match pseudo-matrix dimensions")
    if weights is not None and (np.shape(weights[0]) != (n1,) or np.shape(weights[1]) != (n2,)):
        raise ValueError("weights do not match pseudo-matrix dimensions")
    if beta.shape != (p,):
        raise ValueError(f"beta must have length {p}, got {beta.shape}")
    evaluator = _Evaluator(matrix, Z1, Z2, weights)

    used_pinv = False
    U, J = evaluator.evaluate(beta)
    norm = float(np.max(np.abs(U)))
    if not np.isfinite(norm):
        return FitResult(beta, False, 0, norm, message="start out of range")
    for it in range(1, MAX_ITER + 1):
        if norm < TOL:
            return FitResult(beta, True, it - 1, norm, used_pinv=used_pinv,
                             jacobian=J, sweeps=evaluator.sweeps)
        try:
            step = np.linalg.solve(J, -U)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(J) @ (-U)
            used_pinv = True
        bound = _step_bound(evaluator, beta, U, J, step)
        if bound is not None:
            # the full step, as the line search below would take it and stop
            log.debug("newton iterate %d: norm %.3e certified, step scale 1", it, bound)
            return FitResult(beta + step, True, it, bound, used_pinv=used_pinv,
                             jacobian=J, sweeps=evaluator.sweeps)
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = beta + scale * step
            U_cand, J_cand = evaluator.evaluate(cand)
            cand_norm = float(np.max(np.abs(U_cand)))
            if np.isfinite(cand_norm) and cand_norm < norm:
                beta, U, J, norm = cand, U_cand, J_cand, cand_norm
                log.debug("newton iterate %d: norm %.3e, step scale %g", it, norm, scale)
                break
            scale *= 0.5
        else:
            return FitResult(beta, False, it, norm, used_pinv=used_pinv, jacobian=J,
                             sweeps=evaluator.sweeps, message="line search stalled")
    converged = norm < TOL
    return FitResult(beta, converged, MAX_ITER, norm, used_pinv=used_pinv, jacobian=J,
                     sweeps=evaluator.sweeps, message="" if converged else "max iterations reached")


def _indicator_products(data: TwoSampleDataset, X1, X2):
    """D X2 and D' X1 for the pair indicators D = 1{T1 > T2, T2 < tau} of
    fully observed ``data``, without building D: row i1 of D X2 sums X2 over
    T2 < min(T1[i1], tau), a prefix sum over group 2 sorted by time, and row
    i2 of D' X1 sums X1 over T1 > T2[i2], a suffix sum over group 1 sorted
    by time, or is 0 where T2[i2] >= tau (``pseudo._indicator_ranks``)."""
    merged, rows, cols = _indicator_ranks(data.times1, data.times2, data.tau)
    o1, o2 = merged[merged < data.n1], merged[merged >= data.n1] - data.n1
    prefix = np.concatenate((np.zeros((1, X2.shape[1])), np.cumsum(X2[o2], axis=0)))
    suffix = np.concatenate((np.cumsum(X1[o1][::-1], axis=0)[::-1], np.zeros((1, X1.shape[1]))))
    return prefix[rows], suffix[data.n1 - cols]


def _shared_row_column_meat(RX2, RtX1, Z1, Z2):
    """Covariance blocks of pair contributions R[i1,i2] * z sharing a row
    (same group-1 subject) or a column (same group-2 subject), from
    RX2 = R (1, Z2) and RtX1 = R' (1, Z1)."""
    n1, n2 = RX2.shape[0], RtX1.shape[0]
    rs, cs = RX2[:, :1], RtX1[:, :1]   # the row and column sums of R
    m = np.concatenate(([rs.sum()], Z1.T @ rs[:, 0], Z2.T @ cs[:, 0])) / (n1 * n2)
    U = np.concatenate((rs, rs * Z1, RX2[:, 1:]), axis=1)
    V = np.concatenate((cs, RtX1[:, 1:], cs * Z2), axis=1)
    omega1 = U.T @ U / (n1 * n2**2) - np.outer(m, m)
    omega2 = V.T @ V / (n1**2 * n2) - np.outer(m, m)
    return omega1, omega2


def sandwich_covariance_uncensored(data: TwoSampleDataset) -> np.ndarray:
    """Plug-in asymptotic covariance of the identity-link coefficients.

    Valid only on fully observed data, where each pair contribution is the
    indicator D = 1{T1 > T2, T2 < tau}.  The meat matrices are built from
    the fitted residuals R = D - eta, which is what the linearization
    beta_hat - beta = Sigma_hat^{-1}(Psi_hat - Sigma_hat beta) calls for;
    building them from raw indicators ignores the coupling between
    Sigma_hat and Psi_hat through the covariates and badly overestimates
    the variance whenever the covariates have nonzero second moments.
    They need only R (1, Z2) and R' (1, Z1): sorted prefix sums for D and
    rank-one terms for eta = a[i1] + b[i2], in O(n log n) time and O(n)
    memory.  Under censoring use bootstrap inference instead.
    """
    if not data.uncensored:
        raise ValueError("analytic covariance requires fully observed data; "
                         "use bootstrap inference under censoring")
    Z1, Z2 = data.covariates1, data.covariates2
    n1, n2 = data.n1, data.n2
    X1, X2 = np.column_stack((np.ones(n1), Z1)), np.column_stack((np.ones(n2), Z2))
    DX2, DtX1 = _indicator_products(data, X1, X2)
    # exact counts, so these are D's row and column means bit for bit
    beta = solve_identity(DX2[None, :, 0] / n2, DtX1[None, :, 0] / n1, Z1[None], Z2[None]).beta[0]
    a, b = _group_parts(beta, Z1, Z2)
    RX2 = DX2 - (np.outer(a, X2.sum(axis=0)) + b @ X2)
    RtX1 = DtX1 - (np.outer(b, X1.sum(axis=0)) + a @ X1)
    omega1, omega2 = _shared_row_column_meat(RX2, RtX1, Z1, Z2)
    lam = n1 / (n1 + n2)
    omega = (1.0 - lam) * omega1 + lam * omega2

    Sigma_inv = np.linalg.pinv(design_second_moment(Z1, Z2))
    cov = Sigma_inv @ omega @ Sigma_inv.T * (n1 + n2) / (n1 * n2)
    return 0.5 * (cov + cov.T)
