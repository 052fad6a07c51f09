"""Estimating-equation fitting of the relative-effect regression model.

The coefficient vector beta = (beta0, beta1, beta2) solves

    0 = U(beta) = (1/(n1*n2)) * sum_{i1,i2} z * mu'(eta) * (pseudo - mu(eta)),

with z = (1, Z1[i1], Z2[i2]) and eta = beta' z.  For the identity link U is
psi - Sigma beta, where Sigma is the pair average of z z' and psi that of
z * pseudo, which needs only the grand, row and column means of the pseudo
matrix; ``solve_identity`` solves it for a stack of datasets at once.  Other
links go through a damped Newton iteration on the full matrix.  Each Newton
fit allocates one workspace of four n1 x n2 buffers (mu, the residual, mu'
and a scratch array) and evaluates every line-search candidate and every
Jacobian in place in them.  For the logit link a candidate takes one exp:
mu = 1 / (1 + exp(-eta)), then mu' = mu (1 - mu) and mu'' = mu' (1 - 2 mu)
follow from mu.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pseudo import PseudoMatrix, _indicator_matrix
from .survival import TwoSampleDataset

log = logging.getLogger("releff")

__all__ = [
    "Link",
    "IDENTITY",
    "LOGIT",
    "FitResult",
    "IdentityFits",
    "estimating_function",
    "jacobian",
    "solve_closed_form_identity",
    "solve_identity",
    "solve_newton",
    "fit",
    "sandwich_covariance_uncensored",
    "design_second_moment",
]


@dataclass(frozen=True)
class Link:
    """Strictly increasing inverse link with its first two derivatives."""

    mu: Callable[[np.ndarray], np.ndarray]
    mu_prime: Callable[[np.ndarray], np.ndarray]
    mu_double_prime: Callable[[np.ndarray], np.ndarray]
    name: str = "custom"

    def validate(self, grid=None, rtol=1e-6):
        """Check derivative consistency by central finite differences."""
        if grid is None:
            grid = np.linspace(-3.0, 3.0, 25)
        grid = np.asarray(grid, dtype=float)
        h = 1e-5
        fd1 = (self.mu(grid + h) - self.mu(grid - h)) / (2 * h)
        fd2 = (self.mu_prime(grid + h) - self.mu_prime(grid - h)) / (2 * h)
        scale1 = np.maximum(np.abs(fd1), 1e-8)
        scale2 = np.maximum(np.abs(self.mu_double_prime(grid)), 1.0)
        if np.any(np.abs(self.mu_prime(grid) - fd1) / scale1 > rtol * 100):
            raise ValueError(f"link {self.name!r}: mu_prime inconsistent with mu")
        if np.any(np.abs(self.mu_double_prime(grid) - fd2) / scale2 > rtol * 100):
            raise ValueError(f"link {self.name!r}: mu_double_prime inconsistent with mu_prime")
        if np.any(self.mu_prime(grid) <= 0):
            raise ValueError(f"link {self.name!r}: mu_prime must be positive")


def _expit(x, out=None):
    """1 / (1 + exp(-x)) with one exp, into ``out`` if given (``x`` itself may
    be ``out``).  exp(-x) overflows to inf for x below about -709, which gives
    the correct limit 0, so that overflow is not warned about."""
    out = np.empty(np.shape(x)) if out is None else out
    with np.errstate(over="ignore"):
        np.negative(x, out=out)
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _expit_prime(x):
    p = _expit(x)
    d = 1.0 - p
    d *= p
    return d


def _expit_double_prime(x):
    p = _expit(x)
    d = 1.0 - p
    d *= p
    p *= -2.0
    p += 1.0
    d *= p
    return d


IDENTITY = Link(
    mu=lambda x: np.asarray(x, dtype=float),
    mu_prime=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    mu_double_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    name="identity",
)

LOGIT = Link(
    mu=_expit,
    mu_prime=_expit_prime,
    mu_double_prime=_expit_double_prime,
    name="logit",
)

LINKS = {"identity": IDENTITY, "logit": LOGIT}


@dataclass
class FitResult:
    beta: np.ndarray
    converged: bool
    iterations: int
    gradient_norm: float
    method: str
    used_pinv: bool = False
    message: str = ""


def _linear_predictor(beta, Z1, Z2, out=None):
    """eta = beta'z for every pair, into ``out``: the group-1 part
    a = b0 + Z1 b1 plus the group-2 part b = Z2 b2, written as the rank-2
    product (a, 1)(1, b)'.  Its products are by 1, so it rounds as the
    broadcast sum a + b does, and one BLAS call writes it several times
    faster."""
    p1 = Z1.shape[1]
    p2 = Z2.shape[1]
    b0 = beta[0]
    b1 = beta[1 : 1 + p1]
    b2 = beta[1 + p1 : 1 + p1 + p2]
    left = np.column_stack((b0 + Z1 @ b1, np.ones(Z1.shape[0])))
    right = np.vstack((np.ones(Z2.shape[0]), Z2 @ b2))
    return np.matmul(left, right, out=out)


def _check_dims(beta, matrix, Z1, Z2):
    n1, n2 = matrix.shape
    if Z1.shape[0] != n1 or Z2.shape[0] != n2:
        raise ValueError("covariate rows do not match pseudo-matrix dimensions")
    p = 1 + Z1.shape[1] + Z2.shape[1]
    if beta.shape != (p,):
        raise ValueError(f"beta must have length {p}, got {beta.shape}")


def _margins(A):
    """Row and column sums of A, as BLAS matrix-vector products."""
    return A @ np.ones(A.shape[1]), np.ones(A.shape[0]) @ A


def _paired_quadratic(G, Z1, Z2):
    """sum_{i1,i2} G[i1,i2] * z z' for z = (1, Z1[i1], Z2[i2]), unnormalized."""
    rs, cs = _margins(G)
    s = rs.sum()
    a1 = Z1.T @ rs
    a2 = Z2.T @ cs
    B11 = (Z1 * rs[:, None]).T @ Z1
    B22 = (Z2 * cs[:, None]).T @ Z2
    B12 = Z1.T @ G @ Z2
    top = np.concatenate(([s], a1, a2))
    mid = np.concatenate((a1[:, None], B11, B12), axis=1)
    bot = np.concatenate((a2[:, None], B12.T, B22), axis=1)
    return np.vstack((top, mid, bot))


def _prepared(beta, matrix, Z1, Z2):
    beta = np.asarray(beta, dtype=float)
    matrix = np.asarray(matrix, dtype=float)
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    _check_dims(beta, matrix, Z1, Z2)
    return beta, matrix, Z1, Z2


class _Workspace:
    """The four n1 x n2 buffers of one fit (mu, the residual Y - mu, mu' and
    a scratch array), allocated once and overwritten in place by every
    evaluation.

    ``score(beta)`` leaves the terms of beta in the buffers and ``jacobian()``
    reads them, so it is the Jacobian at the beta scored last.  For the logit
    link mu takes one exp and mu', mu'' follow from mu; other links go
    through their ``Link`` functions.
    """

    def __init__(self, values, Z1, Z2, link: Link):
        self.values, self.Z1, self.Z2, self.link = values, Z1, Z2, link
        self.mu, self.residual, self.mu_prime, self.scratch = np.empty((4,) + values.shape)
        self.beta = None

    def score(self, beta) -> np.ndarray:
        """Normalized score U(beta)."""
        mu, mu_prime = self.mu, self.mu_prime
        eta = _linear_predictor(beta, self.Z1, self.Z2, out=mu)
        if self.link is LOGIT:
            _expit(eta, out=mu)
            np.subtract(1.0, mu, out=mu_prime)
            mu_prime *= mu
        else:
            mu_prime[...] = self.link.mu_prime(eta)
            mu[...] = self.link.mu(eta)
        np.subtract(self.values, mu, out=self.residual)
        W = np.multiply(mu_prime, self.residual, out=self.scratch)
        rs, cs = _margins(W)
        self.beta = beta
        return np.concatenate(([rs.sum()], self.Z1.T @ rs, self.Z2.T @ cs)) / W.size

    def jacobian(self) -> np.ndarray:
        """Jacobian of U at the beta scored last: the pair mean of
        (mu'' * residual - mu'^2) z z'."""
        G = self.scratch
        if self.link is LOGIT:
            # mu'' = mu' (1 - 2 mu), so G = mu' ((1 - 2 mu) residual - mu')
            np.multiply(self.mu, -2.0, out=G)
            G += 1.0
            G *= self.residual
            G -= self.mu_prime
            G *= self.mu_prime
        else:
            eta = _linear_predictor(self.beta, self.Z1, self.Z2, out=G)
            G[...] = self.link.mu_double_prime(eta)
            G *= self.residual
            G -= self.mu_prime**2
        return _paired_quadratic(G, self.Z1, self.Z2) / G.size


def estimating_function(beta, matrix: np.ndarray, Z1, Z2, link: Link) -> np.ndarray:
    """Normalized score U(beta); zero at the fitted coefficients."""
    beta, matrix, Z1, Z2 = _prepared(beta, matrix, Z1, Z2)
    return _Workspace(matrix, Z1, Z2, link).score(beta)


def jacobian(beta, matrix: np.ndarray, Z1, Z2, link: Link) -> np.ndarray:
    """Analytic Jacobian of ``estimating_function``; symmetric."""
    beta, matrix, Z1, Z2 = _prepared(beta, matrix, Z1, Z2)
    workspace = _Workspace(matrix, Z1, Z2, link)
    workspace.score(beta)
    return workspace.jacobian()


def design_second_moment(Z1, Z2) -> np.ndarray:
    """Average over all pairs of the outer product of (1, z1, z2); leading
    axes of Z1 (..., n1, p1) and Z2 (..., n2, p2) index datasets."""
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    n1, p1 = Z1.shape[-2:]
    n2, p2 = Z2.shape[-2:]
    m1 = Z1.mean(axis=-2)
    m2 = Z2.mean(axis=-2)
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


@dataclass(frozen=True)
class IdentityFits:
    """Closed-form identity-link fits of N datasets, one row each."""

    beta: np.ndarray            # (N, p); NaN where ``singular``
    gradient_norm: np.ndarray   # (N,) max |psi - Sigma beta|, the exact |U(beta)|
    used_pinv: np.ndarray       # (N,) singular design solved by pseudo-inverse
    singular: np.ndarray        # (N,) singular design left unsolved (strict)

    def result(self, k: int = 0) -> FitResult:
        """Fit k as a FitResult; LinAlgError if its design was refused."""
        if self.singular[k]:
            raise np.linalg.LinAlgError("design second-moment matrix is singular")
        used_pinv = bool(self.used_pinv[k])
        return FitResult(
            beta=self.beta[k],
            converged=True,
            iterations=0,
            gradient_norm=float(self.gradient_norm[k]),
            method="closed-form",
            used_pinv=used_pinv,
            message="singular design, pseudo-inverse used" if used_pinv else "",
        )


def _rank(Sigma: np.ndarray) -> np.ndarray:
    """Ranks of a stack of symmetric matrices, as ``np.linalg.matrix_rank``
    counts them (singular values above max * size * eps), from the
    eigenvalues, whose magnitudes are the singular values of a symmetric
    matrix."""
    lam = np.abs(np.linalg.eigvalsh(Sigma))
    tol = lam.max(axis=-1, keepdims=True) * Sigma.shape[-1] * np.finfo(Sigma.dtype).eps
    return np.count_nonzero(lam > tol, axis=-1)


def solve_identity(row_means, col_means, Z1, Z2, strict_singular: bool = False) -> IdentityFits:
    """Exact identity-link solutions of N datasets from their pseudo-matrix
    marginals: row means (N, n1), column means (N, n2), covariates (N, n1, p1)
    and (N, n2, p2).

    A rank-deficient design is solved by pseudo-inverse, or with
    ``strict_singular`` left unsolved and flagged.  A design whose second
    moments overflow is left unsolved: its coefficients are NaN.
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
    deficient[finite] = _rank(Sigma[finite]) < psi.shape[-1]
    beta = np.full(psi.shape, np.nan)
    full = finite & ~deficient
    if full.any():
        beta[full] = np.linalg.solve(Sigma[full], psi[full][..., None])[..., 0]
    used_pinv = deficient & (not strict_singular)
    if used_pinv.any():
        beta[used_pinv] = (np.linalg.pinv(Sigma[used_pinv]) @ psi[used_pinv][..., None])[..., 0]
    residual = psi - (Sigma @ beta[..., None])[..., 0]
    return IdentityFits(
        beta=beta,
        gradient_norm=np.max(np.abs(residual), axis=-1),
        used_pinv=used_pinv,
        singular=deficient & strict_singular,
    )


def solve_closed_form_identity(
    matrix: PseudoMatrix, Z1, Z2, strict_singular: bool = False
) -> FitResult:
    """Exact identity-link solution from the marginals of ``matrix``."""
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    fits = solve_identity(
        matrix.row_means[None], matrix.col_means[None], Z1[None], Z2[None],
        strict_singular=strict_singular,
    )
    return fits.result(0)


def solve_newton(
    matrix: PseudoMatrix,
    Z1,
    Z2,
    link: Link,
    x0=None,
    tol: float = 1e-10,
    max_iter: int = 50,
    max_halvings: int = 10,
) -> FitResult:
    """Damped Newton iteration on the estimating function.

    Non-convergence is reported honestly: the last iterate is returned with
    ``converged=False``.
    """
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    p = 1 + Z1.shape[1] + Z2.shape[1]
    if x0 is not None:
        beta = np.asarray(x0, dtype=float).copy()
    else:
        beta = np.zeros(p)

    values = matrix.values
    _check_dims(beta, values, Z1, Z2)
    workspace = _Workspace(values, Z1, Z2, link)

    def evaluate(b):
        U = workspace.score(b)
        return U, float(np.max(np.abs(U)))

    # Every candidate overwrites the workspace, and a line search stops at
    # the first accepted candidate, so the Jacobian of an accepted iterate
    # that must take another step is read from the buffers it left.
    used_pinv = False
    U, norm = evaluate(beta)
    if not norm < tol:
        J = workspace.jacobian()
    for it in range(1, max_iter + 1):
        if norm < tol:
            return FitResult(beta, True, it - 1, norm, "newton", used_pinv=used_pinv)
        try:
            step = np.linalg.solve(J, -U)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(J) @ (-U)
            used_pinv = True
        scale = 1.0
        improved = False
        for _ in range(max_halvings + 1):
            cand = beta + scale * step
            U_cand, cand_norm = evaluate(cand)
            if np.isfinite(cand_norm) and cand_norm < norm:
                beta, U, norm = cand, U_cand, cand_norm
                if not norm < tol and it < max_iter:
                    J = workspace.jacobian()
                improved = True
                log.debug("newton iterate %d: norm %.3e, step scale %g", it, norm, scale)
                break
            scale *= 0.5
        if not improved:
            return FitResult(
                beta, False, it, norm, "newton",
                used_pinv=used_pinv, message="line search stalled",
            )
    converged = norm < tol
    return FitResult(
        beta, converged, max_iter, norm, "newton",
        used_pinv=used_pinv, message="" if converged else "max iterations reached",
    )


def fit(
    matrix: PseudoMatrix, Z1, Z2, link: Link = IDENTITY, strict_singular: bool = False
) -> FitResult:
    """Dispatch: closed form for the identity link, otherwise Newton started
    at the identity-link solution."""
    if link.name == "identity":
        return solve_closed_form_identity(matrix, Z1, Z2, strict_singular=strict_singular)
    return solve_newton(matrix, Z1, Z2, link, x0=solve_closed_form_identity(matrix, Z1, Z2).beta)


def _shared_row_column_meat(R, Z1, Z2):
    """Covariance blocks of pair contributions R[i1,i2] * z sharing a row
    (same group-1 subject) or a column (same group-2 subject)."""
    n1, n2 = R.shape
    rs = R.sum(axis=1)
    cs = R.sum(axis=0)
    m = np.concatenate(([R.sum()], Z1.T @ rs, Z2.T @ cs)) / (n1 * n2)
    U = np.concatenate((rs[:, None], rs[:, None] * Z1, R @ Z2), axis=1)
    V = np.concatenate((cs[:, None], R.T @ Z1, cs[:, None] * Z2), axis=1)
    omega1 = U.T @ U / (n1 * n2**2) - np.outer(m, m)
    omega2 = V.T @ V / (n1**2 * n2) - np.outer(m, m)
    return omega1, omega2


def sandwich_covariance_uncensored(data: TwoSampleDataset) -> np.ndarray:
    """Plug-in asymptotic covariance of the identity-link coefficients.

    Valid only on fully observed data, where each pair contribution is the
    indicator 1{T1 > T2, T2 < tau}.  The meat matrices are built from the
    fitted residuals, which is what the linearization
    beta_hat - beta = Sigma_hat^{-1}(Psi_hat - Sigma_hat beta) calls for;
    building them from raw indicators ignores the coupling between
    Sigma_hat and Psi_hat through the covariates and badly overestimates
    the variance whenever the covariates have nonzero second moments.
    Under censoring use bootstrap inference instead.
    """
    if not data.uncensored:
        raise ValueError(
            "analytic covariance requires fully observed data; "
            "use bootstrap inference under censoring"
        )
    Z1, Z2 = data.covariates1, data.covariates2
    n1, n2 = data.n1, data.n2
    D = _indicator_matrix(data)
    matrix = PseudoMatrix(values=D, theta_hat=float(D.mean()))
    beta = solve_closed_form_identity(matrix, Z1, Z2).beta
    R = D - _linear_predictor(beta, Z1, Z2)

    omega1, omega2 = _shared_row_column_meat(R, Z1, Z2)
    lam = n1 / (n1 + n2)
    omega = (1.0 - lam) * omega1 + lam * omega2

    Sigma = design_second_moment(Z1, Z2)
    Sigma_inv = np.linalg.pinv(Sigma)
    cov = Sigma_inv @ omega @ Sigma_inv.T * (n1 + n2) / (n1 * n2)
    return 0.5 * (cov + cov.T)
