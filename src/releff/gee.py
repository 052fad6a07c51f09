"""Estimating-equation fitting of the relative-effect regression model.

The coefficient vector beta = (beta0, beta1, beta2) solves

    0 = U(beta) = (1/(n1*n2)) * sum_{i1,i2} z * mu'(eta) * (pseudo - mu(eta)),

with z = (1, Z1[i1], Z2[i2]) and eta = beta' z.  For the identity link U is
psi - Sigma beta, where Sigma is the pair average of z z' and psi that of
z * pseudo, which needs only the grand, row and column means of the pseudo
matrix; ``solve_identity`` solves it for a stack of datasets at once.  Other
links go through a damped Newton iteration on the full matrix.
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


def _expit(x):
    # in place after the first product: one temporary, the same arithmetic
    # as 0.5 * (1 + tanh(x / 2))
    p = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    np.tanh(p, out=p)
    p += 1.0
    p *= 0.5
    return p


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


def _linear_predictor(beta, Z1, Z2):
    p1 = Z1.shape[1]
    p2 = Z2.shape[1]
    b0 = beta[0]
    b1 = beta[1 : 1 + p1]
    b2 = beta[1 + p1 : 1 + p1 + p2]
    return b0 + (Z1 @ b1)[:, None] + (Z2 @ b2)[None, :]


def _check_dims(beta, matrix, Z1, Z2):
    n1, n2 = matrix.shape
    if Z1.shape[0] != n1 or Z2.shape[0] != n2:
        raise ValueError("covariate rows do not match pseudo-matrix dimensions")
    p = 1 + Z1.shape[1] + Z2.shape[1]
    if beta.shape != (p,):
        raise ValueError(f"beta must have length {p}, got {beta.shape}")


def _paired_quadratic(G, Z1, Z2):
    """sum_{i1,i2} G[i1,i2] * z z' for z = (1, Z1[i1], Z2[i2]), unnormalized."""
    rs = G.sum(axis=1)
    cs = G.sum(axis=0)
    s = G.sum()
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


def _link_terms(beta, matrix, Z1, Z2, link: Link):
    """eta = beta'z, the residual matrix - mu(eta) and mu'(eta), each n1 x n2."""
    eta = _linear_predictor(beta, Z1, Z2)
    residual = matrix - link.mu(eta)
    return eta, residual, link.mu_prime(eta)


def _score(residual, mu_prime, Z1, Z2):
    n1, n2 = residual.shape
    W = mu_prime * residual
    return np.concatenate(([W.sum()], Z1.T @ W.sum(axis=1), Z2.T @ W.sum(axis=0))) / (n1 * n2)


def _jacobian_from_terms(eta, residual, mu_prime, Z1, Z2, link: Link):
    """Jacobian from ``_link_terms``; overwrites ``mu_prime``."""
    n1, n2 = residual.shape
    G = link.mu_double_prime(eta)
    G *= residual
    mu_prime *= mu_prime
    G -= mu_prime
    return _paired_quadratic(G, Z1, Z2) / (n1 * n2)


def estimating_function(beta, matrix: np.ndarray, Z1, Z2, link: Link) -> np.ndarray:
    """Normalized score U(beta); zero at the fitted coefficients."""
    beta, matrix, Z1, Z2 = _prepared(beta, matrix, Z1, Z2)
    _, residual, mu_prime = _link_terms(beta, matrix, Z1, Z2, link)
    return _score(residual, mu_prime, Z1, Z2)


def jacobian(beta, matrix: np.ndarray, Z1, Z2, link: Link) -> np.ndarray:
    """Analytic Jacobian of ``estimating_function``; symmetric."""
    beta, matrix, Z1, Z2 = _prepared(beta, matrix, Z1, Z2)
    return _jacobian_from_terms(*_link_terms(beta, matrix, Z1, Z2, link), Z1, Z2, link)


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


def solve_identity(row_means, col_means, Z1, Z2, strict_singular: bool = False) -> IdentityFits:
    """Exact identity-link solutions of N datasets from their pseudo-matrix
    marginals: row means (N, n1), column means (N, n2), covariates (N, n1, p1)
    and (N, n2, p2).

    A rank-deficient design is solved by pseudo-inverse, or with
    ``strict_singular`` left unsolved and flagged.
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
    deficient = np.linalg.matrix_rank(Sigma) < psi.shape[-1]
    beta = np.full(psi.shape, np.nan)
    full = ~deficient
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

    def evaluate(b):
        terms = _link_terms(b, values, Z1, Z2, link)
        U = _score(terms[1], terms[2], Z1, Z2)
        return U, float(np.max(np.abs(U))), terms

    # One link evaluation per iterate: the score comes from its terms, and
    # so does the Jacobian of an accepted iterate that must take another
    # step.  The terms are dropped at once, so no two iterates' n1 x n2
    # arrays are alive together.
    used_pinv = False
    U, norm, terms = evaluate(beta)
    if not norm < tol:
        J = _jacobian_from_terms(*terms, Z1, Z2, link)
    del terms
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
            U_cand, cand_norm, terms = evaluate(cand)
            if np.isfinite(cand_norm) and cand_norm < norm:
                beta, U, norm = cand, U_cand, cand_norm
                if not norm < tol and it < max_iter:
                    J = _jacobian_from_terms(*terms, Z1, Z2, link)
                improved = True
            del terms
            if improved:
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
