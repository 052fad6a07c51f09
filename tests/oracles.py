"""Slow reference implementations that the production code is checked against.

Each oracle recomputes a quantity from its definition, independently of the
fast path in ``releff``: the plug-in estimate from the two Kaplan-Meier
curves, the pseudo-observation matrix by re-estimating all four Kaplan-Meier
curves per pair (each leave-one-out curve by refitting the reduced sample),
the potential whose gradient is the estimating function, the Weibull
relative effect by numerical quadrature, the estimating function and its
Jacobian over an explicit design with one row per pair and with every link
term from the ``Link`` functions, the damped Newton fit by re-evaluating the
public estimating function and Jacobian at every iterate,
the prediction interval one profile at a time, the warp-speed Monte
Carlo engine one run and one full pseudo matrix at a time, and a scenario
dataset one generator call per draw.  ``PerRun`` turns a per-dataset maker
into the chunk simulator ``inference.warp_speed`` takes.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from releff import gee
from releff.gee import FitResult
from releff.inference import (
    METHODS,
    DatasetStack,
    FitSpec,
    WarpSpeedResult,
    _replicate_rng,
    resample_indices,
    scale_estimates,
)
from releff.pseudo import pseudo_matrix
from releff.sim import Scenario
from releff.survival import SurvivalCurve, TwoSampleDataset, kaplan_meier, theta_integral


def theta_hat(data: TwoSampleDataset) -> float:
    """Plug-in estimate of P(min(T1,tau) > min(T2,tau)) from the KM curves."""
    S1 = kaplan_meier(data.times1, data.events1)
    S2 = kaplan_meier(data.times2, data.events2)
    return theta_integral(S1, S2, data.tau)


def leave_one_out_km(times, events, index: int) -> SurvivalCurve:
    """Kaplan-Meier estimate with the indexed subject removed."""
    t = np.asarray(times, dtype=float)
    if t.size < 2:
        raise ValueError("leave-one-out requires at least 2 subjects")
    if not 0 <= index < t.size:
        raise IndexError(f"index {index} out of range for sample of size {t.size}")
    e = np.ones_like(t) if events is None else np.asarray(events, dtype=float)
    keep = np.arange(t.size) != index
    return kaplan_meier(t[keep], e[keep])


def brute_matrix(data: TwoSampleDataset) -> np.ndarray:
    """Pseudo-observation matrix by per-pair re-estimation of all four curves."""
    n1, n2, tau = data.n1, data.n2, data.tau
    S1 = kaplan_meier(data.times1, data.events1)
    S2 = kaplan_meier(data.times2, data.events2)
    th = theta_integral(S1, S2, tau)
    values = np.empty((n1, n2))
    for i1 in range(n1):
        S1_red = leave_one_out_km(data.times1, data.events1, i1)
        th1 = theta_integral(S1_red, S2, tau)
        for i2 in range(n2):
            S2_red = leave_one_out_km(data.times2, data.events2, i2)
            th2 = theta_integral(S1, S2_red, tau)
            th12 = theta_integral(S1_red, S2_red, tau)
            values[i1, i2] = (
                n1 * n2 * th
                - (n1 - 1) * n2 * th1
                - n1 * (n2 - 1) * th2
                + (n1 - 1) * (n2 - 1) * th12
            )
    return values


def objective(beta, matrix, Z1, Z2, link) -> float:
    """Potential whose gradient is the estimating function: the pair mean of
    (pseudo - mu / 2) * mu at eta = beta'z."""
    beta = np.asarray(beta, dtype=float)
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    p1 = Z1.shape[1]
    eta = beta[0] + (Z1 @ beta[1 : 1 + p1])[:, None] + (Z2 @ beta[1 + p1 :])[None, :]
    mu = link.mu(eta)
    return float(np.mean((np.asarray(matrix, dtype=float) - 0.5 * mu) * mu))


def _pair_design(Z1, Z2) -> np.ndarray:
    """One row z = (1, Z1[i1], Z2[i2]) per pair, pairs in row-major order."""
    n1, n2 = Z1.shape[0], Z2.shape[0]
    return np.column_stack((np.ones(n1 * n2), np.repeat(Z1, n2, axis=0), np.tile(Z2, (n1, 1))))


def score(beta, matrix, Z1, Z2, link) -> np.ndarray:
    """Pair mean of z * mu'(eta) * (pseudo - mu(eta)) at eta = beta'z."""
    X = _pair_design(Z1, Z2)
    eta = X @ beta
    residual = np.ravel(matrix) - link.mu(eta)
    return X.T @ (link.mu_prime(eta) * residual) / eta.size


def jacobian(beta, matrix, Z1, Z2, link) -> np.ndarray:
    """Pair mean of (mu''(eta) * (pseudo - mu(eta)) - mu'(eta)^2) * z z'."""
    X = _pair_design(Z1, Z2)
    eta = X @ beta
    residual = np.ravel(matrix) - link.mu(eta)
    G = link.mu_double_prime(eta) * residual - link.mu_prime(eta) ** 2
    return (X * G[:, None]).T @ X / eta.size


def true_theta_weibull_numeric(lam1, k1, lam2, k2, tau=np.inf) -> float:
    """Quadrature of -int S1 dS2 for Weibull scales lam_j and shapes k_j."""

    def integrand(u):
        s1 = np.exp(-((u / lam1) ** k1))
        f2 = k2 * u ** (k2 - 1) / lam2**k2 * np.exp(-((u / lam2) ** k2))
        return s1 * f2

    upper = min(tau, max(lam1, lam2) * 60.0)
    val, _ = quad(integrand, 0.0, upper, limit=400)
    return float(val)


def newton_fit(matrix, Z1, Z2, link, x0=None, tol=1e-10, max_iter=50,
               max_halvings=10) -> FitResult:
    """Damped Newton iteration calling ``gee.estimating_function`` for every
    candidate and ``gee.jacobian`` for every step."""
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    p = 1 + Z1.shape[1] + Z2.shape[1]
    if x0 is not None:
        beta = np.asarray(x0, dtype=float).copy()
    else:
        beta = np.zeros(p)

    used_pinv = False
    U = gee.estimating_function(beta, matrix.values, Z1, Z2, link)
    norm = float(np.max(np.abs(U)))
    for it in range(1, max_iter + 1):
        if norm < tol:
            return FitResult(beta, True, it - 1, norm, "newton", used_pinv=used_pinv)
        J = gee.jacobian(beta, matrix.values, Z1, Z2, link)
        try:
            step = np.linalg.solve(J, -U)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(J) @ (-U)
            used_pinv = True
        scale = 1.0
        improved = False
        for _ in range(max_halvings + 1):
            cand = beta + scale * step
            U_cand = gee.estimating_function(cand, matrix.values, Z1, Z2, link)
            cand_norm = float(np.max(np.abs(U_cand)))
            if np.isfinite(cand_norm) and cand_norm < norm:
                beta, U, norm = cand, U_cand, cand_norm
                improved = True
                break
            scale *= 0.5
        if not improved:
            return FitResult(beta, False, it, norm, "newton", used_pinv=used_pinv,
                             message="line search stalled")
    converged = norm < tol
    return FitResult(beta, converged, max_iter, norm, "newton", used_pinv=used_pinv,
                     message="" if converged else "max iterations reached")


def prediction_interval(fit, ensemble, z1, z2, link, correction=None, alpha=0.05,
                        method="emp"):
    """Point prediction and bootstrap CI (point, low, high) of one profile,
    from the replicate contributions beta1*'z1 + beta2*'z2 of that profile."""
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    p1, p2 = z1.size, z2.size
    b0, b1, b2 = fit.beta[0], fit.beta[1 : 1 + p1], fit.beta[1 + p1 : 1 + p1 + p2]
    base = float(b1 @ z1 + b2 @ z2)
    if correction is not None:
        point = correction + base
    else:
        point = float(link.mu(b0 + b1 @ z1 + b2 @ z2))
    reps = ensemble.replicates[ensemble.ok]
    slopes = reps[:, 1 : 1 + p1] @ z1 + reps[:, 1 + p1 : 1 + p1 + p2] @ z2
    if method == "emp":
        half = float(norm.ppf(1 - alpha / 2)) * scale_estimates(slopes)[0]
        return point, point - half, point + half
    q_lo, q_hi = np.quantile(slopes - base, [alpha / 2, 1 - alpha / 2])
    return point, point - float(q_hi), point - float(q_lo)


def resampled(data: TwoSampleDataset, idx1, idx2) -> TwoSampleDataset:
    """The dataset with group-1 rows idx1 and group-2 rows idx2."""
    return TwoSampleDataset(
        data.times1[idx1], data.events1[idx1], data.covariates1[idx1],
        data.times2[idx2], data.events2[idx2], data.covariates2[idx2],
        tau=data.tau,
    )


def matrix_fit(spec: FitSpec, data: TwoSampleDataset) -> FitResult:
    """One dataset fitted through its full pseudo-observation matrix."""
    return gee.fit(pseudo_matrix(data), data.covariates1, data.covariates2, spec.link,
                   strict_singular=spec.strict_singular)


def warp_speed(make_dataset, M, seed=0, spec=None, coefficients=None, alpha=0.05):
    """Warp-speed Monte Carlo one run at a time: fit the run's dataset, draw
    one resample from the same stream and fit it, each through the full
    pseudo matrix; a run fails on a singular design, a fit that does not
    converge or non-finite coefficients."""
    spec = spec or FitSpec()
    estimates = []
    centered = []
    failed = 0
    for m in range(M):
        rng = _replicate_rng(seed, m)
        data = make_dataset(rng)
        try:
            base = matrix_fit(spec, data)
            idx1, idx2 = resample_indices(rng, data.n1, data.n2)
            star = matrix_fit(spec, resampled(data, idx1, idx2))
        except np.linalg.LinAlgError:
            failed += 1
            continue
        if not (base.converged and star.converged
                and np.isfinite(base.beta).all() and np.isfinite(star.beta).all()):
            failed += 1
            continue
        estimates.append(base.beta)
        centered.append(star.beta - base.beta)
    estimates = np.asarray(estimates)
    centered = np.asarray(centered)
    p = estimates.shape[1]
    coefficients = range(p) if coefficients is None else coefficients
    z = float(norm.ppf(1 - alpha / 2))
    rates = {name: np.full(p, np.nan) for name in METHODS}
    degenerate = False
    for k in coefficients:
        emp, iqr, mad = scale_estimates(centered[:, k])
        est = estimates[:, k]
        if emp <= 0 or iqr <= 0 or mad <= 0:
            degenerate = True
        for name, scale in (("emp", emp), ("iqr", iqr), ("mad", mad)):
            if scale > 0:
                rates[name][k] = float(np.mean(np.abs(est) / scale > z))
        q_lo, q_hi = np.quantile(centered[:, k], [alpha / 2, 1 - alpha / 2])
        rates["quantile"][k] = float(np.mean((est < q_lo) | (est > q_hi)))
    return WarpSpeedResult(rejection_rates=rates, estimates=estimates,
                           centered_replicates=centered, degenerate=degenerate, failed=failed)


@dataclass(frozen=True)
class PerRun:
    """Chunk simulator from a per-dataset maker: ``make_dataset(rng)`` once
    per generator, the datasets (each n1 + n2 subjects) stacked."""

    make_dataset: Callable[[np.random.Generator], TwoSampleDataset]
    n1: int
    n2: int

    def simulate(self, rngs) -> DatasetStack:
        return DatasetStack.of([self.make_dataset(rng) for rng in rngs])


_BIVARIATE_NORMAL = {1: [[1.0, 0.2], [0.2, 1.0]], 2: [[1.1, 0.3], [0.3, 1.1]]}


def _covariates(group, p, n, rng):
    """One group's covariates, one generator call per draw."""
    if p == 2:
        sd = 1.0 if group == 1 else np.sqrt(1.2)
        z1 = rng.standard_normal(n) * sd
        prob = 0.5 + 0.1 * np.sign(z1) if group == 1 else 0.7 - 0.05 * np.sign(z1)
        return np.column_stack((z1, rng.uniform(size=n) < prob))
    z12 = rng.multivariate_normal(np.zeros(2), np.array(_BIVARIATE_NORMAL[group]), size=n)
    prob = (0.4, 0.6) if group == 1 else (0.5 + 0.1 * np.sign(z12[:, 0]),) * 2
    z3 = rng.uniform(size=n) < prob[0]
    z4 = rng.uniform(size=n) < prob[1]
    return np.column_stack((z12, z3, z4))


def simulate_dataset(scenario: Scenario, rng) -> TwoSampleDataset:
    """A scenario dataset drawn one generator call per draw: the group-1 and
    group-2 covariates, then Weibull T1 and T2 by inversion, then uniform
    censoring C1 and C2."""
    Z1 = _covariates(1, scenario.p, scenario.n1, rng)
    Z2 = _covariates(2, scenario.p, scenario.n2, rng)
    T1 = (np.exp(scenario.gamma10 + Z1 @ scenario.gamma1)
          * (-np.log(rng.uniform(size=scenario.n1))) ** (1.0 / scenario.k1))
    T2 = (np.exp(scenario.gamma20 + Z2 @ scenario.gamma2)
          * (-np.log(rng.uniform(size=scenario.n2))) ** (1.0 / scenario.k2))
    if not scenario.censored:
        return TwoSampleDataset(T1, np.ones(scenario.n1), Z1, T2, np.ones(scenario.n2), Z2,
                                tau=scenario.tau)
    C1 = rng.uniform(0.0, scenario.censor_bounds[0], size=scenario.n1)
    C2 = rng.uniform(0.0, scenario.censor_bounds[1], size=scenario.n2)
    return TwoSampleDataset(np.minimum(T1, C1), (T1 <= C1).astype(float), Z1,
                            np.minimum(T2, C2), (T2 <= C2).astype(float), Z2,
                            tau=scenario.tau)
