"""Slow reference implementations that the production code is checked against.

Each oracle recomputes a quantity from its definition, independently of the
fast path in ``releff``:

- the Kaplan-Meier curve as a step function (``SurvivalCurve``,
  ``kaplan_meier``, one factor 1 - d / r per distinct event time), the
  Stieltjes sum ``theta_integral`` and the plug-in estimate built on them,
  and the tie correction from the common jumps of two such curves;
- the pseudo-observation matrix by re-estimating all four Kaplan-Meier
  curves per pair (each leave-one-out curve by refitting the reduced
  sample);
- the potential whose gradient is the estimating function, and the
  estimating function and its Jacobian over an explicit design with one
  row per pair, with mu, mu' and mu'' of each link from ``LINK_TERMS``, a
  table of its own built on ``scipy.special.expit``;
- the Weibull relative effect by numerical quadrature;
- the damped logit Newton fit, evaluating the score of every candidate and the
  Jacobian of every step afresh;
- the identity-link fit from the means of the full pseudo matrix, and the
  fit of one dataset through that matrix, copies of a subject included,
  the logit link by unweighted Newton from the library's start;
- the saturation rule over the explicit pair design;
- the uncensored sandwich covariance from the full indicator and residual
  matrices;
- the prediction interval one profile at a time (on the scale of beta'z,
  then mapped through mu);
- the warp-speed Monte Carlo engine one run and one full pseudo matrix at a
  time, and a scenario dataset one generator call per draw;
- the distinct subjects of one group of a dataset, found by sorting its
  rows (``distinct_subjects``);
- the CLI's CSV ingestion one row at a time (``read_groups``, which
  ``cli._read_groups`` replaces in a test).

``PerRun`` turns a per-dataset maker into the chunk simulator
``inference.warp_speed`` takes.
"""

import csv
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.special import expit
from scipy.stats import norm

from releff import gee
from releff.cli import ParseFailure
from releff.gee import FitResult
from releff.inference import (
    FAILURE_CAUSES,
    METHODS,
    FitSpec,
    WarpSpeedResult,
    _logit_reference,
    _logit_start,
    scale_estimates,
)
from releff.pseudo import pseudo_matrix
from releff.sim import CENSOR_BOUNDS, TAU, Scenario
from releff.survival import TwoSampleDataset, stack_datasets


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous step function with value 1 before the first jump.

    ``values[i]`` is the value immediately after ``jump_times[i]``; values
    are non-increasing and lie in [0, 1].  Beyond the last jump the curve is
    carried flat at its last value.
    """

    jump_times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.jump_times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError("jump_times and values must be 1-d arrays of equal length")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValueError("jump times must be strictly increasing")
        if t.size and (np.any(v < -1e-15) or np.any(v > 1 + 1e-15)):
            raise ValueError("curve values must lie in [0, 1]")
        if t.size and np.any(np.diff(v) > 1e-15):
            raise ValueError("curve values must be non-increasing")
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "values", np.clip(v, 0.0, 1.0))

    def __call__(self, t):
        """Right-continuous evaluation S(t)."""
        idx = np.searchsorted(self.jump_times, t, side="right")
        padded = np.concatenate(([1.0], self.values))
        return padded[idx]

    def jumps(self):
        """Jump sizes S(t-) - S(t) >= 0 aligned with ``jump_times``."""
        pre = np.concatenate(([1.0], self.values[:-1]))
        return pre - self.values


def kaplan_meier(times, events=None) -> SurvivalCurve:
    """Product-limit estimator, one factor 1 - d / r per distinct event time;
    ``events=None`` means fully observed.

    Events at a tied time are evaluated against a risk set that includes
    subjects censored at that same time.
    """
    t = np.asarray(times, dtype=float)
    if t.size == 0:
        raise ValueError("cannot estimate a survival curve from an empty sample")
    if events is None:
        e = np.ones_like(t)
    else:
        e = np.asarray(events, dtype=float)
        if e.shape != t.shape:
            raise ValueError("times and events differ in length")
    order = np.argsort(t, kind="stable")
    ts, es = t[order], e[order]
    uniq, start = np.unique(ts, return_index=True)
    at_risk = ts.size - start
    deaths = np.add.reduceat(es, start)
    has_event = deaths > 0
    factors = 1.0 - deaths[has_event] / at_risk[has_event]
    return SurvivalCurve(uniq[has_event], np.cumprod(factors))


def theta_integral(S1: SurvivalCurve, S2: SurvivalCurve, tau: float = np.inf) -> float:
    """Stieltjes sum of -S1 dS2 over the open interval below ``tau``.

    Sums S1(t) * (S2(t-) - S2(t)) over jump points t of S2 with t < tau;
    jumps at exactly ``tau`` are excluded.
    """
    jt = S2.jump_times
    delta = S2.jumps()
    mask = jt < tau
    if not np.any(mask):
        return 0.0
    return float(np.dot(S1(jt[mask]), delta[mask]))


def tie_correction_term(S1: SurvivalCurve, S2: SurvivalCurve, tau: float) -> float:
    """Half the estimated tie probability at horizon ``tau`` from two curves:
    0.5 * [S1(tau) S2(tau) + sum over the common jump times t <= tau of the
    product of the two jumps] (boundary inclusive)."""
    if not np.isfinite(tau):
        raise ValueError("tie correction requires a finite horizon")
    plateau = float(S1(tau)) * float(S2(tau))
    t1, d1 = S1.jump_times, S1.jumps()
    t2, d2 = S2.jump_times, S2.jumps()
    common, i1, i2 = np.intersect1d(t1, t2, return_indices=True)
    keep = common <= tau
    joint = float(np.dot(d1[i1[keep]], d2[i2[keep]])) if np.any(keep) else 0.0
    return 0.5 * (plateau + joint)


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


def _logit_terms(eta):
    mu = expit(eta)
    d1 = mu * (1.0 - mu)
    return mu, d1, d1 * (1.0 - 2.0 * mu)


# link name -> eta -> (mu, mu', mu''), independent of ``releff.gee``
LINK_TERMS = {
    "identity": lambda eta: (eta, np.ones_like(eta), np.zeros_like(eta)),
    "logit": _logit_terms,
}


def objective(beta, matrix, Z1, Z2, link) -> float:
    """Potential whose gradient is the estimating function: the pair mean of
    (pseudo - mu / 2) * mu at eta = beta'z."""
    beta = np.asarray(beta, dtype=float)
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    p1 = Z1.shape[1]
    eta = beta[0] + (Z1 @ beta[1 : 1 + p1])[:, None] + (Z2 @ beta[1 + p1 :])[None, :]
    mu = LINK_TERMS[link](eta)[0]
    return float(np.mean((np.asarray(matrix, dtype=float) - 0.5 * mu) * mu))


def _pair_design(Z1, Z2) -> np.ndarray:
    """One row z = (1, Z1[i1], Z2[i2]) per pair, pairs in row-major order."""
    n1, n2 = Z1.shape[0], Z2.shape[0]
    return np.column_stack((np.ones(n1 * n2), np.repeat(Z1, n2, axis=0), np.tile(Z2, (n1, 1))))


def score(beta, matrix, Z1, Z2, link) -> np.ndarray:
    """Pair mean of z * mu'(eta) * (pseudo - mu(eta)) at eta = beta'z."""
    X = _pair_design(Z1, Z2)
    eta = X @ beta
    mu, d1, _ = LINK_TERMS[link](eta)
    return X.T @ (d1 * (np.ravel(matrix) - mu)) / eta.size


def jacobian(beta, matrix, Z1, Z2, link) -> np.ndarray:
    """Pair mean of (mu''(eta) * (pseudo - mu(eta)) - mu'(eta)^2) * z z'."""
    X = _pair_design(Z1, Z2)
    eta = X @ beta
    mu, d1, d2 = LINK_TERMS[link](eta)
    G = d2 * (np.ravel(matrix) - mu) - d1**2
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


def newton_fit(matrix, Z1, Z2, x0=None, tol=1e-10, max_iter=50,
               max_halvings=10) -> FitResult:
    """Damped Newton iteration for the logit link on the production
    evaluator ``gee._Evaluator``: the score of every candidate, and the
    Jacobian evaluated afresh at every step rather than kept from the
    accepted candidate as ``solve_newton`` does."""
    Z1 = np.atleast_2d(np.asarray(Z1, dtype=float))
    Z2 = np.atleast_2d(np.asarray(Z2, dtype=float))
    p = 1 + Z1.shape[1] + Z2.shape[1]
    if x0 is not None:
        beta = np.asarray(x0, dtype=float).copy()
    else:
        beta = np.zeros(p)

    evaluator = gee._Evaluator(matrix, Z1, Z2)
    used_pinv = False
    U = evaluator.evaluate(beta)[0]
    norm = float(np.max(np.abs(U)))
    for it in range(1, max_iter + 1):
        if norm < tol:
            return FitResult(beta, True, it - 1, norm, used_pinv=used_pinv)
        J = evaluator.evaluate(beta)[1]
        try:
            step = np.linalg.solve(J, -U)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(J) @ (-U)
            used_pinv = True
        scale = 1.0
        improved = False
        for _ in range(max_halvings + 1):
            cand = beta + scale * step
            U_cand = evaluator.evaluate(cand)[0]
            cand_norm = float(np.max(np.abs(U_cand)))
            if np.isfinite(cand_norm) and cand_norm < norm:
                beta, U, norm = cand, U_cand, cand_norm
                improved = True
                break
            scale *= 0.5
        if not improved:
            return FitResult(beta, False, it, norm, used_pinv=used_pinv,
                             message="line search stalled")
    converged = norm < tol
    return FitResult(beta, converged, max_iter, norm, used_pinv=used_pinv,
                     message="" if converged else "max iterations reached")


def prediction_interval(fit, ensemble, z1, z2, link, correction=None, alpha=0.05,
                        method="emp"):
    """Point prediction and bootstrap CI (point, low, high) of one profile:
    the interval of beta'z from the replicate contributions
    beta1*'z1 + beta2*'z2 of that profile, with the point and both ends
    mapped through the link's mu."""
    z1 = np.atleast_1d(np.asarray(z1, dtype=float))
    z2 = np.atleast_1d(np.asarray(z2, dtype=float))
    p1, p2 = z1.size, z2.size
    b0, b1, b2 = fit.beta[0], fit.beta[1 : 1 + p1], fit.beta[1 + p1 : 1 + p1 + p2]
    base = float(b1 @ z1 + b2 @ z2)
    if correction is not None:
        center = correction + base
    else:
        center = float(b0 + b1 @ z1 + b2 @ z2)
    reps = ensemble.replicates[ensemble.ok]
    slopes = reps[:, 1 : 1 + p1] @ z1 + reps[:, 1 + p1 : 1 + p1 + p2] @ z2
    if method == "emp":
        half = float(norm.ppf(1 - alpha / 2)) * scale_estimates(slopes)[0]
        low, high = center - half, center + half
    else:
        q_lo, q_hi = np.quantile(slopes - base, [alpha / 2, 1 - alpha / 2])
        low, high = center - float(q_hi), center - float(q_lo)
    return tuple(float(LINK_TERMS[link](x)[0]) for x in (center, low, high))


def resampled(data: TwoSampleDataset, idx1, idx2) -> TwoSampleDataset:
    """The dataset with group-1 rows idx1 and group-2 rows idx2."""
    return TwoSampleDataset(
        data.times1[idx1], data.events1[idx1], data.covariates1[idx1],
        data.times2[idx2], data.events2[idx2], data.covariates2[idx2],
        tau=data.tau,
    )


def stack_resampled(stack: TwoSampleDataset, idx1, idx2) -> TwoSampleDataset:
    """``stack.resampled`` by 2-D fancy indexing: dataset k takes rows
    idx1[k] and idx2[k], a stack of one once per row of the indices."""
    k = np.arange(len(stack.times1))[:, None]
    return TwoSampleDataset(
        stack.times1[k, idx1], stack.events1[k, idx1], stack.covariates1[k, idx1],
        stack.times2[k, idx2], stack.events2[k, idx2], stack.covariates2[k, idx2],
        tau=stack.tau,
    )


def design_second_moment(Z1, Z2) -> np.ndarray:
    """Average over all pairs of the outer product of (1, z1, z2), the
    column means taken by ``mean(axis=-2)``."""
    Z1, Z2 = np.atleast_2d(Z1), np.atleast_2d(Z2)
    m1, m2 = Z1.mean(axis=-2), Z2.mean(axis=-2)
    p1, p2 = m1.shape[-1], m2.shape[-1]
    g1, g2 = slice(1, 1 + p1), slice(1 + p1, 1 + p1 + p2)
    out = np.empty(m1.shape[:-1] + (1 + p1 + p2, 1 + p1 + p2))
    out[..., 0, 0] = 1.0
    out[..., 0, g1] = out[..., g1, 0] = m1
    out[..., 0, g2] = out[..., g2, 0] = m2
    out[..., g1, g1] = np.swapaxes(Z1, -1, -2) @ Z1 / Z1.shape[-2]
    out[..., g2, g2] = np.swapaxes(Z2, -1, -2) @ Z2 / Z2.shape[-2]
    out[..., g1, g2] = m1[..., :, None] * m2[..., None, :]
    out[..., g2, g1] = np.swapaxes(out[..., g1, g2], -1, -2)
    return out


def replicate_rng(seed, m):
    """The generator of run or replicate m of a loop seeded with ``seed``,
    built by numpy's own SeedSequence."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m,)))


def resample_indices(rng, n1, n2):
    """Within-group resampling with replacement, one generator call per
    group, group 1 first."""
    return rng.integers(0, n1, size=n1), rng.integers(0, n2, size=n2)


def identity_fit(matrix, Z1, Z2, strict_singular=False) -> FitResult:
    """Closed-form identity-link fit from the row and column means of a full
    pseudo matrix; LinAlgError for a design refused under ``strict_singular``."""
    fit = gee.solve_identity(matrix.mean(axis=1)[None], matrix.mean(axis=0)[None],
                             Z1[None], Z2[None], strict_singular=strict_singular)[0]
    if not fit.converged:
        raise np.linalg.LinAlgError("design second-moment matrix is singular")
    return fit


def matrix_fit(spec: FitSpec, data: TwoSampleDataset, reference=None) -> FitResult:
    """One dataset fitted through its full pseudo-observation matrix, one
    row and column per subject, copies included: the identity link in
    closed form from the matrix's means, the logit link by unweighted
    Newton started where the library starts it, at that closed form mapped
    onto the logit scale by ``inference._logit_start`` next to
    ``reference`` (the dataset's constant model if None)."""
    matrix = pseudo_matrix(data)
    start = identity_fit(matrix, data.covariates1, data.covariates2, spec.strict_singular)
    if spec.link == "identity":
        return start
    reference = reference or _logit_reference(start.beta, data.covariates1, data.covariates2)
    x0 = _logit_start(start.beta, reference)
    return gee.solve_newton(matrix, data.covariates1, data.covariates2, x0=x0)


def saturated(spec: FitSpec, fit: FitResult, data: TwoSampleDataset) -> bool:
    """Whether ``fit`` of ``data`` is a saturated logit fit: some |beta'z|
    over the explicit pair design beyond ``gee.SATURATED_ETA``."""
    if spec.link != "logit":
        return False
    eta = _pair_design(data.covariates1, data.covariates2) @ fit.beta
    return bool(np.abs(eta).max() > gee.SATURATED_ETA)


def shared_row_column_meat(R, Z1, Z2):
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
    """The sandwich covariance of the identity-link coefficients on fully
    observed data from the full indicator matrix D and residual matrix
    R = D - eta, with beta fitted from D's row and column means."""
    if not data.uncensored:
        raise ValueError(
            "analytic covariance requires fully observed data; "
            "use bootstrap inference under censoring"
        )
    Z1, Z2 = data.covariates1, data.covariates2
    n1, n2 = data.n1, data.n2
    D = pseudo_matrix(data)
    beta = gee.solve_identity(D.mean(axis=1)[None], D.mean(axis=0)[None],
                              Z1[None], Z2[None]).beta[0]
    a, b = gee._group_parts(beta, Z1, Z2)
    R = D - (a[:, None] + b)

    omega1, omega2 = shared_row_column_meat(R, Z1, Z2)
    lam = n1 / (n1 + n2)
    omega = (1.0 - lam) * omega1 + lam * omega2

    Sigma = gee.design_second_moment(Z1, Z2)
    Sigma_inv = np.linalg.pinv(Sigma)
    cov = Sigma_inv @ omega @ Sigma_inv.T * (n1 + n2) / (n1 * n2)
    return 0.5 * (cov + cov.T)


def warp_speed(make_dataset, M, seed=0, spec=None, coefficients=None, alpha=0.05):
    """Warp-speed Monte Carlo one run at a time: fit the run's dataset, draw
    one resample from the same stream and fit it, each through the full
    pseudo matrix.  A run fails, counted under the first cause that applies,
    on a singular design, a fit that does not converge or has non-finite
    coefficients, or a saturated logit fit (``saturated``)."""
    spec = spec or FitSpec()
    estimates = []
    centered = []
    singular = nonconverged = saturated_runs = 0
    for m in range(M):
        rng = replicate_rng(seed, m)
        data = make_dataset(rng)
        try:
            base = matrix_fit(spec, data)
            idx1, idx2 = resample_indices(rng, data.n1, data.n2)
            star_data = resampled(data, idx1, idx2)
            star = matrix_fit(spec, star_data)
        except np.linalg.LinAlgError:
            singular += 1
            continue
        if not (base.converged and star.converged
                and np.isfinite(base.beta).all() and np.isfinite(star.beta).all()):
            nonconverged += 1
            continue
        if saturated(spec, base, data) or saturated(spec, star, star_data):
            saturated_runs += 1
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
    failures = dict(zip(FAILURE_CAUSES, (singular, nonconverged, saturated_runs)))
    return WarpSpeedResult(rejection_rates=rates, estimates=estimates,
                           centered_replicates=centered, degenerate=degenerate,
                           failures=failures)


@dataclass(frozen=True)
class PerRun:
    """Chunk simulator from a per-dataset maker: ``make_dataset(rng)`` once
    per generator, the datasets (each n1 + n2 subjects) stacked."""

    make_dataset: Callable[[np.random.Generator], TwoSampleDataset]
    n1: int
    n2: int

    def simulate(self, rngs) -> TwoSampleDataset:
        return stack_datasets([self.make_dataset(rng) for rng in rngs])


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
    T1 = (np.exp(Z1 @ scenario.gamma1)
          * (-np.log(rng.uniform(size=scenario.n1))) ** (1.0 / scenario.k1))
    T2 = (np.exp(Z2 @ scenario.gamma2)
          * (-np.log(rng.uniform(size=scenario.n2))) ** (1.0 / scenario.k2))
    if not scenario.censored:
        return TwoSampleDataset(T1, np.ones(scenario.n1), Z1, T2, np.ones(scenario.n2), Z2,
                                tau=TAU)
    C1 = rng.uniform(0.0, CENSOR_BOUNDS[0], size=scenario.n1)
    C2 = rng.uniform(0.0, CENSOR_BOUNDS[1], size=scenario.n2)
    return TwoSampleDataset(np.minimum(T1, C1), (T1 <= C1).astype(float), Z1,
                            np.minimum(T2, C2), (T2 <= C2).astype(float), Z2,
                            tau=TAU)


def distinct_subjects(times, events, covariates):
    """The first row of each distinct subject of one group, in input order,
    and its number of copies (float): rows equal in time, status and
    covariates are copies of one subject."""
    rows = np.column_stack((times, events, covariates))
    order = np.lexsort(rows.T)      # stable, so each run of copies starts at its first row
    ranked = rows[order]
    new = np.empty(len(rows), dtype=bool)
    new[0] = True
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    first = order[starts]
    keep = np.argsort(first)
    return first[keep], np.diff(starts, append=len(rows))[keep].astype(float)


def _parse_float(text, row, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseFailure(f"row {row}, column {column!r}: not a number: {text!r}")
    if not math.isfinite(value):
        raise ParseFailure(f"row {row}, column {column!r}: not a finite number: {text!r}")
    return value


def read_groups(path, fh, config):
    """``cli._read_groups`` one row at a time: per-group lists of times,
    status and covariate rows of an open CSV file, and the numbers of the
    rows dropped as incomplete.

    Rows are numbered from 1 at the header, blank lines not counted; a cell
    beyond the end of a short row is missing, and of two columns with the
    same name the last one is read.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ParseFailure(f"{path}: empty file, header row required")
    required = {"group", "time", "status"}
    missing = required - set(header)
    if missing:
        raise ParseFailure(f"{path}: missing required columns {sorted(missing)}")
    index = {name: k for k, name in enumerate(header)}
    i_group, i_time, i_status = index["group"], index["time"], index["status"]
    covariates = {1: config.covariates1, 2: config.covariates2}
    absent = {g: [c for c in cols if c not in index] for g, cols in covariates.items()}
    cov_index = {g: [index.get(c) for c in cols] for g, cols in covariates.items()}
    groups = {1: {"t": [], "e": [], "z": []}, 2: {"t": [], "e": [], "z": []}}
    dropped = []
    row_no = 1
    for row in reader:
        if not row:
            continue
        row_no += 1
        if len(row) < len(header):
            row += [None] * (len(header) - len(row))
        label = row[i_group]
        if label not in ("1", "2"):
            raise ParseFailure(f"row {row_no}, column 'group': expected 1 or 2, got {label!r}")
        g = int(label)
        if absent[g]:
            raise ParseFailure(f"missing covariate column {absent[g][0]!r}")
        time, status = row[i_time], row[i_status]
        cells = [row[k] for k in cov_index[g]]
        if any(c is None or c.strip() == "" for c in (time, status, *cells)):
            dropped.append(row_no)
            continue
        time = _parse_float(time, row_no, "time")
        if status not in ("0", "1"):
            raise ParseFailure(
                f"row {row_no}, column 'status': expected 0 or 1, got {status!r}"
            )
        status = int(status)
        if status == 0 and time < 0:
            raise ParseFailure(
                f"row {row_no}, column 'time': negative time on a censored record"
            )
        z = [_parse_float(c, row_no, name) for c, name in zip(cells, covariates[g])]
        groups[g]["t"].append(time)
        groups[g]["e"].append(float(status))
        groups[g]["z"].append(z)
    return groups, dropped
