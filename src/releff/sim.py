"""The data-generating process and the Monte Carlo scenario runner.

Event times are Weibull with subject-specific scale exp(g'Z) and a
group-specific shape; censoring times are uniform on [0, b_j] with
(b_1, b_2) = CENSOR_BOUNDS, and there is no horizon (TAU = inf).
``Scenario.simulate`` is the one data-generating process: it draws a chunk
of datasets straight into a stack.  ``simulate_dataset`` is one dataset of
it, and ``censoring_rates`` reads the event flags of one large dataset.
``run_scenario`` runs warp-speed Monte Carlo and reports rejection rates of
the bootstrap tests for the first covariate coefficient of each group, with
the number of failed runs and whether a bootstrap scale was degenerate.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .inference import warp_speed
from .survival import TwoSampleDataset, _from_checked

__all__ = [
    "Scenario",
    "make_scenario",
    "simulate_dataset",
    "true_theta_weibull_equal_shapes",
    "run_scenario",
    "censoring_rates",
    "check_reps",
    "write_result_rows",
]

CENSOR_BOUNDS = (10.0, 15.0)
TAU = np.inf

SHAPES = {"I": (2.0, 3.0), "II": (3.0, 3.0)}

# (gamma1, gamma2) per scenario; a group's first coefficient is tested, and
# H1 holds for it exactly when it is nonzero
_SCENARIO_GAMMAS = {
    "i": ((0.0, 0.0), (0.0, 0.0)),
    "ii": ((0.2, 0.0), (0.0, 0.5)),
    "iii": ((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    "iv": ((0.0, 0.2, 0.4, 0.6), (-0.2, 0.4, -0.6, 0.0)),
}


@dataclass(frozen=True)
class Scenario:
    scenario_id: str
    setting: str
    n1: int
    n2: int
    censored: bool
    gamma1: np.ndarray
    gamma2: np.ndarray
    k1: float
    k2: float

    @property
    def p(self) -> int:
        return self.gamma1.size

    @property
    def coefficient_indices(self) -> tuple:
        """Positions of the first covariate coefficient of each group in beta."""
        return 1, 1 + self.p

    def simulate(self, rngs) -> TwoSampleDataset:
        """One dataset per generator, straight into a stack: the chunk
        simulator of ``warp_speed``.

        Dataset k takes its draws from ``rngs[k]`` in the order group-1
        covariates, group-2 covariates, T1, T2 and, censored, C1 and C2, and
        makes four generator calls: consecutive uniform draws are one
        ``random`` call (``uniform(0, b)`` is ``b * random()`` bit for bit).
        Every transform then runs once on the whole chunk.  The stack skips
        the checks of ``TwoSampleDataset``: times are non-negative and flags
        0 or 1, and a time is infinite only where ``random`` gives 0 (2**-53).
        """
        N, n1, n2, p = len(rngs), self.n1, self.n2, self.p
        if p not in _DRAWS:
            raise ValueError(f"no covariate design for p={p}")
        block, k = _DRAWS[p]
        normal1 = np.empty((N, n1) + block)
        uniform1 = np.empty((N, k, n1))
        normal2 = np.empty((N, n2) + block)
        # group 2's Bernoulli uniforms, then those of T1, T2 and maybe C1, C2
        times = (2 if self.censored else 1) * (n1 + n2)
        uniform2 = np.empty((N, k * n2 + times))
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=normal1[i])
            rng.random(out=uniform1[i])
            rng.standard_normal(out=normal2[i])
            rng.random(out=uniform2[i])
        Z1 = _covariates(1, p, normal1, uniform1)
        Z2 = _covariates(2, p, normal2, uniform2[:, : k * n2].reshape(N, k, n2))
        del normal1, uniform1, normal2     # read; a draw of 10**6 subjects is large
        u = uniform2[:, k * n2 :]
        T1 = _event_times(self.gamma1, self.k1, Z1, u[:, :n1])
        T2 = _event_times(self.gamma2, self.k2, Z2, u[:, n1 : n1 + n2])
        if self.censored:
            # C is scaled in place in the uniforms; X overwrites T once the
            # event flags are taken
            C1, C2 = u[:, n1 + n2 : 2 * n1 + n2], u[:, 2 * n1 + n2 :]
            C1 *= CENSOR_BOUNDS[0]
            C2 *= CENSOR_BOUNDS[1]
            d1, d2 = (T1 <= C1).astype(float), (T2 <= C2).astype(float)
            X1, X2 = np.minimum(T1, C1, out=T1), np.minimum(T2, C2, out=T2)
        else:
            X1, d1 = T1, np.ones((N, n1))
            X2, d2 = T2, np.ones((N, n2))
        return _from_checked(X1, d1, Z1, X2, d2, Z2, TAU)


def make_scenario(scenario_id: str, setting: str, n1: int, n2: int, censored: bool) -> Scenario:
    if scenario_id not in _SCENARIO_GAMMAS:
        raise ValueError(f"unknown scenario {scenario_id!r}")
    if setting not in SHAPES:
        raise ValueError(f"unknown setting {setting!r}")
    if min(n1, n2) < 2:
        raise ValueError(f"each group needs at least 2 subjects, got n1 = {n1}, n2 = {n2}")
    g1, g2 = _SCENARIO_GAMMAS[scenario_id]
    k1, k2 = SHAPES[setting]
    return Scenario(
        scenario_id=scenario_id, setting=setting, n1=n1, n2=n2, censored=censored,
        gamma1=np.asarray(g1, dtype=float), gamma2=np.asarray(g2, dtype=float),
        k1=k1, k2=k2,
    )


def _normal_factor(cov) -> np.ndarray:
    """F with F @ F.T = cov, from the SVD as Generator.multivariate_normal
    takes it, so rng.standard_normal((n, 2)) @ F.T draws the same numbers."""
    u, s, _ = np.linalg.svd(np.asarray(cov, dtype=float))
    return u * np.sqrt(s)


# the bivariate-normal blocks of the p = 4 designs, one per group
_NORMAL_FACTORS = {
    1: _normal_factor([[1.0, 0.2], [0.2, 1.0]]),
    2: _normal_factor([[1.1, 0.3], [0.3, 1.1]]),
}


# Per subject, each group's covariate design draws a block of standard
# normals (a plain vector, or two columns for the bivariate-normal block of
# p = 4) and then its Bernoulli uniforms: {p: (normal block shape, uniforms)}.
_DRAWS = {2: ((), 1), 4: ((2,), 2)}


def _covariates(group: int, p: int, normal: np.ndarray, uniform: np.ndarray) -> np.ndarray:
    """Covariates (N, n, p) of one group from its standard normals, (N, n)
    or (N, n, 2), and its Bernoulli uniforms (N, k, n)."""
    Z = np.empty(normal.shape[:2] + (p,))
    if p == 2:
        # "N(0, 1.2)" is a variance, as the bivariate blocks are covariances
        Z[..., 0] = normal if group == 1 else normal * np.sqrt(1.2)
        prob = (0.5 + 0.1 * np.sign(Z[..., 0]) if group == 1
                else 0.7 - 0.05 * np.sign(Z[..., 0]))
        Z[..., 1] = uniform[:, 0] < prob
    else:
        Z[..., :2] = normal @ _NORMAL_FACTORS[group].T
        prob = (0.4, 0.6) if group == 1 else (0.5 + 0.1 * np.sign(Z[..., 0]),) * 2
        Z[..., 2] = uniform[:, 0] < prob[0]
        Z[..., 3] = uniform[:, 1] < prob[1]
    return Z


def _event_times(gamma, shape, Z, u) -> np.ndarray:
    """Inverse-transform Weibull times with scale exp(gamma'Z) from uniforms
    ``u`` shaped like Z without its last axis."""
    t = np.log(u)
    np.negative(t, out=t)
    t **= 1.0 / shape
    t *= np.exp(Z @ np.asarray(gamma, dtype=float))
    return t


def simulate_dataset(scenario: Scenario, rng: np.random.Generator) -> TwoSampleDataset:
    """One dataset of ``scenario``: ``Scenario.simulate`` on one generator."""
    return scenario.simulate([rng])[0]


def censoring_rates(scenario: Scenario, n: int, seed: int = 0) -> tuple:
    """Shares of censored subjects (group 1, group 2) in one censored dataset
    of the design of ``scenario`` at n1 = n2 = n."""
    design = replace(scenario, n1=n, n2=n, censored=True)
    data = simulate_dataset(design, np.random.default_rng(seed))
    return 1.0 - float(data.events1.mean()), 1.0 - float(data.events2.mean())


def true_theta_weibull_equal_shapes(
    gamma10, gamma1, z1, gamma20, gamma2, z2, k, tau=np.inf
) -> float:
    """Closed-form truncated relative effect when both shapes equal k.

    With lam_j = exp(gamma_j0 + gamma_j' z_j):
        theta(tau) = (1 - S1(tau) S2(tau)) * lam1^k / (lam1^k + lam2^k),
    approaching a logistic model in k*(eta1 - eta2) as tau -> inf.
    """
    if not k > 0:
        raise ValueError("shape parameter must be positive")
    eta1 = gamma10 + float(np.dot(np.atleast_1d(gamma1), np.atleast_1d(z1)))
    eta2 = gamma20 + float(np.dot(np.atleast_1d(gamma2), np.atleast_1d(z2)))
    logistic = 1.0 / (1.0 + np.exp(-k * (eta1 - eta2)))
    if np.isinf(tau):
        return float(logistic)
    lam1, lam2 = np.exp(eta1), np.exp(eta2)
    joint_surv = np.exp(-(tau**k) * (lam1**-k + lam2**-k))
    return float((1.0 - joint_surv) * logistic)


RESULT_FIELDS = [
    "scenario", "setting", "n1", "n2", "censored", "hypothesis",
    "rate_emp", "rate_iqr", "rate_mad", "rate_quantile",
    "failed", "degenerate",
]

# fewer Monte Carlo runs give no stable rates
MIN_REPS = 100


def check_reps(reps: int) -> None:
    """Raise ValueError for fewer than MIN_REPS runs."""
    if reps < MIN_REPS:
        raise ValueError(f"{reps} Monte Carlo runs is below {MIN_REPS}; "
                         "rates need at least that many runs")


def run_scenario(scenario: Scenario, M: int, seed: int = 0, alpha: float = 0.05):
    """Warp-speed Monte Carlo of ``scenario``, one bootstrap replicate per
    simulated dataset: rejection-rate rows for the two first-covariate
    hypotheses, and the ``WarpSpeedResult``."""
    check_reps(M)
    result = warp_speed(scenario, M=M, seed=seed,
                        coefficients=scenario.coefficient_indices, alpha=alpha)
    rows = []
    for label, idx, gamma in zip("12", scenario.coefficient_indices,
                                 (scenario.gamma1, scenario.gamma2)):
        rows.append({
            "scenario": scenario.scenario_id,
            "setting": scenario.setting,
            "n1": scenario.n1,
            "n2": scenario.n2,
            "censored": "yes" if scenario.censored else "no",
            "hypothesis": f"{'H1' if gamma[0] else 'H0'}({label})",
            **{f"rate_{m}": rates[idx] for m, rates in result.rejection_rates.items()},
            "failed": result.failed,
            "degenerate": result.degenerate,
        })
    return rows, result


def write_result_rows(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=RESULT_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
