"""Slow reference implementations that the production code is checked against.

Each oracle recomputes a quantity from its definition, independently of the
fast path in ``releff``: the pseudo-observation matrix by re-estimating all
four Kaplan-Meier curves per pair (each leave-one-out curve by refitting the
reduced sample), and the Weibull relative effect by numerical quadrature.
"""

import numpy as np
from scipy.integrate import quad

from releff.survival import SurvivalCurve, TwoSampleDataset, kaplan_meier, theta_integral


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


def true_theta_weibull_numeric(lam1, k1, lam2, k2, tau=np.inf) -> float:
    """Quadrature of -int S1 dS2 for Weibull scales lam_j and shapes k_j."""

    def integrand(u):
        s1 = np.exp(-((u / lam1) ** k1))
        f2 = k2 * u ** (k2 - 1) / lam2**k2 * np.exp(-((u / lam2) ** k2))
        return s1 * f2

    upper = min(tau, max(lam1, lam2) * 60.0)
    val, _ = quad(integrand, 0.0, upper, limit=400)
    return float(val)
