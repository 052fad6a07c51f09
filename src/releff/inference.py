"""Bootstrap resampling of the fitting pipeline and coefficient tests.

Subjects are resampled with replacement within each group.  Replicate b of
a run with seed s uses an RNG stream derived from (s, b), so results are
identical no matter in which order replicates are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm

from . import gee
from .pseudo import pseudo_matrix
from .survival import TwoSampleDataset

__all__ = [
    "METHODS",
    "FitSpec",
    "BootstrapEnsemble",
    "TestReport",
    "bootstrap",
    "test_coefficient",
    "warp_speed",
]

# normal-consistency constants: q75 - q25 and 1/qnorm(0.75) of N(0,1)
IQR_TO_SD = 1.349
MAD_TO_SD = 1.4826

# the four coefficient tests: three scale-based, one percentile
METHODS = ("emp", "iqr", "mad", "quantile")

# more than this fraction of failed replicates marks the ensemble unreliable
MAX_FAILURE_FRACTION = 0.05


@dataclass(frozen=True)
class FitSpec:
    """Everything needed to refit the model on a resampled dataset."""

    link: gee.Link = gee.IDENTITY
    strict_singular: bool = False

    def fit(self, data: TwoSampleDataset) -> gee.FitResult:
        pm = pseudo_matrix(data)
        return gee.fit(
            pm, data.covariates1, data.covariates2, self.link,
            strict_singular=self.strict_singular,
        )


@dataclass
class BootstrapEnsemble:
    replicates: np.ndarray        # (B, p); failed rows are NaN
    B: int
    seed: int
    base_fit: gee.FitResult
    failed: int = 0
    unreliable: bool = False

    @property
    def ok(self) -> np.ndarray:
        return ~np.any(np.isnan(self.replicates), axis=1)

    @property
    def centered(self) -> np.ndarray:
        return self.replicates[self.ok] - self.base_fit.beta


def _replicate_rng(seed: int, b: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def resample_indices(rng: np.random.Generator, n1: int, n2: int):
    """Within-group resampling with replacement; group 1 drawn first."""
    return rng.integers(0, n1, size=n1), rng.integers(0, n2, size=n2)


def _resampled(data: TwoSampleDataset, idx1, idx2) -> TwoSampleDataset:
    return TwoSampleDataset(
        data.times1[idx1], data.events1[idx1], data.covariates1[idx1],
        data.times2[idx2], data.events2[idx2], data.covariates2[idx2],
        tau=data.tau,
    )


def bootstrap(
    data: TwoSampleDataset,
    spec: FitSpec | None = None,
    B: int = 2000,
    seed: int = 0,
) -> BootstrapEnsemble:
    """Nonparametric bootstrap of the full pipeline."""
    if B < 1:
        raise ValueError("B must be at least 1")
    spec = spec or FitSpec()
    base = spec.fit(data)
    p = base.beta.size
    replicates = np.full((B, p), np.nan)
    failed = 0
    for b in range(B):
        rng = _replicate_rng(seed, b)
        idx1, idx2 = resample_indices(rng, data.n1, data.n2)
        try:
            result = spec.fit(_resampled(data, idx1, idx2))
        except np.linalg.LinAlgError:   # a singular design under strict_singular
            failed += 1
            continue
        if result.converged:
            replicates[b] = result.beta
        else:
            failed += 1
    if failed == B:
        raise RuntimeError("all bootstrap replicates failed to converge")
    return BootstrapEnsemble(
        replicates=replicates, B=B, seed=seed, base_fit=base,
        failed=failed, unreliable=failed > MAX_FAILURE_FRACTION * B,
    )


@dataclass
class TestReport:
    coefficient: int
    estimate: float
    alpha: float
    scale_emp: float
    scale_iqr: float
    scale_mad: float
    reject_emp: Optional[bool]
    reject_iqr: Optional[bool]
    reject_mad: Optional[bool]
    reject_quantile: bool
    ci_emp: tuple
    ci_iqr: tuple
    ci_mad: tuple
    ci_quantile: tuple
    degenerate: bool = False

    def by_method(self) -> dict:
        """Method name -> (scale, CI, reject flag), in the order of
        ``METHODS``; the percentile test has no scale (None)."""
        return {
            "emp": (self.scale_emp, self.ci_emp, self.reject_emp),
            "iqr": (self.scale_iqr, self.ci_iqr, self.reject_iqr),
            "mad": (self.scale_mad, self.ci_mad, self.reject_mad),
            "quantile": (None, self.ci_quantile, self.reject_quantile),
        }


def scale_estimates(values: np.ndarray):
    """The three bootstrap spread estimates calibrated to a normal SD."""
    values = np.asarray(values, dtype=float)
    emp = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    q25, q75 = np.quantile(values, [0.25, 0.75])
    iqr = float(abs(q75 - q25) / IQR_TO_SD)
    mad = float(np.median(np.abs(values - np.median(values))) * MAD_TO_SD)
    return emp, iqr, mad


def _scale_decision(estimate, scale, z):
    if scale <= 0:
        return None, (math.nan, math.nan)
    reject = bool(abs(estimate) / scale > z)
    return reject, (estimate - z * scale, estimate + z * scale)


def test_coefficient(
    ensemble: BootstrapEnsemble, coefficient: int, alpha: float = 0.05
) -> TestReport:
    """Four bootstrap tests of H0: beta[coefficient] = 0."""
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    estimate = float(ensemble.base_fit.beta[coefficient])
    reps = ensemble.replicates[ensemble.ok][:, coefficient]
    if reps.size == 0:
        raise RuntimeError("no successful bootstrap replicates")
    centered = reps - estimate
    emp, iqr, mad = scale_estimates(reps)
    z = float(norm.ppf(1 - alpha / 2))
    reject_emp, ci_emp = _scale_decision(estimate, emp, z)
    reject_iqr, ci_iqr = _scale_decision(estimate, iqr, z)
    reject_mad, ci_mad = _scale_decision(estimate, mad, z)
    q_lo, q_hi = np.quantile(centered, [alpha / 2, 1 - alpha / 2])
    reject_quantile = bool(estimate < q_lo or estimate > q_hi)
    ci_quantile = (estimate - float(q_hi), estimate - float(q_lo))
    return TestReport(
        coefficient=coefficient,
        estimate=estimate,
        alpha=alpha,
        scale_emp=emp,
        scale_iqr=iqr,
        scale_mad=mad,
        reject_emp=reject_emp,
        reject_iqr=reject_iqr,
        reject_mad=reject_mad,
        reject_quantile=reject_quantile,
        ci_emp=ci_emp,
        ci_iqr=ci_iqr,
        ci_mad=ci_mad,
        ci_quantile=ci_quantile,
        degenerate=emp <= 0,
    )


@dataclass
class WarpSpeedResult:
    rejection_rates: dict          # test name -> array over coefficients
    estimates: np.ndarray          # (M, p)
    centered_replicates: np.ndarray  # (M_ok, p)
    degenerate: bool = False
    failed: int = 0


def warp_speed(
    make_dataset: Callable[[np.random.Generator], TwoSampleDataset],
    M: int,
    seed: int = 0,
    spec: FitSpec | None = None,
    coefficients=None,
    alpha: float = 0.05,
) -> WarpSpeedResult:
    """One bootstrap replicate per simulated dataset, pooled for scale.

    The centered replicates from all Monte Carlo runs are pooled to estimate
    the bootstrap scales and quantiles, which are then applied to each run's
    estimate.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    spec = spec or FitSpec()
    estimates = []
    centered = []
    failed = 0
    for m in range(M):
        rng = _replicate_rng(seed, m)
        data = make_dataset(rng)
        try:
            base = spec.fit(data)
            idx1, idx2 = resample_indices(rng, data.n1, data.n2)
            star = spec.fit(_resampled(data, idx1, idx2))
        except np.linalg.LinAlgError:   # a singular design under strict_singular
            failed += 1
            continue
        if not (base.converged and star.converged):
            failed += 1
            continue
        estimates.append(base.beta)
        centered.append(star.beta - base.beta)
    if not estimates:
        raise RuntimeError("all Monte Carlo runs failed")
    estimates = np.asarray(estimates)
    centered = np.asarray(centered)
    p = estimates.shape[1]
    if coefficients is None:
        coefficients = range(p)
    coefficients = list(coefficients)

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
    return WarpSpeedResult(
        rejection_rates=rates,
        estimates=estimates,
        centered_replicates=centered,
        degenerate=degenerate,
        failed=failed,
    )
