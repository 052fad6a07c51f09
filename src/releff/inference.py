"""Bootstrap resampling of the fitting pipeline and coefficient tests.

Subjects are resampled with replacement within each group.  Replicate b of
a run with seed s uses an RNG stream derived from (s, b), so results are
identical no matter in which order replicates are computed.

Bootstrap replicates and warp-speed Monte Carlo runs are fitted in chunks:
the resampled (and simulated) datasets of a chunk are stacked on a leading
axis and, for the identity link, fitted by one ``pseudo_marginals`` and one
``gee.solve_identity`` call.  For the logit link that call gives every
dataset's Newton start, and each dataset is then fitted on its distinct
subjects: rows equal in time, status and covariates are copies of one
subject, so the pseudo matrix is built for one row or column per distinct
subject and Newton weights them by their numbers of copies.  A chunk holds at most
``STACK_ELEMENTS // (n1 + n2 + 2)`` datasets (160 at n1 = n2 = 50), so
memory does not grow with B or M, and a Monte Carlo task of a few hundred
runs at that size pays the fixed cost of a stacked fit once or twice.
Warp-speed runs are simulated straight into a chunk's stacked arrays by a
chunk simulator; no dataset object is built per run.  Each run or
replicate draws its whole resample, both groups, in one generator call;
``_simulated_chunk`` draws the streams of a chunk for both loops.

``decide`` turns one coefficient's centered replicates into the four test
decisions; ``test_coefficient`` applies it to one estimate and
``warp_speed`` to the estimates of all runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import Protocol, Sequence

import numpy as np
from scipy.special import ndtri

from . import gee
from .pseudo import pseudo_marginals, pseudo_matrix
from .survival import TwoSampleDataset

__all__ = [
    "METHODS",
    "DatasetStack",
    "FitSpec",
    "BootstrapEnsemble",
    "TestReport",
    "bootstrap",
    "decide",
    "require_usable",
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

# element budget of one stacked fit: a chunk holds at most
# STACK_ELEMENTS // (n1 + n2 + 2) datasets (160 at n1 = n2 = 50, a few MB
# of working set)
STACK_ELEMENTS = 1 << 14


def _chunk_size(n1: int, n2: int) -> int:
    return max(1, STACK_ELEMENTS // (n1 + n2 + 2))


@dataclass(frozen=True)
class DatasetStack:
    """N datasets of one shape, each field of ``TwoSampleDataset`` stacked
    on a leading axis: times and events (N, n), covariates (N, n, p), tau (N,)."""

    times1: np.ndarray
    events1: np.ndarray
    covariates1: np.ndarray
    times2: np.ndarray
    events2: np.ndarray
    covariates2: np.ndarray
    tau: np.ndarray

    @classmethod
    def of(cls, datasets) -> "DatasetStack":
        return cls(*(np.stack([getattr(d, f.name) for d in datasets]) for f in fields(cls)))

    def __len__(self) -> int:
        return self.tau.shape[0]

    def resampled(self, idx1: np.ndarray, idx2: np.ndarray) -> "DatasetStack":
        """Dataset k resampled with rows idx1[k] and idx2[k]; a stack of one
        dataset is resampled once per row of idx1 and idx2."""
        k = np.arange(len(self))[:, None]
        return DatasetStack(
            self.times1[k, idx1], self.events1[k, idx1], self.covariates1[k, idx1],
            self.times2[k, idx2], self.events2[k, idx2], self.covariates2[k, idx2],
            np.broadcast_to(self.tau, idx1.shape[:1]),
        )

    def dataset(self, k: int) -> TwoSampleDataset:
        return TwoSampleDataset(
            self.times1[k], self.events1[k], self.covariates1[k],
            self.times2[k], self.events2[k], self.covariates2[k], tau=float(self.tau[k]),
        )


def _distinct_subjects(times, events, covariates):
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


@dataclass(frozen=True)
class FitSpec:
    """Everything needed to refit the model on a resampled dataset.

    ``fit`` and ``_fit_stack`` are the one link dispatch.  Both solve the
    identity link in closed form from the pseudo-matrix marginals
    (``_identity``).  For the logit link that solution starts
    ``gee.solve_newton``, which runs on the distinct subjects of the
    dataset: the pseudo matrix restricted to one row or column per distinct
    subject, each weighted by its number of copies, has the score and
    Jacobian of the whole matrix.  A link not in ``gee.LINKS`` raises
    ValueError."""

    link: str = gee.IDENTITY
    strict_singular: bool = False

    def __post_init__(self):
        gee.check_link(self.link)

    def fit(self, data: TwoSampleDataset) -> gee.FitResult:
        """Fit one dataset; a singular design under ``strict_singular``
        raises LinAlgError.  A saturated logit fit is returned as it is."""
        start = self._identity(DatasetStack.of([data])).result(0)
        return start if self.link == gee.IDENTITY else self._newton(data, start.beta)

    def _identity(self, stack: DatasetStack) -> gee.IdentityFits:
        m = pseudo_marginals(stack.times1, stack.events1, stack.times2, stack.events2, stack.tau)
        return gee.solve_identity(
            m.row_means, m.col_means, stack.covariates1, stack.covariates2,
            strict_singular=self.strict_singular,
        )

    def _newton(self, data: TwoSampleDataset, start) -> gee.FitResult:
        """Newton fit of ``data`` from ``start`` on its distinct subjects."""
        rows, w1 = _distinct_subjects(data.times1, data.events1, data.covariates1)
        cols, w2 = _distinct_subjects(data.times2, data.events2, data.covariates2)
        matrix = pseudo_matrix(data, rows=rows, cols=cols)
        return gee.solve_newton(matrix, data.covariates1[rows], data.covariates2[cols],
                                self.link, x0=start, weights=(w1, w2))

    def _fit_stack(self, stack: DatasetStack):
        """Coefficients (N, p) of every dataset in ``stack``, NaN where the
        fit failed, and the failed rows by cause, each counted under the
        first that applies: (beta, singular, nonconverged, saturated).  A
        singular design under ``strict_singular`` is refused; a fit that
        does not converge or has non-finite coefficients counts as not
        converged; a converged logit fit with some |beta'z| beyond
        ``gee.SATURATED_ETA`` is saturated."""
        fits = self._identity(stack)
        beta, singular = fits.beta, fits.singular
        nonconverged = np.zeros(len(stack), dtype=bool)
        saturated = np.zeros(len(stack), dtype=bool)
        if self.link == gee.LOGIT:
            for k in np.flatnonzero(~singular):
                result = self._newton(stack.dataset(k), beta[k])
                beta[k] = result.beta
                nonconverged[k] = not result.converged
                saturated[k] = gee.max_abs_eta(
                    result.beta, stack.covariates1[k], stack.covariates2[k]) > gee.SATURATED_ETA
        nonconverged |= ~(singular | np.isfinite(beta).all(axis=1))
        saturated &= ~nonconverged
        beta[nonconverged | saturated] = np.nan
        return beta, singular, nonconverged, saturated


@dataclass
class BootstrapEnsemble:
    replicates: np.ndarray        # (B, p); failed rows are NaN
    B: int
    seed: int
    base_fit: gee.FitResult
    failed: int = 0               # singular + nonconverged + saturated
    unreliable: bool = False
    singular: int = 0             # refits with a singular design (strict_singular)
    nonconverged: int = 0         # refits that did not converge to finite coefficients
    saturated: int = 0            # logit refits with some |beta'z| > gee.SATURATED_ETA

    @property
    def ok(self) -> np.ndarray:
        return ~np.any(np.isnan(self.replicates), axis=1)


def require_usable(fit: gee.FitResult) -> None:
    """Raise RuntimeError unless ``fit`` converged to finite coefficients."""
    if not fit.converged:
        raise RuntimeError(f"fit did not converge: {fit.message}")
    if not np.all(np.isfinite(fit.beta)):
        raise RuntimeError(
            "fit has non-finite coefficients; covariates this large in magnitude "
            "overflow the design moments, so rescale them"
        )


def _replicate_rng(seed: int, b: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(b,)))


def resample_indices(rng: np.random.Generator, n1: int, n2: int):
    """Within-group resampling with replacement; group 1 drawn first.

    Both groups come from one call with the bound n1 for the first n1 draws
    and n2 for the rest, which gives the stream of
    ``rng.integers(0, n1, size=n1)`` followed by
    ``rng.integers(0, n2, size=n2)``."""
    high = np.full(n1 + n2, n2)
    high[:n1] = n1
    idx = rng.integers(0, high)
    return idx[:n1], idx[n1:]


def bootstrap(
    data: TwoSampleDataset,
    spec: FitSpec | None = None,
    B: int = 2000,
    seed: int = 0,
) -> BootstrapEnsemble:
    """Nonparametric bootstrap of the full pipeline; a base fit that
    ``require_usable`` refuses stops it before any refit.  A refit fails
    by the causes of ``FitSpec._fit_stack``; a saturated base fit is not
    refused."""
    if B < 1:
        raise ValueError("B must be at least 1")
    spec = spec or FitSpec()
    base = spec.fit(data)
    require_usable(base)
    whole = DatasetStack.of([data])
    replicates = np.full((B, base.beta.size), np.nan)
    causes = np.zeros(3, dtype=int)     # singular, nonconverged, saturated
    step = _chunk_size(data.n1, data.n2)
    for start in range(0, B, step):
        runs = range(start, min(start + step, B))
        _, idx1, idx2 = _simulated_chunk(lambda rngs: whole, seed, runs)
        beta, *failures = spec._fit_stack(whole.resampled(idx1, idx2))
        replicates[runs.start : runs.stop] = beta
        causes += [int(f.sum()) for f in failures]
    failed = int(causes.sum())
    if failed == B:
        raise RuntimeError("all bootstrap replicates failed")
    singular, nonconverged, saturated = causes.tolist()
    return BootstrapEnsemble(
        replicates=replicates, B=B, seed=seed, base_fit=base,
        failed=failed, unreliable=failed > MAX_FAILURE_FRACTION * B,
        singular=singular, nonconverged=nonconverged, saturated=saturated,
    )


@dataclass
class TestReport:
    coefficient: int
    estimate: float
    alpha: float
    decisions: dict               # method -> (scale, ci, reject), see ``decide``
    degenerate: bool = False      # the empirical SD is not positive


def scale_estimates(values: np.ndarray):
    """The three bootstrap spread estimates calibrated to a normal SD."""
    values = np.asarray(values, dtype=float)
    emp = float(np.std(values, ddof=1)) if values.size > 1 else 0.0
    q25, q75 = np.quantile(values, [0.25, 0.75])
    iqr = float(abs(q75 - q25) / IQR_TO_SD)
    mad = float(np.median(np.abs(values - np.median(values))) * MAD_TO_SD)
    return emp, iqr, mad


@functools.lru_cache(maxsize=16)
def _two_sided_z(alpha: float) -> float:
    """z at 1 - alpha/2 from ``ndtri``, which is what ``norm.ppf`` evaluates."""
    return float(ndtri(1 - alpha / 2))


def decide(estimates, centered: np.ndarray, alpha: float = 0.05) -> dict:
    """The four bootstrap tests of H0: beta = 0 at ``estimates`` (one float
    or an array) from the 1-D centered replicates of that coefficient.

    Returns method -> (scale, (ci_low, ci_high), reject) in the order of
    METHODS.  A scale-based test rejects when |estimate| / scale > z, with
    the interval estimate +- z * scale; at a scale <= 0 it decides nothing
    (reject None, the interval NaN).  The percentile test has no scale
    (None): with q_lo, q_hi the alpha/2 and 1 - alpha/2 quantiles of the
    centered replicates it rejects when estimate < q_lo or estimate > q_hi,
    with the interval (estimate - q_hi, estimate - q_lo).  For one float the
    flags are bools, for an array boolean arrays.
    """
    z = _two_sided_z(alpha)
    decisions = {}
    for name, scale in zip(METHODS, scale_estimates(centered)):
        if scale <= 0:
            decisions[name] = (scale, (math.nan, math.nan), None)
        else:
            ci = (estimates - z * scale, estimates + z * scale)
            decisions[name] = (scale, ci, abs(estimates) / scale > z)
    q_lo, q_hi = np.quantile(centered, [alpha / 2, 1 - alpha / 2]).tolist()
    reject = (estimates < q_lo) | (estimates > q_hi)
    decisions["quantile"] = (None, (estimates - q_hi, estimates - q_lo), reject)
    return decisions


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
    decisions = decide(estimate, reps - estimate, alpha)
    return TestReport(
        coefficient=coefficient,
        estimate=estimate,
        alpha=alpha,
        decisions=decisions,
        degenerate=decisions["emp"][0] <= 0,
    )


@dataclass
class WarpSpeedResult:
    rejection_rates: dict          # test name -> array over coefficients
    estimates: np.ndarray          # (M_ok, p)
    centered_replicates: np.ndarray  # (M_ok, p)
    degenerate: bool = False       # a pooled scale of a tested coefficient is <= 0
    failed: int = 0                # singular + nonconverged + saturated
    singular: int = 0              # runs with a singular design (strict_singular)
    nonconverged: int = 0          # runs whose base fit or refit did not converge to
                                   # finite coefficients
    saturated: int = 0             # runs whose logit base fit or refit is saturated


class ChunkSimulator(Protocol):
    """Simulates Monte Carlo datasets of one shape straight into a stack."""

    n1: int
    n2: int

    def simulate(self, rngs: Sequence[np.random.Generator]) -> DatasetStack:
        """Dataset k of the stack drawn from ``rngs[k]`` alone."""


def _simulated_chunk(draw, seed: int, runs: range):
    """The stack ``draw(rngs)``, one generator per run in ``runs``, and each
    run's resample (idx1, idx2): run m draws its dataset, then its resample,
    from the stream (seed, m).  The bootstrap's ``draw`` draws nothing."""
    rngs = [_replicate_rng(seed, m) for m in runs]
    stack = draw(rngs)
    n1, n2 = stack.times1.shape[-1], stack.times2.shape[-1]
    draws = [resample_indices(rng, n1, n2) for rng in rngs]
    idx1, idx2 = (np.stack(idx) for idx in zip(*draws))
    return stack, idx1, idx2


def warp_speed(
    simulator: ChunkSimulator,
    M: int,
    seed: int = 0,
    spec: FitSpec | None = None,
    coefficients=None,
    alpha: float = 0.05,
) -> WarpSpeedResult:
    """One bootstrap replicate per simulated dataset, pooled for scale.

    The centered replicates from all Monte Carlo runs are pooled to estimate
    the bootstrap scales and quantiles, which are then applied to each run's
    estimate.  A run fails when its base fit or its refit has a singular
    design (under ``strict_singular``), does not converge or has non-finite
    coefficients, or is a saturated logit fit; it is counted under the
    first of these causes that applies to either fit.
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    spec = spec or FitSpec()
    estimates = []
    centered = []
    causes = np.zeros(3, dtype=int)     # singular, nonconverged, saturated
    step = _chunk_size(simulator.n1, simulator.n2)
    for start in range(0, M, step):
        runs = range(start, min(start + step, M))
        stack, idx1, idx2 = _simulated_chunk(simulator.simulate, seed, runs)
        base, *base_failures = spec._fit_stack(stack)
        star, *star_failures = spec._fit_stack(stack.resampled(idx1, idx2))
        ok = np.ones(len(stack), dtype=bool)
        for k, (b, s) in enumerate(zip(base_failures, star_failures)):
            failing = (b | s) & ok
            causes[k] += int(failing.sum())
            ok &= ~failing
        estimates.append(base[ok])
        centered.append(star[ok] - base[ok])
    estimates = np.concatenate(estimates)
    centered = np.concatenate(centered)
    if not len(estimates):
        raise RuntimeError("all Monte Carlo runs failed")
    p = estimates.shape[1]
    if coefficients is None:
        coefficients = range(p)
    rates = {name: np.full(p, np.nan) for name in METHODS}
    degenerate = False
    for k in coefficients:
        for name, (_, _, reject) in decide(estimates[:, k], centered[:, k], alpha).items():
            if reject is None:
                degenerate = True
            else:
                rates[name][k] = float(np.mean(reject))
    singular, nonconverged, saturated = causes.tolist()
    return WarpSpeedResult(
        rejection_rates=rates,
        estimates=estimates,
        centered_replicates=centered,
        degenerate=degenerate,
        failed=singular + nonconverged + saturated,
        singular=singular,
        nonconverged=nonconverged,
        saturated=saturated,
    )
