"""Step-function survival curves, Kaplan-Meier estimation and Stieltjes sums.

All curves are right-continuous step functions starting at 1 before the
first jump.  Jumps occur only at distinct uncensored event times.  Beyond
the largest observation the curve is carried flat at its last value, even
when that observation is censored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SurvivalCurve",
    "TwoSampleDataset",
    "kaplan_meier",
    "theta_integral",
]


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous step function with value 1 before the first jump.

    ``values[i]`` is the value immediately after ``jump_times[i]``; values
    are non-increasing and lie in [0, 1].
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

    def left_limit(self, t):
        """Pre-jump value S(t-); equals S(t) off the jump set."""
        idx = np.searchsorted(self.jump_times, t, side="left")
        padded = np.concatenate(([1.0], self.values))
        return padded[idx]

    def jumps(self):
        """Jump sizes S(t-) - S(t) >= 0 aligned with ``jump_times``."""
        pre = np.concatenate(([1.0], self.values[:-1]))
        return pre - self.values


@dataclass(frozen=True)
class TwoSampleDataset:
    """Per-group observed times, event flags and covariates, plus a horizon.

    Times may be negative only when every subject in both groups has an
    observed event (``status == 1`` throughout).
    """

    times1: np.ndarray
    events1: np.ndarray
    covariates1: np.ndarray
    times2: np.ndarray
    events2: np.ndarray
    covariates2: np.ndarray
    tau: float = np.inf

    def __post_init__(self):
        for name in ("times1", "events1", "times2", "events2"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        for name, n in (("covariates1", self.times1.size), ("covariates2", self.times2.size)):
            z = np.asarray(getattr(self, name), dtype=float)
            if z.ndim == 1:
                z = z.reshape(n, -1) if z.size else z.reshape(n, 0)
            object.__setattr__(self, name, z)
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("each group needs at least 2 subjects")
        for times, events, Z, label in (
            (self.times1, self.events1, self.covariates1, "group 1"),
            (self.times2, self.events2, self.covariates2, "group 2"),
        ):
            if times.shape != events.shape:
                raise ValueError(f"{label}: times and events differ in length")
            if not np.all(np.isfinite(times)):
                raise ValueError(f"{label}: times must be finite")
            if not np.all(np.isin(events, (0.0, 1.0))):
                raise ValueError(f"{label}: status must be 0 or 1")
            if Z.shape[0] != times.size:
                raise ValueError(f"{label}: covariate rows do not match sample size")
        if not self.uncensored and (np.any(self.times1 < 0) or np.any(self.times2 < 0)):
            raise ValueError("negative times are only permitted when no subject is censored")
        if not (self.tau > 0):
            raise ValueError("tau must be positive (or +inf)")

    @property
    def n1(self) -> int:
        return self.times1.size

    @property
    def n2(self) -> int:
        return self.times2.size

    @property
    def p1(self) -> int:
        return self.covariates1.shape[1]

    @property
    def p2(self) -> int:
        return self.covariates2.shape[1]

    @property
    def uncensored(self) -> bool:
        return bool(np.all(self.events1 == 1) and np.all(self.events2 == 1))


def kaplan_meier(times, events=None) -> SurvivalCurve:
    """Product-limit estimator; ``events=None`` means fully observed.

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
