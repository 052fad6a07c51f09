"""The two-sample survival data: per-group times, event flags and covariates
and the horizon tau.

The Kaplan-Meier curves built from them live in ``pseudo``, as prefix
products of per-subject product-limit factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TwoSampleDataset"]


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
    def uncensored(self) -> bool:
        return bool(np.all(self.events1 == 1) and np.all(self.events2 == 1))

