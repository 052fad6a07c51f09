"""The two-sample survival data: per-group times, event flags and covariates
and the horizon tau, of one dataset or of a stack of them.

The Kaplan-Meier curves built from them live in ``pseudo``, as prefix
products of per-subject product-limit factors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["TwoSampleDataset", "stack_datasets"]


@dataclass(frozen=True)
class TwoSampleDataset:
    """Per-group observed times, event flags and covariates, plus a horizon.

    Times and events are (n,) and covariates (n, p).  A stack of N datasets
    of one shape has times and events (N, n), covariates (N, n, p) and one
    horizon; ``stack_datasets`` builds one and ``stack[k]`` is dataset k.
    Times may be negative only in a dataset where every subject in both
    groups has an observed event (``status == 1`` throughout).
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
        for name, times in (("covariates1", self.times1), ("covariates2", self.times2)):
            z = np.asarray(getattr(self, name), dtype=float)
            if z.ndim == times.ndim:
                z = z.reshape(times.shape + ((-1,) if z.size else (0,)))
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
            if Z.shape[:-1] != times.shape:
                raise ValueError(f"{label}: covariate rows do not match sample size")
        censored = np.any(self.events1 == 0, axis=-1) | np.any(self.events2 == 0, axis=-1)
        negative = np.any(self.times1 < 0, axis=-1) | np.any(self.times2 < 0, axis=-1)
        if np.any(censored & negative):
            raise ValueError("negative times are only permitted when no subject is censored")
        if not (self.tau > 0):
            raise ValueError("tau must be positive (or +inf)")

    @property
    def n1(self) -> int:
        return self.times1.shape[-1]

    @property
    def n2(self) -> int:
        return self.times2.shape[-1]

    @property
    def uncensored(self) -> bool:
        return bool(self.events1.all() and self.events2.all())

    def _require_stack(self) -> None:
        if self.times1.ndim != 2:
            raise ValueError("not a stack of datasets; stack_datasets([data]) makes one")

    def __getitem__(self, k) -> TwoSampleDataset:
        """Dataset k of a stack, or the stack of the datasets that an index
        array or a mask ``k`` picks.  Every dataset of a checked stack is
        valid, so the result skips the checks of ``__post_init__``."""
        self._require_stack()
        return _from_checked(self.times1[k], self.events1[k], self.covariates1[k],
                             self.times2[k], self.events2[k], self.covariates2[k], self.tau)

    def resampled(self, idx1: np.ndarray, idx2: np.ndarray) -> TwoSampleDataset:
        """The stack whose dataset k is dataset k of this stack with rows
        idx1[k] of group 1 and idx2[k] of group 2; a stack of one dataset is
        resampled once per row of idx1 and idx2.  Rows of a valid dataset
        make a valid dataset, so the result is checked for at least two rows
        per group and skips the other checks of ``__post_init__``."""
        self._require_stack()
        if any(np.ndim(idx) == 0 or np.shape(idx)[-1] < 2 for idx in (idx1, idx2)):
            raise ValueError("each group needs at least 2 subjects")
        k = np.arange(len(self.times1))[:, None]
        return _from_checked(
            self.times1[k, idx1], self.events1[k, idx1], self.covariates1[k, idx1],
            self.times2[k, idx2], self.events2[k, idx2], self.covariates2[k, idx2], self.tau,
        )


_FIELDS = tuple(f.name for f in fields(TwoSampleDataset))


def _from_checked(*values) -> TwoSampleDataset:
    """The dataset of ``values``, in field order, arrays taken from a checked
    dataset: built as they are, without ``__post_init__``."""
    data = object.__new__(TwoSampleDataset)
    data.__dict__.update(zip(_FIELDS, values))
    return data


def stack_datasets(datasets) -> TwoSampleDataset:
    """Datasets of one shape and one horizon as one stack."""
    if len({d.tau for d in datasets}) != 1:
        raise ValueError("stacked datasets must share one horizon")
    arrays = (np.stack([getattr(d, f.name) for d in datasets])
              for f in fields(TwoSampleDataset)[:-1])
    return TwoSampleDataset(*arrays, tau=datasets[0].tau)
