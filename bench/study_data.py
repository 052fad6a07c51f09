"""Study CSV generator for the benchmark, independent of ``releff.sim``.

The study input is drawn here with plain numpy so that a change to the
simulation module cannot change what the study workload analyses.  The
design gives about 30% censoring, tied event times (times are rounded up to
a 0.05 grid) and a finite horizon ``TAU`` that cuts the longest follow-up.
"""

from __future__ import annotations

import csv

import numpy as np

N_PER_GROUP = 400
TAU = 2.0
TIME_GRID = 0.05
COVARIATES = ("age", "marker")
# (intercept, age, marker) of the log Weibull scale, Weibull shape, and the
# upper bound of the uniform censoring time per group
GROUPS = {
    1: ((0.10, 0.30, -0.40), 1.5, 3.2),
    2: ((0.00, 0.20, 0.30), 1.5, 3.2),
}


def generate(seed: int, n: int = N_PER_GROUP):
    """Rows ``(group, time, status, age, marker)`` for both groups."""
    rng = np.random.default_rng(seed)
    rows = []
    for group, (gamma, shape, censor_bound) in GROUPS.items():
        age = np.round(rng.standard_normal(n), 3)
        marker = (rng.uniform(size=n) < 0.4).astype(int)
        scale = np.exp(gamma[0] + gamma[1] * age + gamma[2] * marker)
        event = scale * (-np.log(rng.uniform(size=n))) ** (1.0 / shape)
        censor = rng.uniform(0.0, censor_bound, size=n)
        status = (event <= censor).astype(int)
        time = np.ceil(np.minimum(event, censor) / TIME_GRID) * TIME_GRID
        rows.extend(zip([group] * n, np.round(time, 2), status, age, marker))
    return rows


def describe(rows) -> dict:
    """Censoring share, distinct event times K and group sizes of a study."""
    group = np.array([r[0] for r in rows])
    time = np.array([r[1] for r in rows])
    status = np.array([r[2] for r in rows])
    return {
        "n1": int(np.sum(group == 1)),
        "n2": int(np.sum(group == 2)),
        "censoring_share": float(np.mean(status == 0)),
        "distinct_event_times": int(np.unique(time[status == 1]).size),
        "events_beyond_tau": int(np.sum((status == 1) & (time >= TAU))),
        "tau": TAU,
    }


def write_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "time", "status", *COVARIATES])
        for group, time, status, age, marker in rows:
            writer.writerow([group, f"{time:.2f}", status, f"{age:.3f}", marker])
