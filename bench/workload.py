"""One releff benchmark workload, run in a process of its own.

    python3 bench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--setup-only]

``bench/run.py`` starts this script; it writes ``DIR/result.json``, or
``DIR/setup.json`` with ``--setup-only``.  Set-up (importing releff,
generating the inputs, one warm-up call) is timed from the first line of
this file.  With ``--trace 0`` the script then repeats the
workload's task until ``--seconds`` have passed; with ``--trace 1`` it
alternates untraced and traced passes over a fixed list of tasks, so the
per-layer counts of a seed repeat exactly.  Every run also recomputes the
pinned reference case in ``bench/references`` and counts the outputs that
differ from it.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCES = BENCH / "references"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import releff
from releff import cli, sim

import layers
import spans
import study_data

if not Path(releff.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"releff was imported from {releff.__file__}, not from {ROOT / 'src'}")

TOL = 1e-8
REF_SEED = 20260117


KERNEL_REF_S = 0.04


def calibration_kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls; no releff.

    Half of it is generic, half mimics a leave-one-out product-limit fit
    and a pairwise comparison at n = 50, the shape of releff's hot loops.
    """
    rng = np.random.default_rng(0)
    x = rng.random(100)
    t = np.round(rng.random(50), 2)
    e = (rng.random(50) < 0.7).astype(float)
    acc = 0.0
    for i in range(1000):
        s = np.sort(x)
        acc += float(np.cumprod(1.0 - s / 400.0)[np.searchsorted(s, x) % 100].sum())
        acc += sum({j: j * j for j in range(40)}.values())
        keep = np.arange(50) != i % 50
        order = np.argsort(t[keep], kind="stable")
        uniq, start = np.unique(t[keep][order], return_index=True)
        deaths = np.add.reduceat(e[keep][order], start)
        acc += float(np.cumprod(1.0 - deaths / (49 - start))[-1])
        if i % 10 == 0:
            acc += float(((t[:, None] > t[None, :]) & (t[None, :] < 0.9)).mean())
    m = rng.random((60, 60))
    return acc + float((m @ m).sum())


def _kernel_seconds() -> float:
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Clock:
    """Times a call in seconds and in units of the calibration kernel.

    On a shared host, other tenants slow all code down by up to half for
    stretches of 5-30 s.  Dividing a call's time by the mean kernel time just
    before and after it cancels most of that, so ``rel`` stays steady where
    seconds do not.
    """

    def __init__(self):
        self.kernel_s = _kernel_seconds()

    def __call__(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        after = _kernel_seconds()
        rel = seconds / (0.5 * (self.kernel_s + after))
        self.kernel_s = after
        return result, seconds, rel


def plain_clock(fn, *args, **kwargs):
    """Clock without the kernel, for calls inside an already timed pass."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - start
    return result, seconds, seconds


def compare_cells(ref, got) -> bool:
    """Numbers agree to TOL absolute (NaN matches NaN); anything else exactly."""
    try:
        a, b = float(ref), float(got)
    except (TypeError, ValueError):
        return ref == got
    return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= TOL


def compare_tables(ref_rows, got_rows) -> int:
    """Number of cells (or rows, if the shapes differ) that disagree."""
    if len(ref_rows) != len(got_rows):
        return max(len(ref_rows), len(got_rows))
    bad = 0
    for ref, got in zip(ref_rows, got_rows):
        if len(ref) != len(got):
            bad += 1
            continue
        bad += sum(not compare_cells(r, g) for r, g in zip(ref, got))
    return bad


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class MonteCarlo:
    """``sim.run_scenario`` on scenario iv, setting II, n1 = n2 = 50.

    One task is one call with M Monte Carlo runs; each run simulates a
    dataset, fits it and refits one within-group bootstrap resample.
    """

    M = 100
    TRACE_TASKS = 2

    def __init__(self, name: str, censored: bool, seed: int):
        self.name = name
        self.censored = censored
        self.seed = seed
        self.task_runs = []

    def setup(self) -> None:
        self.scenario = sim.make_scenario("iv", "II", 50, 50, self.censored)
        data = sim.simulate_dataset(self.scenario, np.random.default_rng(self.seed))
        releff.FitSpec().fit(data)

    def describe_inputs(self) -> dict:
        sc = self.scenario
        return {"scenario": sc.scenario_id, "setting": sc.setting, "n1": sc.n1, "n2": sc.n2,
                "censored": sc.censored, "M_per_task": self.M}

    def _check_rows(self, rows, result) -> int:
        labels = [(r["scenario"], r["setting"], r["n1"], r["n2"], r["censored"], r["hypothesis"])
                  for r in rows]
        design = ("iv", "II", 50, 50, "yes" if self.censored else "no")
        bad = int(labels != [(*design, "H0(1)"), (*design, "H1(2)")])
        rates = [r[k] for r in rows for k in ("rate_emp", "rate_iqr", "rate_mad", "rate_quantile")]
        bad += sum(not 0.0 <= x <= 1.0 for x in rates)
        estimates = np.asarray(result.estimates)
        bad += int(estimates.shape != (self.M - result.failed, 1 + 2 * self.scenario.p))
        bad += int(not np.all(np.isfinite(estimates)))
        return bad

    def task(self, k: int, clock) -> dict:
        (rows, result), seconds, rel = clock(
            sim.run_scenario, self.scenario, M=self.M, seed=self.seed * 10_000 + k)
        self.task_runs.append((self.M - result.failed) / seconds)
        return {"seconds": seconds, "rel": rel, "attempted": self.M,
                "failed": int(result.failed), "check_failures": self._check_rows(rows, result)}

    def reference(self):
        rows, result = sim.run_scenario(self.scenario, M=self.M, seed=REF_SEED)
        return {"seed": REF_SEED, "M": self.M, "failed": int(result.failed), "rows": rows,
                "estimates": np.asarray(result.estimates).tolist()}

    def pin(self) -> None:
        with open(REFERENCES / f"{self.name}.json", "w") as fh:
            json.dump(self.reference(), fh, indent=1)

    def check_reference(self) -> dict:
        with open(REFERENCES / f"{self.name}.json") as fh:
            ref = json.load(fh)
        got = self.reference()
        bad = int(ref["failed"] != got["failed"])
        keys = list(ref["rows"][0])
        bad += compare_tables([[r[k] for k in keys] for r in ref["rows"]],
                              [[r.get(k) for k in keys] for r in got["rows"]])
        bad += compare_tables(ref["estimates"], got["estimates"])
        return {"attempted": self.M, "failed": got["failed"], "check_failures": bad}

    def info(self) -> dict:
        rate = statistics.median(self.task_runs)
        half = "censored" if self.censored else "uncensored"
        return {
            "mc_runs_per_s": (rate, "runs/s", f"median of {len(self.task_runs)} tasks"),
            "rejection_table_half_h": (
                10_000 * 24 / rate / 3600, "h",
                f"information only: 10 000 reps x 24 cells, {half}, at the n=50 rate"),
        }


class Study:
    """In-process ``releff fit``, ``test`` and ``predict`` on one study CSV.

    One task runs the three commands in turn: ``fit`` with the logit link,
    ``test`` with the logit link and a bootstrap, ``predict`` with the
    identity link, the tie correction and a bootstrap.
    """

    B = 10
    TRACE_TASKS = 1
    OUTPUTS = {"fit": "coefficients.csv", "test": "tests.csv", "predict": "predictions.csv"}

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.command_s = {cmd: [] for cmd in self.OUTPUTS}
        self.first_outputs = None

    def _write_study(self, seed: int, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        rows = study_data.generate(seed)
        path = directory / "study.csv"
        study_data.write_csv(rows, path)
        return path, study_data.describe(rows)

    def _argv(self, command: str, data: Path, seed: int, out_dir: Path) -> list:
        argv = [command, "--data", str(data), "--cov1", "age,marker", "--cov2", "age,marker",
                "--tau", str(study_data.TAU), "--out-dir", str(out_dir)]
        if command == "fit":
            return argv + ["--link", "logit"]
        link = "logit" if command == "test" else "identity"
        return argv + ["--link", link, "--seed", str(seed), "--bootstrap", str(self.B)]

    def setup(self) -> None:
        self.data, self.inputs = self._write_study(self.seed, self.workdir / "input")
        self.out_dir = self.workdir / "output"
        cli.main(self._argv("fit", self.data, self.seed, self.out_dir))

    def describe_inputs(self) -> dict:
        return {**self.inputs, "B": self.B, "link_fit_test": "logit", "link_predict": "identity"}

    def _run_commands(self, data: Path, seed: int, out_dir: Path, clock=plain_clock):
        seconds, rel, failed = {}, 0.0, 0
        for command in self.OUTPUTS:
            code, seconds[command], command_rel = clock(
                cli.main, self._argv(command, data, seed, out_dir))
            rel += command_rel
            failed += code != 0
        outputs = {c: read_csv(out_dir / f) for c, f in self.OUTPUTS.items()}
        return seconds, rel, failed, outputs

    def _check_shape(self, outputs) -> int:
        names = ["intercept", "g1:age", "g1:marker", "g2:age", "g2:marker"]
        bad = int([r[0] for r in outputs["fit"][1:]] != names)
        bad += int(len(outputs["test"]) != 1 + 4 * len(names))
        bad += int(len(outputs["predict"]) != 1 + self.inputs["n1"] + self.inputs["n2"])
        return bad

    def task(self, k: int, clock) -> dict:
        seconds, rel, failed, outputs = self._run_commands(
            self.data, self.seed, self.out_dir, clock)
        for command, s in seconds.items():
            self.command_s[command].append(s)
        if self.first_outputs is None:
            self.first_outputs = outputs
            bad = self._check_shape(outputs)
        else:
            bad = sum(compare_tables(self.first_outputs[c], outputs[c]) for c in outputs)
        return {"seconds": sum(seconds.values()), "rel": rel, "attempted": len(seconds),
                "failed": failed, "check_failures": bad}

    def reference(self):
        data, inputs = self._write_study(REF_SEED, self.workdir / "reference")
        _, _, failed, outputs = self._run_commands(data, REF_SEED, self.workdir / "reference")
        with open(data, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        return {"seed": REF_SEED, "csv_sha256": digest, "inputs": inputs}, failed, outputs

    def pin(self) -> None:
        meta, _, outputs = self.reference()
        directory = REFERENCES / self.name
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "input.json", "w") as fh:
            json.dump(meta, fh, indent=1)
        for command, filename in self.OUTPUTS.items():
            with open(directory / filename, "w", newline="") as fh:
                csv.writer(fh).writerows(outputs[command])

    def check_reference(self) -> dict:
        directory = REFERENCES / self.name
        with open(directory / "input.json") as fh:
            ref_meta = json.load(fh)
        meta, failed, outputs = self.reference()
        bad = int(meta["csv_sha256"] != ref_meta["csv_sha256"])
        for command, filename in self.OUTPUTS.items():
            bad += compare_tables(read_csv(directory / filename), outputs[command])
        return {"attempted": len(self.OUTPUTS), "failed": failed, "check_failures": bad}

    def info(self) -> dict:
        return {
            f"{command}_s": (statistics.median(s), "s", f"median of {len(s)} calls")
            for command, s in self.command_s.items()
        }


def make_workload(name: str, seed: int, workdir: Path):
    if name == "mc_censored":
        return MonteCarlo(name, True, seed)
    if name == "mc_uncensored":
        return MonteCarlo(name, False, seed)
    if name == "study_logit_n400":
        return Study(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_censored", "mc_uncensored", "study_logit_n400")


def _blas() -> dict:
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "releff").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def environment(seed: int) -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "releff": releff.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
        **_source_identity(),
    }


def _add(total: dict, part: dict) -> None:
    for key in ("attempted", "failed", "check_failures"):
        total[key] += part[key]


def measure(workload, seconds: float, totals: dict) -> dict:
    clock = Clock()
    task_s, task_rel = [], []
    start = time.perf_counter()
    while not task_s or time.perf_counter() - start < seconds:
        outcome = workload.task(len(task_s), clock)
        _add(totals, outcome)
        task_s.append(outcome["seconds"])
        task_rel.append(outcome["rel"])
    return {"task_s": task_s, "task_rel": task_rel, "info": workload.info()}


def _pass(workload, totals: dict) -> None:
    for k in range(workload.TRACE_TASKS):
        _add(totals, workload.task(k, plain_clock))


def traced_passes(workload, seconds: float, totals: dict) -> dict:
    """Alternate untraced and traced passes; per-layer medians over passes."""
    clock = Clock()
    untraced_rel, traced_rel, per_pass = [], [], []
    start = time.perf_counter()
    while not per_pass or time.perf_counter() - start < seconds:
        untraced_rel.append(clock(_pass, workload, totals)[2])
        tracer = spans.Tracer()
        layers.install(tracer)
        try:
            _, wall, rel = clock(_pass, workload, totals)
        finally:
            tracer.restore()
        traced_rel.append(rel)
        per_pass.append(layers.layer_metrics(tracer, wall))
        absent = tracer.absent
        hook_errors = {k: v for k, v in tracer.counts.items() if k.startswith("hook_errors.")}
    # median_low keeps counts whole; they repeat exactly across passes anyway
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    # traced over untraced time of the same tasks, in kernel units, minus 1
    metrics["trace.overhead_share"] = (
        statistics.median(traced_rel) / statistics.median(untraced_rel) - 1.0)
    return {"layers": metrics, "passes": len(per_pass), "absent": absent,
            "hook_errors": hook_errors, "tasks_per_pass": workload.TRACE_TASKS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.out / "work")
    workload.setup()
    setup_raw_s = time.perf_counter() - _T0
    # set-up time rescaled to the kernel's reference time, so that a slow
    # stretch on a shared host does not read as a slower set-up
    kernel_s = statistics.median(_kernel_seconds() for _ in range(3))
    result = {"setup_s": setup_raw_s * KERNEL_REF_S / kernel_s, "setup_raw_s": setup_raw_s}
    if not args.setup_only:
        totals = dict(workload.check_reference())
        if args.trace:
            result.update(traced_passes(workload, args.seconds, totals))
        else:
            result.update(measure(workload, args.seconds, totals))
        result.update(
            totals,
            inputs=workload.describe_inputs(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=environment(args.seed),
        )
    with open(args.out / ("setup.json" if args.setup_only else "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
