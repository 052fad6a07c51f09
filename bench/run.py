"""releff benchmark: one workload per call, end-to-end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports releff from ``src/`` there
and fails if that is missing.  The workload runs in a child process with
one BLAS thread.  With ``--trace 0`` the set-up is also repeated in
separate processes and its median reported.  Human-readable lines come
first; the last line of standard output is one JSON object with the metrics
named in ``BENCHMARK.json``.  The full record, with the environment, goes to
``.bench_out/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("mc_censored", "mc_uncensored", "study_logit_n400")
SETUP_PROBES = 3
DEADLINE_S = 170.0
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def fail(message: str) -> int:
    print(f"benchmark failed: {message}", file=sys.stderr)
    return 1


def run_child(args, out_dir: Path, setup_only: bool, deadline: float) -> dict:
    argv = [sys.executable, str(BENCH / "workload.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        argv.append("--setup-only")
    log = out_dir / ("setup.log" if setup_only else "workload.log")
    with open(log, "w") as fh:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **CHILD_ENV}, stdout=fh,
                              stderr=subprocess.STDOUT, timeout=max(deadline - time.monotonic(), 1))
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").splitlines()[-15:]
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n" + "\n".join(tail))
    with open(out_dir / ("setup.json" if setup_only else "result.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "releff" / "__init__.py").is_file():
        return fail(f"no releff sources under {ROOT / 'src'}; run from a full checkout")
    with open(ROOT / "BENCHMARK.json") as fh:
        contract = json.load(fh)
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        probes = [] if args.trace else [
            run_child(args, out_dir, True, deadline) for _ in range(SETUP_PROBES)]
        result = run_child(args, out_dir, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    setups = [p["setup_s"] for p in probes + [result]]
    setups_raw = [p["setup_raw_s"] for p in probes + [result]]
    measured = {}
    if args.trace:
        measured.update(result["layers"])
    else:
        measured.update(setup_s=statistics.median(setups),
                        task_rel=statistics.median(result["task_rel"]),
                        peak_rss_mb=result["peak_rss_mb"])
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    attempted, failed, bad = result["attempted"], result["failed"], result["check_failures"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    if not args.trace:
        tasks = result["task_s"]
        print(f"  setup_s: median of {len(setups)} set-ups in separate processes, each rescaled "
              f"to the calibration kernel's reference time; raw median "
              f"{statistics.median(setups_raw):.6g} s")
        print(f"  task_rel: median of {len(tasks)} tasks, each timed in units of the "
              "calibration kernel run just before and after it")
        print(f"task_s = {statistics.median(tasks):.6g} s (median of {len(tasks)} tasks"
              + (f", p90 {statistics.quantiles(tasks, n=10)[-1]:.6g} s" if len(tasks) >= 100 else "")
              + "; wall time, unsteady on a shared host)")
        for name, (value, unit, note) in result["info"].items():
            print(f"{name} = {value:.6g} {unit} ({note})")
    else:
        wall = measured["trace.wall_s"]
        shares = ", ".join(f"{name} {value / wall:.1%}" for name, value in measured.items()
                           if name.endswith("_s") and name != "trace.wall_s" and value)
        print(f"  share of trace.wall_s: {shares}")
        print(f"  {result['passes']} traced passes of {result['tasks_per_pass']} tasks; "
              f"absent entry points: {result['absent'] or 'none'}; "
              f"hook errors: {result['hook_errors'] or 'none'}")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} failed of {attempted} "
          "attempted: Monte Carlo runs and CLI commands, reference case included)")
    print(f"check_failures = {bad} count")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s_all": setups, "setup_raw_s_all": setups_raw,
              "metrics": metrics, **result}
    with open(out_dir / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": bad == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
