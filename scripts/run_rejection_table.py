"""Rejection-rate study across scenarios, settings, and sample sizes.

Produces one CSV row per (scenario, setting, sizes, censoring, hypothesis)
combination with the four bootstrap-test rejection rates, the number of
failed Monte Carlo runs and the degenerate-scale flag, mirroring the layout
used by `releff simulate`.  Each cell's wall seconds and runs per second are
printed, and a manifest (the command line, seed, reps, library versions,
BLAS thread variables and per-cell seconds and failure counts) is written
beside the CSV as `<out stem>.manifest.json`.  Quick by default; pass
--reps 10000 with --long-run for a full-scale run.  On a 2-vCPU Xeon VM
with one BLAS thread a censoring half takes about 0.9-1.1 s at --reps 200,
most of it start-up, and 23.3 s for
`OPENBLAS_NUM_THREADS=1 python scripts/run_rejection_table.py --reps 10000
--long-run --censored` (0.8-1.3 s per cell).  The uncensored half, the same
command without --censored, takes 16.6-21.0 s summed over its cells in five
runs; it took 22.1-24.4 s when fully observed marginals still came from the
leave-one-out jackknife rather than from pair-indicator counts.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from releff.cli import library_versions
from releff.sim import check_reps, make_scenario, run_scenario, write_result_rows

SIZES = [(40, 60), (50, 50), (80, 50)]
GRID = [("i", "I"), ("i", "II"), ("ii", "I"), ("ii", "II"),
        ("iii", "I"), ("iii", "II"), ("iv", "I"), ("iv", "II")]


def manifest_path(out: Path) -> Path:
    return out.with_name(out.stem + ".manifest.json")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--reps", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--censored", action="store_true")
    ap.add_argument("--long-run", action="store_true")
    ap.add_argument("--out", default="rejection_table.csv")
    args = ap.parse_args(argv)
    try:
        check_reps(args.reps, args.long_run)
    except ValueError as exc:
        ap.error(str(exc))

    rows = []
    cells = []
    for scenario_id, setting in GRID:
        for n1, n2 in SIZES:
            sc = make_scenario(scenario_id, setting, n1, n2, args.censored)
            start = time.perf_counter()
            new_rows, result = run_scenario(sc, M=args.reps, seed=args.seed)
            seconds = time.perf_counter() - start
            rows.extend(new_rows)
            cells.append({
                "scenario": scenario_id, "setting": setting, "n1": n1, "n2": n2,
                "seconds": seconds, "failed": result.failed, **result.failures,
            })
            for r in new_rows:
                print(
                    f"{r['scenario']:>3} {r['setting']:>2} ({n1},{n2}) "
                    f"{r['hypothesis']}: emp={r['rate_emp']:.3f} "
                    f"iqr={r['rate_iqr']:.3f} mad={r['rate_mad']:.3f} "
                    f"quant={r['rate_quantile']:.3f} "
                    f"failed={r['failed']} degenerate={r['degenerate']}"
                )
            print(f"{scenario_id:>3} {setting:>2} ({n1},{n2}): {seconds:.2f} s, "
                  f"{args.reps / seconds:.0f} runs/s")
    out = Path(args.out)
    write_result_rows(rows, out)
    manifest = {
        "argv": sys.argv[1:] if argv is None else list(argv),
        "seed": args.seed,
        "reps": args.reps,
        "censored": args.censored,
        "versions": library_versions(),
        "cells": cells,
    }
    manifest_path(out).write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {out} and {manifest_path(out)}")


if __name__ == "__main__":
    sys.exit(main())
