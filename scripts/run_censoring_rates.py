"""Empirical censoring rates of every scenario/setting design.

Each design draws one censored dataset with n subjects per group through
``releff.sim.censoring_rates``, the same process as the Monte Carlo runs.
Uniform censoring on [0, 10] (group 1) and [0, 15] (group 2) produces
group-1 rates in roughly 8.8%-16.3% and group-2 rates in 5.0%-8.7%
across the simulation designs; this script verifies those bands at a
configurable sample size.

    python scripts/run_censoring_rates.py --n 1000000 --seed 108
"""

import argparse
import sys

from releff.sim import censoring_rates, make_scenario


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1_000_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'scenario':>8} {'setting':>7} {'group1 %':>9} {'group2 %':>9}")
    for scenario_id in ("i", "ii", "iii", "iv"):
        for setting in ("I", "II"):
            sc = make_scenario(scenario_id, setting, 50, 50, censored=True)
            r1, r2 = censoring_rates(sc, args.n, seed=args.seed)
            print(f"{scenario_id:>8} {setting:>7} {100 * r1:9.2f} {100 * r2:9.2f}")


if __name__ == "__main__":
    sys.exit(main())
