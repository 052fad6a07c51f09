"""Rewrite the pinned reference outputs in ``bench/references``.

    python3 bench/pin_references.py [WORKLOAD ...]

Run this only when a change to releff is meant to change its numbers; say
so in the change, because every benchmark run compares against these files.
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import workload


def main(names) -> int:
    workload.REFERENCES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workload.ROOT) as tmp:
        for name in names or workload.WORKLOADS:
            wl = workload.make_workload(name, workload.REF_SEED, Path(tmp))
            wl.setup()
            wl.pin()
            print(f"pinned {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
