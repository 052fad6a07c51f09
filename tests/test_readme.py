"""The README's library quick start runs against the package as it is."""

import re
from pathlib import Path

from conftest import random_dataset

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The python block under the README's "## Library quick start"."""
    section = README.read_text(encoding="utf-8").split("## Library quick start\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(rng):
    data = random_dataset(rng, 20, 20)
    names = {"times1": data.times1, "events1": data.events1, "Z1": data.covariates1,
             "times2": data.times2, "events2": data.events2, "Z2": data.covariates2}
    exec(quick_start(), names)
    assert names["pred"].point.shape == (40,)
    assert names["ens"].failed == 0
