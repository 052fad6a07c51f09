"""The README's library quick start runs against the package as it is, and
its quoted calls name the parameters the code takes."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import releff
from conftest import random_dataset

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [releff, *(importlib.import_module(f"releff.{m.name}")
                     for m in pkgutil.iter_modules(releff.__path__))]


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


def releff_object(name):
    """The releff function, class or method that the dotted public ``name``
    stands for in some module of the package, or None."""
    head, *rest = name.split(".")
    if any(part.startswith("_") for part in (head, *rest)):
        return None
    for module in MODULES:
        obj = getattr(module, head, None)
        for part in rest:
            obj = getattr(obj, part, None)
        if ((inspect.isfunction(obj) or inspect.isclass(obj))
                and obj.__module__.startswith("releff")):
            return obj
    return None


def test_quoted_signatures_match_the_code():
    """Every backticked call ``name(a, b=...)`` of a public releff name in
    the README quotes its parameters by name, in order; defaults, ``*``
    and ``...`` are not compared."""
    checked, wrong = [], []
    for span in re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")):
        for name, params in re.findall(r"([A-Za-z_][\w.]*)\(([^()]*)\)", span):
            obj = releff_object(name)
            if obj is None:
                continue
            quoted = [p.split("=")[0].strip() for p in params.split(",")]
            quoted = [p for p in quoted if p not in ("", "*", "...", "…")]
            actual = [p for p in inspect.signature(obj).parameters if p != "self"]
            checked.append(name)
            if quoted != actual:
                wrong.append(f"{name}({params}): the code takes {actual}")
    assert "solve_newton" in checked
    assert wrong == []
