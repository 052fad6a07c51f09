"""The README states the package's contract, and nothing of its mechanism
that could drift: its library quick start runs, its quoted calls name the
parameters the code takes, it names every public name, CLI option, exit code
and manifest key, every ``releff`` command it shows parses, and it quotes no
private name.  Each check is also shown to fail on a README that lacks one
of its entries."""

import argparse
import ast
import contextlib
import csv
import importlib
import inspect
import io
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import releff
from releff import cli
from releff.inference import FAILURE_CAUSES
from conftest import random_dataset

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
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


# Each check lists the entries whose pattern ``text`` lacks; removing the
# text that an entry's pattern matches shows that the check catches it.

def missing(text, entries, pattern):
    return [entry for entry in entries if not re.search(pattern(entry), text)]


def public_names():
    """The names that ``releff/__init__.py`` imports."""
    tree = ast.parse(Path(releff.__file__).read_text(encoding="utf-8"))
    return [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def name_pattern(name):
    """A span that quotes ``name``: alone, as a call or as an assignment."""
    return rf"`{name}(?:\([^`\n]*\)| = [^`\n]*)?`"


def option_strings():
    """Every option string of ``releff`` and of each of its subcommands."""
    parser = cli.build_parser()
    commands = next(action.choices.values() for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return sorted({option for p in (parser, *commands) for action in p._actions
                   for option in action.option_strings})


def option_pattern(option):
    return rf"(?<![\w-]){re.escape(option)}(?![\w-])"


def exit_codes():
    """Exit code -> meaning, as the ``cli`` module docstring states them."""
    stated = re.search(r"Exit codes: (.*?)\.", cli.__doc__, re.S).group(1)
    return {int(code): " ".join(meaning.split())
            for code, meaning in re.findall(r"(\d+) ([^,]+)", stated)}


def exit_code_pattern(code):
    """The README's table row for ``code``: | code | meaning | cases |."""
    return rf"(?m)^\| {code} \| {exit_codes()[code]} \|.*\n"


def test_the_cli_docstring_states_every_exit_code():
    assert sorted(exit_codes()) == sorted(
        value for name, value in vars(cli).items() if name.startswith("EXIT_"))


@pytest.fixture(scope="module")
def manifest_keys(tmp_path_factory):
    """The keys of the manifests that fit (with a bootstrap), test (logit
    link), predict and simulate write on small inputs.  A key that holds a
    file name or a failure cause stands as its pattern, and each cause is
    an entry of its own."""
    tmp = tmp_path_factory.mktemp("manifests")
    data = random_dataset(np.random.default_rng(7), 20, 22, p1=1, p2=1)
    path = tmp / "study.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "time", "status", "age"])
        for group, times, events, Z in ((1, data.times1, data.events1, data.covariates1),
                                        (2, data.times2, data.events2, data.covariates2)):
            writer.writerows(zip([group] * len(times), times, events.astype(int), Z[:, 0]))
    argv = ["--data", str(path), "--cov1", "age", "--cov2", "age", "--tau", "2",
            "--seed", "1", "--bootstrap", "5"]
    runs = {"fit": ["fit", *argv], "test": ["test", *argv, "--link", "logit"],
            "predict": ["predict", *argv],
            "simulate": ["simulate", "--scenario", "i", "--n1", "10", "--n2", "12",
                         "--reps", "100", "--seed", "1"]}
    keys = set(FAILURE_CAUSES)
    for command, args in runs.items():
        assert cli.main([*args, "--out-dir", str(tmp / command)]) == cli.EXIT_OK
        for line in (tmp / command / "manifest.txt").read_text(encoding="utf-8").splitlines():
            key = line.split("=", 1)[0]
            head, _, tail = key.partition(".")
            if head == "input" and key.endswith(".sha256"):
                key = "input.<name>.sha256"
            elif tail in FAILURE_CAUSES:
                key = f"{head}.<cause>"
            keys.add(key)
    return sorted(keys)


def key_pattern(key):
    """A span that names ``key``, alone or as ``key=value``."""
    return rf"`{re.escape(key)}(?:=[^`\n]*)?`"


def test_readme_names_every_public_name():
    assert missing(TEXT, public_names(), name_pattern) == []


def test_readme_names_every_option_of_every_command():
    assert missing(TEXT, option_strings(), option_pattern) == []


def test_readme_gives_every_exit_code_its_meaning():
    assert missing(TEXT, exit_codes(), exit_code_pattern) == []


def test_readme_names_every_manifest_key(manifest_keys):
    assert {"config.B", "bootstrap.<cause>", "montecarlo.<cause>", "predict.interval",
            "input.<name>.sha256", "output", *FAILURE_CAUSES} <= set(manifest_keys)
    assert missing(TEXT, manifest_keys, key_pattern) == []


@pytest.mark.parametrize("kind", ["public name", "option", "exit code", "manifest key"])
def test_each_check_fails_without_any_one_entry(kind, manifest_keys):
    entries, pattern = {
        "public name": (public_names(), name_pattern),
        "option": (option_strings(), option_pattern),
        "exit code": (list(exit_codes()), exit_code_pattern),
        "manifest key": (manifest_keys, key_pattern),
    }[kind]
    assert entries
    for entry in entries:
        assert missing(re.sub(pattern(entry), "", TEXT), entries, pattern) == [entry], entry


def readme_commands(text):
    """The arguments of every ``releff`` line in the README's sh blocks,
    continuation lines joined and comments dropped."""
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["releff"]:
                yield words[1:]


def unparsable_commands(text):
    parser, bad = cli.build_parser(), []
    for argv in readme_commands(text):
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit:
            bad.append(argv)
    return bad


def test_every_readme_command_parses():
    assert {argv[0] for argv in readme_commands(TEXT)} == {"fit", "test", "predict", "simulate"}
    assert unparsable_commands(TEXT) == []


def test_a_removed_option_in_a_readme_command_fails_to_parse():
    stale = TEXT.replace("--reps 1000 --seed 1", "--reps 10000 --long-run --seed 1")
    assert stale != TEXT
    assert [argv[0] for argv in unparsable_commands(stale)] == ["simulate"]


def private_names(text):
    """Private names, ``_name`` or ``module._name``, quoted in the backticked
    spans and fenced blocks of ``text``; dunder names are not private."""
    quoted = re.findall(r"`([^`\n]+)`", text) + re.findall(r"```\w*\n(.*?)```", text, re.S)
    return [name for part in quoted
            for name in re.findall(r"(?:[A-Za-z]\w*\.)*(?<!\w)_[A-Za-z]\w*", part)]


def test_readme_quotes_no_private_name():
    assert private_names(TEXT) == []
    assert private_names("see `gee._Evaluator`, `_bounded_draws` and `__version__`") == [
        "gee._Evaluator", "_bounded_draws"]
