"""Static checks of the package sources: every name a module imports is used,
every name its ``__all__`` exports is bound, every module-level private
name is read somewhere in the package, one function runs Newton and
builds its start, and no module reads an attribute of a name that the
benchmark's tracer replaces with a plain function.  In a
fresh interpreter, importing the package and running each command loads no
scipy module, and on glibc a warm Monte Carlo task faults in few pages."""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import releff

PACKAGE = Path(releff.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCH_LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def unused_imports(source: str):
    """(line, name) of each name that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_checker_finds_unused_names():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nnp.f(d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def stale_exports(source: str):
    """Names in the module-level ``__all__`` of ``source`` that the module
    never binds: not defined, assigned or imported at its top level."""
    tree = ast.parse(source)
    bound = set()
    exported = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
                bound |= names
                if names == {"__all__"}:
                    exported = ast.literal_eval(node.value)
    return [name for name in exported if name not in bound]


def test_checker_finds_stale_exports():
    source = ('from a import b\nimport c.d\nX, Y = 1, 2\nZ: int = 3\n'
              'def f(): pass\nclass K: pass\n'
              '__all__ = ["b", "c", "X", "Y", "Z", "f", "K", "gone"]\n')
    assert stale_exports(source) == ["gone"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_bound(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def unread_private_names(sources: dict):
    """(module, name) of each module-level private name (one leading
    underscore: a function, class or assigned constant) that no statement
    of ``sources`` (module name -> source) reads outside its own top-level
    definition.  A read is a loaded name, an attribute or an imported name."""
    defined, reads = [], []
    for module, source in sources.items():
        for k, node in enumerate(ast.parse(source).body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            where = (module, k)
            defined += [(where, n) for n in names if n.startswith("_") and not n.startswith("__")]
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.append((where, n.id))
                elif isinstance(n, ast.Attribute):
                    reads.append((where, n.attr))
                elif isinstance(n, ast.alias):
                    reads.append((where, n.name))
    return [(where[0], name) for where, name in defined
            if not any(r == name and w != where for w, r in reads)]


def test_checker_finds_unread_private_names():
    sources = {
        "a": ("_LIMIT = 3\n_UNUSED = 4\n__dunder__ = 5\n"
              "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
              "class _Alone: pass\ndef public(): return _Used()\n"),
        "b": "from .a import _imported\nclass _Used:\n    def go(self): return self._private\n",
    }
    assert unread_private_names(sources) == [
        ("a", "_UNUSED"), ("a", "_helper"), ("a", "_Alone")]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def traced_entry_points():
    """(module, attribute) of each entry of ``ENTRY_POINTS`` in the
    benchmark's ``layers.py``: under ``--trace 1`` the tracer replaces
    ``releff.<module>.<attribute>`` with a plain function that calls it."""
    for node in ast.parse(BENCH_LAYERS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "ENTRY_POINTS":
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise AssertionError("no ENTRY_POINTS in " + str(BENCH_LAYERS))


def attribute_reads(source: str, name: str):
    """Lines on which ``source`` reads an attribute of the bare name ``name``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == name]


def test_checker_finds_attribute_reads():
    source = "X.stack([])\nX(1)\ny.X\nX.a.b\nx = X\n"
    assert attribute_reads(source, "X") == [1, 4]


@pytest.mark.parametrize("module, attribute", traced_entry_points(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_traced_entry_points_are_only_called(module, attribute):
    # a traced name is a function, so an attribute read through it (a
    # classmethod, a constant) works untraced and fails under tracing
    path = PACKAGE / f"{module}.py"
    assert attribute_reads(path.read_text(encoding="utf-8"), attribute) == []


def callers(sources: dict, callee: str):
    """(module, function) of each innermost function or method of
    ``sources`` (module name -> source) that calls ``callee``, by name or as
    an attribute (``gee.solve_newton``)."""
    found = set()

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            inner = function
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.add((module, function))
            visit(child, module, inner)

    for module, source in sources.items():
        visit(ast.parse(source), module, None)
    return found


def test_checker_finds_callers():
    sources = {"a": "def f():\n    g.solve(1)\n    def h(): solve(2)\nsolve(3)\n",
               "b": "class K:\n    def m(self): return [solve]\n"}
    assert callers(sources, "solve") == {("a", "f"), ("a", "h"), ("a", None)}


@pytest.mark.parametrize("callee", ["solve_newton", "_logit_start"])
def test_one_function_starts_and_judges_newton(callee):
    # FitSpec._fit_stack alone builds a logit start, runs Newton and judges
    # the root it stops at, so a second start or root rule cannot come back
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert callers(sources, callee) == {("inference.py", "_fit_stack")}


def fresh_interpreter(code: str) -> str:
    """What ``code`` prints in a fresh interpreter; the test modules load
    scipy themselves."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    rows = [(g, 0.5 * k + g / 10, k % 3 > 0) for g in (1, 2) for k in range(1, 9)]
    path.write_text("group,time,status\n" + "".join(f"{g},{t},{int(e)}\n" for g, t, e in rows))
    return path


COMMANDS = {   # None: import the package and its CLI only
    "import": None,
    "fit": ["fit"],
    "fit-bootstrap": ["fit", "--bootstrap", "20", "--seed", "1"],
    "test": ["test", "--bootstrap", "20", "--seed", "1"],
    "predict": ["predict", "--bootstrap", "20", "--seed", "1"],
    "simulate": ["simulate", "--scenario", "i", "--n1", "10", "--n2", "12", "--reps", "100",
                 "--seed", "1"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_no_command_loads_scipy(command, small_csv, tmp_path):
    # releff runs on numpy alone: z comes from inference._ndtri, and the
    # scipy.special import was most of the start-up time and memory of each
    # CLI process
    argv = COMMANDS[command]
    code = "import sys, releff, releff.cli; "
    if argv is not None:
        if command != "simulate":
            argv = [*argv, "--data", str(small_csv)]
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
        code += f"print(releff.cli.main({argv!r})); "
    code += "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    printed = fresh_interpreter(code).splitlines()
    assert printed[-1] == "[]"
    if argv is not None:
        assert printed[-2] == "0"


def test_warm_monte_carlo_tasks_fault_in_few_pages():
    # the 8 MiB block inference frees at import lifts glibc's mmap and trim
    # thresholds, so a warm task reuses its chunk's temporaries instead of
    # faulting them back in: about 4 faults per task with the block, about
    # 550 without it
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        pytest.skip("glibc malloc thresholds")
    code = ("import resource; from releff import sim; "
            "sc = sim.make_scenario('iv', 'II', 50, 50, censored=False); "
            "[sim.run_scenario(sc, M=100, seed=k) for k in range(5)]; "
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
            "[sim.run_scenario(sc, M=100, seed=k) for k in range(5, 35)]; "
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 30)")
    assert float(fresh_interpreter(code)) < 50
