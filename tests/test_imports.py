"""Static check of the package sources: every name a module imports is used."""

import ast
from pathlib import Path

import pytest

import releff

MODULES = sorted(p for p in Path(releff.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
