import csv
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_rejection_table_writes_rows_and_a_manifest(tmp_path, capsys):
    script = load_script("run_rejection_table")
    out = tmp_path / "table.csv"
    argv = ["--reps", "100", "--seed", "3", "--censored", "--out", str(out)]
    script.main(argv)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = len(script.GRID) * len(script.SIZES)
    assert len(rows) == 2 * cells
    manifest = json.loads((tmp_path / "table.manifest.json").read_text())
    assert (manifest["argv"], manifest["seed"], manifest["reps"]) == (argv, 3, 100)
    assert manifest["versions"]["python"] == platform.python_version()
    assert manifest["versions"]["numpy"] == np.__version__
    assert len(manifest["cells"]) == cells
    for cell, row in zip(manifest["cells"], rows[::2]):
        assert (cell["scenario"], cell["setting"]) == (row["scenario"], row["setting"])
        assert cell["seconds"] > 0
        assert cell["failed"] == int(row["failed"]) == cell["singular"] + cell["nonconverged"]
    assert capsys.readouterr().out.count("runs/s") == cells
