import csv
import importlib.util
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from releff.cli import library_versions

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
    assert manifest["versions"] == library_versions()
    assert len(manifest["cells"]) == cells
    for cell, row in zip(manifest["cells"], rows[::2]):
        assert (cell["scenario"], cell["setting"]) == (row["scenario"], row["setting"])
        assert cell["seconds"] > 0
        assert cell["failed"] == int(row["failed"]) == (
            cell["singular"] + cell["nonconverged"] + cell["saturated"])
    assert capsys.readouterr().out.count("runs/s") == cells


def test_censoring_rates_prints_every_design(capsys):
    load_script("run_censoring_rates").main(["--n", "2000", "--seed", "3"])
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["scenario", "setting", "group1", "%", "group2", "%"]
    assert [r.split()[:2] for r in rows] == [
        [s, t] for s in ("i", "ii", "iii", "iv") for t in ("I", "II")]
    for row in rows:
        assert all(0.0 <= float(x) <= 100.0 for x in row.split()[2:]), row


def test_coverage_check_prints_both_coefficients(capsys):
    load_script("run_coverage_check").main(["--reps", "20", "--seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["beta[1]", "beta[3]"]
    for line in lines:
        coverage = float(line.split()[2])
        # a share of the 20 runs
        assert 0.0 <= coverage <= 1.0, line
        assert coverage * 20 == pytest.approx(round(coverage * 20), abs=1e-9), line
