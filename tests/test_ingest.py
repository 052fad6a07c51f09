"""CSV ingestion: the column passes of ``cli._read_groups`` against the row
loop ``oracles.read_groups``, which reads one row at a time.  Both must keep
the same rows, drop the same rows and raise the same first error."""

import csv
import io
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from releff import cli
from releff.cli import AnalysisConfig, ParseFailure, ingest_csv


def outcome(reader, path, config):
    """What ``reader`` makes of the CSV file ``path``, opened as
    ``ingest_csv`` opens it: ("ok", (dtype, shape, bytes) of each group's
    times, status and covariates, the dropped rows) or ("error", the
    exception's type, its message)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            groups, dropped = reader(path, fh, config)
    except (ParseFailure, UnicodeDecodeError, csv.Error) as exc:
        return "error", type(exc), str(exc)
    arrays = []
    for g, names in ((1, config.covariates1), (2, config.covariates2)):
        t, e, z = (np.array(groups[g][key]) for key in "tez")
        arrays += [t, e, z.reshape(t.size, len(names))]
    return "ok", [(a.dtype, a.shape, a.tobytes()) for a in arrays], dropped


def assert_same_ingest(path, config):
    """The column passes and the row loop agree bit for bit on ``path``."""
    got = outcome(cli._read_groups, path, config)
    assert got == outcome(oracles.read_groups, path, config)
    return got


def write_text(path, header, rows, bom=False):
    """A CSV file of ``header`` and ``rows``; a row None is a blank line."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(header)
    for row in rows:
        out.write("\r\n") if row is None else writer.writerow(row)
    path.write_text(("\ufeff" if bom else "") + out.getvalue(), encoding="utf-8")


# per column: cells that read, blank cells (the row is dropped) and cells
# that fail a check; a blank group label fails, and a negative time reads
# and fails only on a censored row
_CELLS = {
    "group": (["1", "2"], ["1", "2"], ["3", "", " 1", "1.0", "x"]),
    "status": (["0", "1"], ["", " "], ["2", " 1", "1.0", "-1"]),
    None: ([" 2.5 ", "1_0", "-0", "1e-3", "-2", "17"], ["", " ", "\t"],
           ["nan", "NaN", "inf", "-inf", "1e400", "abc", "1,5", "0x1", "--1"]),
}


def random_cell(rnd, name, faults):
    """A cell of column ``name``: a fail cell with weight ``faults`` (of 10
    + faults), a blank one with weight 2, else one that reads, for numbers
    half of them a float in [-5, 50)."""
    read, blank, fail = _CELLS.get(name, _CELLS[None])
    kind = rnd.randrange(10 + faults)
    if kind >= 10:
        return rnd.choice(fail)
    if kind >= 8:
        return rnd.choice(blank)
    if name not in _CELLS and rnd.random() < 0.5:
        return repr(rnd.uniform(-5, 50))
    return rnd.choice(read)


@st.composite
def csv_case(draw):
    """Header, rows (None a blank line) and covariates of a CSV case: header
    names repeated or missing, rows short or long, cells with white space,
    underscores, nan and inf, bad labels and statuses, and a covariate that
    one group names but the header lacks ("weight").  A third of the cases
    have no cell that fails a check, a third one in 11 and a third 4 in 14."""
    header = list(draw(st.permutations(["group", "time", "status", "age", "marker"])))
    for name in draw(st.lists(st.sampled_from(["age", "time", "group", "other"]), max_size=2)):
        header.insert(draw(st.integers(0, len(header))), name)
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    if rnd.random() < 0.05:
        header.remove(rnd.choice(["group", "time", "status"]))
    faults = rnd.choice([0, 1, 4])
    rows = []
    for _ in range(rnd.randrange(26)):
        end = rnd.random()
        if end < 0.05:
            rows.append(None)
            continue
        row = [random_cell(rnd, name, faults) for name in header]
        if end < 0.1:
            row = row[:rnd.randrange(len(header))]
        elif end < 0.15:
            row.append(random_cell(rnd, "other", faults))
        rows.append(row)
    covariates = [rnd.sample(["age", "marker", "time"], rnd.randrange(3)) for _ in (1, 2)]
    if rnd.random() < 0.1:
        rnd.choice(covariates).append("weight")
    return header, rows, *covariates


@given(csv_case(), st.booleans(), st.sampled_from([1, 2, 3, cli.BLOCK_ROWS]))
@settings(deadline=None, max_examples=500)
def test_column_passes_match_the_row_loop(case, bom, block_rows):
    header, rows, covariates1, covariates2 = case
    config = AnalysisConfig(covariates1=covariates1, covariates2=covariates2)
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "BLOCK_ROWS", block_rows)
        path = Path(tmp) / "case.csv"
        write_text(path, header, rows, bom)
        assert_same_ingest(path, config)


def boundary_rows(n):
    """n rows, both groups, with an age missing in rows 3 and 100 and, after
    a blank line, in the third row past the first block."""
    rows = [[1 + k % 2, f"{0.01 * (k + 1):.2f}", int(k % 3 > 0), k % 7 - 3] for k in range(n)]
    for row_no in (3, 100, cli.BLOCK_ROWS + 3):
        rows[row_no - 2][3] = ""
    rows.insert(50, None)
    return rows


def test_drops_and_errors_keep_their_row_numbers_across_a_block_boundary(tmp_path):
    n = cli.BLOCK_ROWS + 8
    path = tmp_path / "long.csv"
    header = ["group", "time", "status", "age"]
    config = AnalysisConfig(covariates1=["age"], covariates2=["age"])
    rows = boundary_rows(n)
    write_text(path, header, rows)
    ok, _, dropped = assert_same_ingest(path, config)
    assert ok == "ok" and dropped == [3, 100, cli.BLOCK_ROWS + 3]
    # row BLOCK_ROWS + 5 is in the second block; the blank line is not counted
    rows[cli.BLOCK_ROWS + 4][2] = 2
    write_text(path, header, rows)
    assert assert_same_ingest(path, config) == (
        "error", ParseFailure,
        f"row {cli.BLOCK_ROWS + 5}, column 'status': expected 0 or 1, got '2'")


def test_rows_before_an_undecodable_byte_are_checked_before_it_raises(tmp_path):
    # the decoder reads the file in chunks, so a row loop checks the rows of
    # the chunks before a bad byte and raises their first error, if any
    path = tmp_path / "late.csv"
    rows = [f"{1 + k % 2},{k}.5,1\n" for k in range(2000)]
    for bad_status in (False, True):
        rows[1] = "1,1.5,7\n" if bad_status else "1,1.5,1\n"
        path.write_bytes(b"group,time,status\n" + "".join(rows).encode() + b"2,\xe9,1\n")
        got = assert_same_ingest(path, AnalysisConfig())
        assert got[1] == (ParseFailure if bad_status else UnicodeDecodeError)


def test_column_passes_hold_no_more_memory_than_the_row_loop(tmp_path, monkeypatch):
    rng = np.random.default_rng(0)
    path = tmp_path / "large.csv"
    rows = [[1 + k % 2, f"{3 * rng.random():.2f}", int(rng.random() < 0.7),
             f"{rng.standard_normal():.3f}", int(rng.random() < 0.4)] for k in range(20_000)]
    write_text(path, ["group", "time", "status", "age", "marker"], rows)
    config = AnalysisConfig(tau=2.0, covariates1=["age", "marker"],
                            covariates2=["age", "marker"])

    def peak():
        tracemalloc.start()
        try:
            data = ingest_csv(path, config)
            return tracemalloc.get_traced_memory()[1], data
        finally:
            tracemalloc.stop()

    columns, data = peak()
    monkeypatch.setattr(cli, "_read_groups", oracles.read_groups)
    rows_loop, want = peak()
    for name in ("times1", "events1", "covariates1", "times2", "events2", "covariates2"):
        np.testing.assert_array_equal(getattr(data, name), getattr(want, name))
    assert columns <= rows_loop
