import csv
import dataclasses
import hashlib
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import releff
from releff import cli, gee
from releff.cli import (
    EXIT_CONFIG,
    EXIT_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    AnalysisConfig,
    ConfigFailure,
    ParseFailure,
    ingest_csv,
    main,
)
from releff.inference import FitSpec, bootstrap
from conftest import random_dataset, two_subject_group
from oracles import theta_hat
from releff.pseudo import pseudo_marginals, pseudo_matrix, tie_correction_term
from releff.survival import stack_datasets


BENCH = Path(__file__).resolve().parents[1] / "bench"
STUDY_DATA = BENCH / "study_data.py"
STUDY_REFERENCE = BENCH / "references" / "study_logit_n400"


def study_data():
    """The benchmark's study CSV generator, ``bench/study_data.py``."""
    spec = importlib.util.spec_from_file_location("study_data", STUDY_DATA)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_csv(path, rows, header=("group", "time", "status")):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


@pytest.fixture
def four_row_csv(tmp_path):
    # groups {3,5} vs {1,4}, fully observed: 3 of 4 pairs ordered
    path = tmp_path / "four.csv"
    write_csv(path, [[1, 3.0, 1], [1, 5.0, 1], [2, 1.0, 1], [2, 4.0, 1]])
    return path


def write_dataset(path, data):
    """A dataset with one covariate per group as a CSV, every value exact:
    the covariate is column ``age``."""
    write_csv(path, [[g, repr(t), int(d), repr(z)] for g, times, events, Z in (
        (1, data.times1, data.events1, data.covariates1),
        (2, data.times2, data.events2, data.covariates2))
        for t, d, (z,) in zip(times.tolist(), events, Z.tolist())],
        header=("group", "time", "status", "age"))


@pytest.fixture
def two_subject_csv(tmp_path):
    """``two_subject_group`` with one covariate per group: a resample that
    draws one group-1 subject twice is singular."""
    path = tmp_path / "two_subjects.csv"
    write_dataset(path, two_subject_group(p2=1))
    return path


@pytest.fixture
def covariate_csv(tmp_path):
    rng = np.random.default_rng(3)
    rows = []
    for g, n in ((1, 20), (2, 22)):
        z = rng.standard_normal(n)
        t = np.exp(0.3 * z) * rng.weibull(2, n)
        for i in range(n):
            rows.append([g, f"{t[i]:.6f}", 1, f"{z[i]:.6f}"])
    path = tmp_path / "cov.csv"
    write_csv(path, rows, header=("group", "time", "status", "age"))
    return path


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigFailure):
            AnalysisConfig(alpha=1.5)
        with pytest.raises(ConfigFailure):
            AnalysisConfig(B=0)
        with pytest.raises(ConfigFailure):
            AnalysisConfig(tau=-1.0)
        with pytest.raises(ConfigFailure):
            AnalysisConfig(link="probit")
        with pytest.raises(ConfigFailure):
            AnalysisConfig(method="jackknife")

    def test_from_file_with_inf_tau(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "inf", "alpha": 0.1, "seed": 3}))
        config = AnalysisConfig(**cli._read_config(cfg))
        assert np.isinf(config.tau)
        assert config.alpha == 0.1

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"taus": 2.0}))
        with pytest.raises(ConfigFailure):
            AnalysisConfig(**cli._read_config(cfg))

    def test_config_with_byte_order_mark_is_read(self, tmp_path):
        # editors such as Notepad save UTF-8 with a leading byte-order mark
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"alpha": 0.1, "seed": 3}).encode())
        config = AnalysisConfig(**cli._read_config(cfg))
        assert (config.alpha, config.seed) == (0.1, 3)

    def test_config_not_utf8_exits_config(self, four_row_csv, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"link": "identity\xff"}')
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["fit", "--data", str(four_row_csv), "--tau", "10",
                       "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "cannot read config" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("top", ['["link"]', "5", "null", '"abc"'],
                             ids=["list", "number", "null", "string"])
    def test_top_level_not_an_object_exits_config(self, four_row_csv, tmp_path, caplog, top):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(top)
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["fit", "--data", str(four_row_csv), "--tau", "10",
                       "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "must hold a JSON object" in caplog.text
        assert not out.exists()

    def test_negative_seed_rejected(self, four_row_csv, tmp_path):
        with pytest.raises(ConfigFailure, match="seed"):
            AnalysisConfig(seed=-3)
        rc = main(["test", "--data", str(four_row_csv), "--tau", "10",
                   "--seed", "-3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG


    @pytest.mark.parametrize("raw, key", [
        ({"B": "ten"}, "B"),
        ({"B": True}, "B"),
        ({"alpha": "0.1"}, "alpha"),
        ({"seed": 1.5}, "seed"),
        ({"tau": "2"}, "tau"),
        ({"link": 1}, "link"),
        ({"method": None}, "method"),
        ({"covariates1": "age"}, "covariates1"),
        ({"covariates2": ["age", 3]}, "covariates2"),
        ({"strict_singular": "yes"}, "strict_singular"),
        ({"out_dir": 5}, "out_dir"),
    ], ids=["B-string", "B-bool", "alpha-string", "seed-float", "tau-string", "link-number",
            "method-null", "covariates1-string", "covariates2-number", "strict_singular-string",
            "out_dir-number"])
    def test_value_of_wrong_type_exits_config(self, four_row_csv, tmp_path, caplog, raw, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1, **raw}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["test", "--data", str(four_row_csv), "--tau", "10",
                       "--config", str(cfg), "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert f"configuration error: {key} must be " in caplog.text
        assert not out.exists()


class TestIngest:
    def test_four_row_fixture(self, four_row_csv):
        data = ingest_csv(four_row_csv, AnalysisConfig(tau=10.0))
        assert data.n1 == data.n2 == 2
        assert data.uncensored

    def test_status_two_named_in_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [[1, 1.0, 1], [1, 2.0, 2], [2, 1.0, 1], [2, 2.0, 1]])
        with pytest.raises(ParseFailure, match=r"row 3.*status"):
            ingest_csv(path, AnalysisConfig(tau=5.0))

    def test_unknown_group_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [[3, 1.0, 1], [1, 2.0, 1], [2, 1.0, 1], [2, 2.0, 1]])
        with pytest.raises(ParseFailure, match="group"):
            ingest_csv(path, AnalysisConfig(tau=5.0))

    def test_negative_censored_time(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [[1, -1.0, 0], [1, 2.0, 1], [2, 1.0, 1], [2, 2.0, 1]])
        with pytest.raises(ParseFailure, match="negative"):
            ingest_csv(path, AnalysisConfig(tau=5.0))

    @pytest.mark.parametrize("time, age, column", [
        ("nan", "0.2", "time"), ("inf", "0.2", "time"), ("2.0", "-inf", "age"),
    ])
    def test_non_finite_values_rejected(self, tmp_path, time, age, column):
        path = tmp_path / "bad.csv"
        write_csv(
            path,
            [[1, 3.0, 1, 0.1], [1, time, 1, age], [1, 5.0, 0, 0.3],
             [2, 1.0, 1, 0.4], [2, 2.0, 1, 0.5], [2, 4.0, 0, 0.6]],
            header=("group", "time", "status", "age"),
        )
        config = AnalysisConfig(tau=9.0, covariates1=["age"], covariates2=["age"])
        with pytest.raises(ParseFailure, match=rf"row 3, column '{column}'.*finite"):
            ingest_csv(path, config)
        assert main(["fit", "--data", str(path), "--cov1", "age", "--cov2", "age",
                     "--out-dir", str(tmp_path / "out")]) == EXIT_PARSE

    def test_blank_lines_are_not_counted_and_short_rows_are_dropped(self, tmp_path, caplog):
        path = tmp_path / "gaps.csv"
        path.write_text("group,time,status,age\n1,3.0,1,0.1\n\n1,4.0,1\n1,5.0,0,0.3\n\n"
                        "2,1.0,1,0.4\n2,2.0\n2,6.0,1,0.5,extra\n2,7.0,1,0.6\n")
        config = AnalysisConfig(tau=9.0, covariates1=["age"], covariates2=["age"])
        with caplog.at_level("WARNING", logger="releff"):
            data = ingest_csv(path, config)
        assert "dropped 2 incomplete rows: [3, 6]" in caplog.text
        assert (data.n1, data.n2) == (2, 3)
        np.testing.assert_array_equal(data.covariates2[:, 0], [0.4, 0.5, 0.6])
        path.write_text("group,time,status\n1,3.0,1\n\n1,4.0,1\n\n7\n")
        with pytest.raises(ParseFailure, match=r"^row 4, column 'group': expected 1 or 2, got '7'$"):
            ingest_csv(path, AnalysisConfig(tau=9.0))

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, [[1, 1.0], [2, 2.0]], header=("group", "time"))
        with pytest.raises(ParseFailure, match="status"):
            ingest_csv(path, AnalysisConfig(tau=5.0))

    def test_incomplete_rows_dropped_with_row_numbers(self, tmp_path, caplog):
        path = tmp_path / "gaps.csv"
        write_csv(
            path,
            [[1, 3.0, 1, 0.1], [1, "", 1, 0.2], [1, 4.0, 1, ""],
             [1, 5.0, 1, 0.3], [2, 1.0, 1, 0.4], [2, 2.0, 1, 0.5]],
            header=("group", "time", "status", "age"),
        )
        config = AnalysisConfig(tau=9.0, covariates1=["age"], covariates2=["age"])
        with caplog.at_level("WARNING", logger="releff"):
            data = ingest_csv(path, config)
        assert data.n1 == 2 and data.n2 == 2
        assert "[3, 4]" in caplog.text

    def test_group_specific_covariate_columns(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_csv(
            path,
            [[1, 3.0, 1, 0.1, ""], [1, 5.0, 1, 0.2, ""],
             [2, 1.0, 1, "", 0.3], [2, 4.0, 1, "", 0.4]],
            header=("group", "time", "status", "a", "b"),
        )
        config = AnalysisConfig(tau=9.0, covariates1=["a"], covariates2=["b"])
        data = ingest_csv(path, config)
        assert data.covariates1.shape == (2, 1) and data.covariates2.shape == (2, 1)

    def test_byte_order_mark_is_ignored(self, covariate_csv, tmp_path):
        bom_csv = tmp_path / "bom.csv"
        bom_csv.write_bytes(b"\xef\xbb\xbf" + covariate_csv.read_bytes())
        outs = []
        for name, path in (("plain", covariate_csv), ("bom", bom_csv)):
            out = tmp_path / name
            rc = main(["fit", "--data", str(path), "--tau", "4", "--cov1", "age",
                       "--cov2", "age", "--out-dir", str(out)])
            assert rc == EXIT_OK
            outs.append((out / "coefficients.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_tau_defaults_to_largest_time(self, four_row_csv, caplog):
        with caplog.at_level("WARNING", logger="releff"):
            data = ingest_csv(four_row_csv, AnalysisConfig())
        assert data.tau == 5.0
        assert "largest observed time" in caplog.text

    def test_default_tau_drops_a_group2_event_there(self, tmp_path, caplog):
        # the largest observed time 4 is a group-2 event, a group-1 event and
        # a group-1 censoring
        path = tmp_path / "tied.csv"
        write_csv(path, [[1, 1.0, 1], [1, 4.0, 1], [1, 4.0, 0], [2, 2.0, 1], [2, 4.0, 1]])
        with caplog.at_level("WARNING", logger="releff"):
            data = ingest_csv(path, AnalysisConfig())
        assert data.tau == 4.0
        assert "event at exactly tau is not counted" in caplog.text
        # theta-hat, the pseudo matrix and its marginals leave out the jump of
        # S2 at tau (counted, theta-hat would be 1/2): they equal their values
        # at a horizon below it
        below = dataclasses.replace(data, tau=3.5)
        assert theta_hat(data) == pytest.approx(1 / 3)
        np.testing.assert_array_equal(pseudo_matrix(data), pseudo_matrix(below))
        assert not np.array_equal(pseudo_matrix(data),
                                  pseudo_matrix(dataclasses.replace(data, tau=np.inf)))
        row_means, _ = pseudo_marginals(stack_datasets([data]))
        assert row_means[0].mean() == pytest.approx(1 / 3)
        # the tie correction counts the common jump at tau: half of
        # dS1(4) dS2(4) = (1/3)(1/2), where leaving it out would give 0
        assert tie_correction_term(data) == pytest.approx(1 / 12)

    def test_non_positive_default_tau_is_a_parse_error(self, tmp_path):
        path = tmp_path / "negative.csv"
        write_csv(path, [[1, -3.0, 1], [1, -1.0, 1], [2, -2.0, 1], [2, 0.0, 1]])
        with pytest.raises(ParseFailure, match="horizon"):
            ingest_csv(path, AnalysisConfig())
        assert main(["fit", "--data", str(path), "--out-dir", str(tmp_path)]) == EXIT_PARSE
        assert main(["fit", "--data", str(path), "--tau", "1",
                     "--out-dir", str(tmp_path)]) == EXIT_OK

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"group,time,status\n1,1.0,1\n1,2.0,1\n2,\xe9,1\n2,3.0,1\n")
        with pytest.raises(ParseFailure, match="UTF-8"):
            ingest_csv(path, AnalysisConfig())

    def test_unset_tau_recorded_as_used(self, four_row_csv, tmp_path):
        out = tmp_path / "out"
        assert main(["fit", "--data", str(four_row_csv), "--out-dir", str(out)]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "config.tau=None" in manifest
        assert "data.tau=5.0" in manifest

    def test_explicit_inf_tau_means_no_horizon(self, four_row_csv, tmp_path, caplog):
        with caplog.at_level("WARNING", logger="releff"):
            data = ingest_csv(four_row_csv, AnalysisConfig(tau=float("inf")))
        assert np.isinf(data.tau)
        assert "largest observed time" not in caplog.text
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": "inf"}))
        for name, flags in (("flag", ["--tau", "inf"]), ("file", ["--config", str(cfg)])):
            out = tmp_path / name
            rc = main(["fit", "--data", str(four_row_csv), "--out-dir", str(out)] + flags)
            assert rc == EXIT_OK
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert "data.tau=inf" in manifest, name


class TestCommands:
    def test_fit_four_rows_intercept_only(self, four_row_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["fit", "--data", str(four_row_csv), "--tau", "10",
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        with open(out / "coefficients.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["estimate"]) == pytest.approx(0.75)
        manifest = (out / "manifest.txt").read_text()
        assert "command=fit" in manifest and "sha256" in manifest

    def test_fit_round_trip_bit_stable(self, covariate_csv, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["fit", "--data", str(covariate_csv), "--tau", "4",
                       "--cov1", "age", "--cov2", "age", "--out-dir", str(out),
                       "--seed", "1", "--bootstrap", "25"])
            assert rc == EXIT_OK
            outs.append((out / "coefficients.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_test_command_table(self, covariate_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["test", "--data", str(covariate_csv), "--tau", "4",
                   "--cov1", "age", "--cov2", "age", "--out-dir", str(out),
                   "--seed", "2", "--bootstrap", "30"])
        assert rc == EXIT_OK
        with open(out / "tests.csv") as fh:
            rows = list(csv.DictReader(fh))
        # 3 coefficients x 4 methods
        assert len(rows) == 12
        assert {r["method"] for r in rows} == {"emp", "iqr", "mad", "quantile"}

    def test_predict_writes_classifications(self, covariate_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["predict", "--data", str(covariate_csv), "--tau", "4",
                   "--cov1", "age", "--cov2", "age", "--out-dir", str(out),
                   "--seed", "2", "--bootstrap", "30"])
        assert rc == EXIT_OK
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 42
        allowed = {"intervention-benefit", "control-benefit", "indeterminate"}
        assert {r["classification"] for r in rows} <= allowed

    def test_simulate_writes_rate_rows(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--scenario", "i", "--setting", "II",
                   "--n1", "15", "--n2", "15", "--reps", "120",
                   "--seed", "0", "--out-dir", str(out)])
        assert rc == EXIT_OK
        with open(out / "rejection_rates.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["hypothesis"] for r in rows] == ["H0(1)", "H0(2)"]
        assert [(r["failed"], r["degenerate"]) for r in rows] == [("0", "False")] * 2
        assert (out / "estimates.csv").exists()
        manifest = (out / "manifest.txt").read_text().splitlines()
        for line in ("montecarlo.failed=0", "montecarlo.singular=0",
                     "montecarlo.nonconverged=0", "montecarlo.saturated=0",
                     "montecarlo.degenerate=False"):
            assert line in manifest

    def test_simulate_manifest_records_degenerate_runs(self, tmp_path, monkeypatch):
        from releff import sim

        real = sim.run_scenario

        def degenerate(*args, **kwargs):
            rows, result = real(*args, **kwargs)
            return rows, dataclasses.replace(result, degenerate=True,
                                             failures=dict(result.failures, singular=3))

        monkeypatch.setattr(cli, "run_scenario", degenerate)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                     "--reps", "100", "--seed", "0", "--out-dir", str(out)]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text().splitlines()
        for line in ("montecarlo.failed=3", "montecarlo.singular=3",
                     "montecarlo.nonconverged=0", "montecarlo.saturated=0",
                     "montecarlo.degenerate=True"):
            assert line in manifest

    def test_manifest_records_library_versions(self, four_row_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert main(["fit", "--data", str(four_row_csv), "--out-dir", str(tmp_path)]) == EXIT_OK
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        assert manifest[:8] == [
            "command=fit", f"version={releff.__version__}",
            f"python={platform.python_version()}", f"numpy={np.__version__}",
            f"blas={blas['name']} {blas['version']}",
            f"env.OPENBLAS_NUM_THREADS={openblas}", "env.OMP_NUM_THREADS=3",
            "env.MKL_NUM_THREADS=unset",
        ]

    @pytest.mark.parametrize("show_config", [lambda: None, lambda mode: {}],
                             ids=["numpy-without-mode", "no-blas-entry"])
    def test_manifest_names_an_unknown_blas(self, show_config, four_row_csv, tmp_path,
                                            monkeypatch):
        monkeypatch.setattr(np, "show_config", show_config)
        assert main(["fit", "--data", str(four_row_csv), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert "blas=unknown" in (tmp_path / "manifest.txt").read_text().splitlines()

    def test_manifest_records_bootstrap_failures_by_cause(self, tmp_path):
        # a binary covariate in groups of 6: some resamples make it constant,
        # a singular design that --strict-singular refuses
        rng = np.random.default_rng(5)
        rows = [[g, f"{t:.4f}", 1, int(z)] for g in (1, 2)
                for t, z in zip(rng.weibull(2, 6), [0, 1, 0, 1, 1, 0])]
        path = tmp_path / "binary.csv"
        write_csv(path, rows, header=("group", "time", "status", "flag"))
        config = AnalysisConfig(tau=9.0, covariates1=["flag"], covariates2=["flag"])
        want = bootstrap(ingest_csv(path, config), spec=FitSpec(strict_singular=True),
                         B=40, seed=3)
        assert want.failures["singular"] > 0
        for command in ("fit", "test", "predict"):
            out = tmp_path / command
            assert main([command, "--data", str(path), "--tau", "9", "--cov1", "flag",
                         "--cov2", "flag", "--strict-singular", "--seed", "3",
                         "--bootstrap", "40", "--out-dir", str(out)]) == EXIT_OK, command
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert f"bootstrap.failed={want.failed}" in manifest, command
            assert f"bootstrap.singular={want.failures['singular']}" in manifest, command
            assert "bootstrap.nonconverged=0" in manifest, command
            assert "bootstrap.saturated=0" in manifest, command

    def test_test_with_every_replicate_failed_exits_convergence(self, two_subject_csv, tmp_path,
                                                                caplog, capsys):
        # at seed 10 each of the three replicates draws one group-1 subject twice
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["test", "--data", str(two_subject_csv), "--tau", "4", "--cov1", "age",
                       "--cov2", "age", "--strict-singular", "--seed", "10", "--bootstrap", "3",
                       "--out-dir", str(out)])
        assert rc == EXIT_CONVERGENCE
        assert "all bootstrap replicates failed" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "tests.csv").exists()

    def test_exit_codes_distinct(self, four_row_csv, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == EXIT_PARSE
        assert main(["test", "--data", str(four_row_csv)]) == EXIT_CONFIG
        assert main(["fit", "--data", str(four_row_csv), "--alpha", "2"]) == EXIT_CONFIG
        assert main(["simulate", "--scenario", "i", "--seed", "1",
                     "--reps", "10", "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_simulate_takes_more_than_2000_runs(self, tmp_path):
        # a full-scale study needs no extra flag: only fewer than 100 runs are refused
        assert main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10", "--seed", "1",
                     "--reps", "2001", "--out-dir", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "rejection_rates.csv").exists()

    def test_main_builds_its_parser_once(self, four_row_csv, tmp_path):
        # the parser is built once per process, each call still runs the
        # command its arguments name, and ``build_parser`` builds afresh
        cli._parser.cache_clear()
        assert main(["fit", "--data", str(four_row_csv), "--out-dir", str(tmp_path)]) == EXIT_OK
        assert main(["simulate", "--scenario", "i", "--reps", "10", "--seed", "1"]) == EXIT_CONFIG
        assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 1)
        assert (tmp_path / "coefficients.csv").exists()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("data, flags, code, message", [
        ("group,time,status\n1,abc,1\n1,2,1\n2,1,1\n2,2,1\n", [], EXIT_PARSE,
         "row 2, column 'time': not a number: 'abc'"),
        ("group,time,status\n1,-1,1\n1,2,1\n2,1,0\n2,2,1\n", [], EXIT_PARSE,
         "negative times require fully observed data"),
        ("", [], EXIT_PARSE, "empty file, header row required"),
        ("fixture", ["--cov1", "weight"], EXIT_PARSE, "missing covariate column 'weight'"),
        (None, [], EXIT_CONFIG, "an input data file is required"),
        ("fixture", ["--cov1", "age,age", "--cov2", "age", "--strict-singular"],
         EXIT_CONVERGENCE, "numerical failure: design second-moment matrix is singular"),
    ], ids=["time-not-a-number", "negative-time-censored", "empty-file", "missing-covariate",
            "no-data", "strict-singular"])
    def test_fit_exit_paths(self, covariate_csv, tmp_path, caplog, data, flags, code, message):
        given = []
        if data is not None:
            path = covariate_csv if data == "fixture" else tmp_path / "input.csv"
            if data != "fixture":
                path.write_text(data)
            given = ["--data", str(path)]
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["fit", *given, "--tau", "4", *flags, "--out-dir", str(tmp_path / "out")])
        assert rc == code
        assert message in caplog.text

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_out_dir_that_cannot_be_a_directory_exits_config(
            self, covariate_csv, tmp_path, monkeypatch, caplog, command, under):
        def no_run(*args, **kwargs):
            pytest.fail("the run started although its output directory was refused")

        monkeypatch.setattr(cli, "FitSpec", no_run)
        monkeypatch.setattr(cli, "run_scenario", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        if command == "fit":
            argv = ["fit", "--data", str(covariate_csv), "--tau", "4", "--cov1", "age"]
        else:
            argv = ["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                    "--reps", "100", "--seed", "1"]
        with caplog.at_level("ERROR", logger="releff"):
            rc = main([*argv, "--out-dir", str(taken / "out" if under else taken)])
        assert rc == EXIT_CONFIG
        assert "cannot create output directory" in caplog.text
        assert taken.read_text() == ""

    def test_nonconverged_base_fit_exits_convergence(self, tmp_path):
        # separated data: the pair indicator is 1 only in the column of the
        # earliest group-2 time, and the logit base fit stalls
        path = tmp_path / "separated.csv"
        write_csv(path, [[1, 0.35, 1, -0.7], [1, 0.25, 1, -0.5], [1, 0.15, 1, -1.1],
                         [1, 0.45, 1, 0.4], [2, 0.7, 1, -0.4], [2, 0.6, 1, 0.9],
                         [2, 0.2, 1, 1.0]], header=("group", "time", "status", "z"))
        for command in ("test", "predict"):
            rc = main([command, "--data", str(path), "--tau", "1", "--link", "logit",
                       "--cov1", "z", "--cov2", "z", "--out-dir", str(tmp_path / command),
                       "--seed", "2", "--bootstrap", "5"])
            assert rc == EXIT_CONVERGENCE, command

    def test_unreliable_bootstrap_warns_and_is_recorded(self, two_subject_csv, tmp_path,
                                                       caplog):
        # at seed 0 five of ten replicates draw one group-1 subject twice
        for command in ("fit", "test", "predict"):
            out = tmp_path / command
            caplog.clear()
            with caplog.at_level("WARNING", logger="releff"):
                rc = main([command, "--data", str(two_subject_csv), "--tau", "4",
                           "--cov1", "age", "--cov2", "age", "--strict-singular",
                           "--out-dir", str(out), "--seed", "0", "--bootstrap", "10"])
            assert rc == EXIT_OK, command
            assert "bootstrap unreliable: 5 of 10 replicates failed" in caplog.text, command
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert "bootstrap.failed=5" in manifest, command
            assert "bootstrap.unreliable=True" in manifest, command

    def test_manifest_records_base_fit_and_out_of_range(self, covariate_csv, tmp_path):
        config = AnalysisConfig(covariates1=["age"], covariates2=["age"], tau=4.0)
        data = ingest_csv(covariate_csv, config)
        for command, link in (("fit", "logit"), ("test", "logit"), ("predict", "identity")):
            out = tmp_path / command
            rc = main([command, "--data", str(covariate_csv), "--tau", "4", "--link", link,
                       "--cov1", "age", "--cov2", "age", "--out-dir", str(out),
                       "--seed", "2", "--bootstrap", "10"])
            assert rc == EXIT_OK, command
            manifest = (out / "manifest.txt").read_text().splitlines()
            base = FitSpec(link=link).fit(data)
            assert f"fit.iterations={base.iterations}" in manifest, command
            assert f"fit.gradient_norm={base.gradient_norm!r}" in manifest, command
            assert "fit.used_pinv=False" in manifest, command
            # the refits' Newton iterations, none for the closed-form identity link
            ensemble = bootstrap(data, spec=FitSpec(link=link), B=10, seed=2)
            assert (ensemble.newton_iterations > 0) == (link == "logit"), command
            line = f"bootstrap.newton_iterations={ensemble.newton_iterations}"
            assert line in manifest, command
            # their evaluator sweeps, next to the iterations
            sweeps = f"bootstrap.newton_sweeps={ensemble.newton_sweeps}"
            assert manifest[manifest.index(line) + 1] == sweeps, command
            assert (ensemble.newton_sweeps > 0) == (link == "logit"), command
        with open(tmp_path / "predict" / "predictions.csv") as fh:
            flagged = sum(r["out_of_range"] == "True" for r in csv.DictReader(fh))
        assert f"predict.out_of_range={flagged}" in manifest

    def test_pseudo_inverse_base_fit_warns(self, tmp_path, caplog, capsys):
        # the n = 400 study CSV of the benchmark, and the same with age in
        # units 1e8 times smaller, which the rank test reads as collinear
        study = study_data()
        plain, scaled = tmp_path / "study.csv", tmp_path / "scaled.csv"
        study.write_csv(study.generate(3), plain)
        with open(plain, newline="") as fh:
            rows = list(csv.reader(fh))
        write_csv(scaled, [[*r[:3], repr(float(r[3]) * 1e8), r[4]] for r in rows[1:]],
                  header=rows[0])
        config = AnalysisConfig(covariates1=["age", "marker"], covariates2=["age", "marker"],
                                tau=2.0)
        for path, pinv in ((plain, False), (scaled, True)):
            out = tmp_path / path.stem
            caplog.clear()
            with caplog.at_level("WARNING", logger="releff"):
                rc = main(["fit", "--data", str(path), "--cov1", "age,marker",
                           "--cov2", "age,marker", "--tau", "2", "--out-dir", str(out)])
            assert rc == EXIT_OK
            warned = [r.getMessage() for r in caplog.records if r.name == "releff"]
            assert warned == (["the base fit solved a singular system by pseudo-inverse: a "
                               "covariate is collinear with others or far off the scale of "
                               "the rest"] if pinv else [])
            assert capsys.readouterr().out == f"wrote {out / 'coefficients.csv'}\n"
            fit = FitSpec().fit(ingest_csv(path, config))
            assert fit.used_pinv == pinv
            assert f"fit.used_pinv={pinv}" in (out / "manifest.txt").read_text().splitlines()
            with open(out / "coefficients.csv", newline="") as fh:
                table = list(csv.reader(fh))
            names = ["intercept", "g1:age", "g1:marker", "g2:age", "g2:marker"]
            assert table == [["coefficient", "estimate"],
                             *([n, repr(b)] for n, b in zip(names, fit.beta.tolist()))]

    def test_fit_and_test_tables_agree_per_method(self, covariate_csv, tmp_path):
        argv = ["--data", str(covariate_csv), "--tau", "4", "--cov1", "age", "--cov2", "age",
                "--seed", "2", "--bootstrap", "30"]
        assert main(["fit", *argv, "--out-dir", str(tmp_path / "fit")]) == EXIT_OK
        assert main(["test", *argv, "--out-dir", str(tmp_path / "test")]) == EXIT_OK
        with open(tmp_path / "fit" / "coefficients.csv") as fh:
            coefficients = {r["coefficient"]: r for r in csv.DictReader(fh)}
        with open(tmp_path / "test" / "tests.csv") as fh:
            tests = list(csv.DictReader(fh))
        assert len(tests) == 4 * len(coefficients)
        for r in tests:
            row, m = coefficients[r["coefficient"]], r["method"]
            assert r["scale"] == ("" if m == "quantile" else row[f"se_{m}"])
            assert (r["ci_low"], r["ci_high"]) == (row[f"ci_{m}_low"], row[f"ci_{m}_high"])
            assert r["reject"] == row[f"reject_{m}"]

    @pytest.mark.parametrize("command", [
        ["fit"], ["fit", "--bootstrap", "5"], ["test", "--bootstrap", "5"],
        ["predict", "--bootstrap", "5"], ["fit", "--link", "logit"],
        ["fit", "--bootstrap", "5", "--link", "logit"],
        ["test", "--bootstrap", "5", "--link", "logit"],
        ["predict", "--bootstrap", "5", "--link", "logit"],
    ], ids=["fit", "fit-bootstrap", "test", "predict",
            "fit-logit", "fit-bootstrap-logit", "test-logit", "predict-logit"])
    def test_non_finite_fit_exits_convergence(self, tmp_path, caplog, command):
        # covariates near 1e200 overflow the design second moments to inf; a
        # logit fit is then refused as the identity fit it would start from
        path = tmp_path / "huge.csv"
        write_csv(path, [[1, 1.0, 1, 1e200], [1, 2.0, 1, 2e200], [1, 3.0, 0, 3e200],
                         [2, 1.5, 1, 1e200], [2, 2.5, 1, 2.5e200], [2, 0.5, 1, 3e200]],
                  header=("group", "time", "status", "age"))
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main([*command, "--data", str(path), "--cov1", "age", "--cov2", "age",
                       "--seed", "1", "--out-dir", str(out)])
        assert rc == EXIT_CONVERGENCE
        assert "non-finite coefficients" in caplog.text
        assert not list(out.glob("*.csv"))

    def test_non_finite_sandwich_se_exits_convergence(self, tmp_path, caplog):
        # one group-1 covariate at 1e154: the fit is finite (a pseudo-inverse),
        # and the sandwich's meat overflows; numpy's warnings of it are silenced
        data = random_dataset(np.random.default_rng(12345), 10, 10, p1=1, p2=1, censored=False)
        data.covariates1[0, 0] = 1e154
        path = tmp_path / "huge.csv"
        write_dataset(path, data)
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            with np.errstate(over="ignore", invalid="ignore"):
                rc = main(["fit", "--data", str(path), "--tau", "10", "--cov1", "age",
                           "--cov2", "age", "--out-dir", str(out)])
        assert rc == EXIT_CONVERGENCE
        assert "standard errors are not finite" in caplog.text
        assert not (out / "coefficients.csv").exists()

    def test_logit_working_set_refused_before_any_fit(self, covariate_csv, tmp_path,
                                                      monkeypatch, caplog):
        # fully observed: the pseudo matrix and three block buffers, which
        # at 20 x 22 hold all 20 rows each, and 64 vectors of length 42
        config = AnalysisConfig(tau=4.0, covariates1=["age"], covariates2=["age"])
        needed = gee.logit_working_set(ingest_csv(covariate_csv, config))
        assert needed == 4 * 8 * 20 * 22 + 64 * 8 * 42
        argv = ["--data", str(covariate_csv), "--tau", "4", "--cov1", "age", "--cov2", "age",
                "--seed", "2", "--bootstrap", "5"]
        monkeypatch.setattr(cli, "WORKING_SET_BYTES", needed)
        assert main(["test", "--link", "logit", *argv,
                     "--out-dir", str(tmp_path / "at_limit")]) == EXIT_OK

        def no_fit(*args, **kwargs):
            pytest.fail("a fit ran although the working set was refused")

        monkeypatch.setattr(cli, "WORKING_SET_BYTES", needed - 1)
        monkeypatch.setattr(FitSpec, "_fit_stack", no_fit)
        for command in ("fit", "test"):
            out = tmp_path / command
            caplog.clear()
            with caplog.at_level("ERROR", logger="releff"):
                rc = main([command, "--link", "logit", *argv, "--out-dir", str(out)])
            assert rc == EXIT_CONFIG, command
            assert "n1 = 20, n2 = 22" in caplog.text, command
            assert not out.exists(), command

    def test_large_sandwich_fit_holds_no_pair_array(self, tmp_path):
        # fully observed, n1 = n2 = 10 000: one n1 x n2 float array is 800 MB
        n = 10_000
        rng = np.random.default_rng(5)
        z = rng.standard_normal(2 * n)
        t = np.exp(0.3 * z) * rng.weibull(2, 2 * n)
        path = tmp_path / "large.csv"
        write_csv(path, [[1 + i // n, f"{t[i]:.6f}", 1, f"{z[i]:.6f}"] for i in range(2 * n)],
                  header=("group", "time", "status", "age"))
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            rc = main(["fit", "--data", str(path), "--tau", "inf", "--cov1", "age",
                       "--cov2", "age", "--out-dir", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_OK
        with open(out / "coefficients.csv") as fh:
            ses = [float(r["se_sandwich"]) for r in csv.DictReader(fh)]
        assert len(ses) == 3 and np.all(np.isfinite(ses))
        assert peak < 8 * n * n / 10

    def test_fit_bootstraps_when_the_config_sets_B(self, covariate_csv, tmp_path, caplog):
        def header_and_text(out):
            text = (out / "coefficients.csv").read_text()
            return text.splitlines()[0].split(","), text

        bootstrap_columns = (
            [f"se_{m}" for m in ("emp", "iqr", "mad")]
            + [f"ci_{m}_{end}" for m in ("emp", "iqr", "mad", "quantile")
               for end in ("low", "high")]
            + [f"reject_{m}" for m in ("emp", "iqr", "mad", "quantile")]
        )
        argv = ["fit", "--data", str(covariate_csv), "--tau", "4", "--cov1", "age",
                "--cov2", "age"]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"B": 50, "seed": 1}))
        assert main([*argv, "--config", str(config), "--out-dir", str(tmp_path / "c")]) == EXIT_OK
        header, text = header_and_text(tmp_path / "c")
        assert header == ["coefficient", "estimate", *bootstrap_columns]
        # the same run as with the options
        assert main([*argv, "--bootstrap", "50", "--seed", "1",
                     "--out-dir", str(tmp_path / "o")]) == EXIT_OK
        assert header_and_text(tmp_path / "o")[1] == text
        # with B set a seed is required, as with --bootstrap
        config.write_text(json.dumps({"B": 50}))
        with caplog.at_level("ERROR", logger="releff"):
            assert main([*argv, "--config", str(config),
                         "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
        assert "seed is required" in caplog.text
        # no B anywhere: the sandwich
        config.write_text(json.dumps({"seed": 1}))
        assert main([*argv, "--config", str(config), "--out-dir", str(tmp_path / "s")]) == EXIT_OK
        assert header_and_text(tmp_path / "s")[0] == ["coefficient", "estimate", "se_sandwich"]

    def test_predict_infinite_tau_refused_before_any_fit(self, covariate_csv, tmp_path,
                                                         monkeypatch, caplog):
        # the tie correction needs a finite horizon
        def no_fit(*args, **kwargs):
            pytest.fail("a fit ran although the horizon was refused")

        monkeypatch.setattr(FitSpec, "_fit_stack", no_fit)
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["predict", "--data", str(covariate_csv), "--tau", "inf", "--cov1", "age",
                       "--cov2", "age", "--seed", "2", "--bootstrap", "5",
                       "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "finite horizon" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--reps", "10"], "below 100"),
        (["--n1", "0"], "at least 2 subjects"),
        (["--n1", "-3"], "at least 2 subjects"),
        (["--n1", "1"], "at least 2 subjects"),
        (["--n2", "1"], "at least 2 subjects"),
    ], ids=["reps-10", "n1-0", "n1-negative", "n1-1", "n2-1"])
    def test_simulate_refuses_too_few_runs_or_subjects(self, tmp_path, caplog, flags, message):
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                       "--reps", "100", *flags, "--seed", "0", "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert message in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("method", ["iqr", "mad"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_predict_scale_only_methods_refused_before_any_fit(
            self, covariate_csv, tmp_path, monkeypatch, caplog, method, source):
        # iqr and mad are test scales; predict has only emp and quantile intervals
        def no_fit(*args, **kwargs):
            pytest.fail("a fit ran although the method was refused")

        monkeypatch.setattr(FitSpec, "_fit_stack", no_fit)
        if source == "flag":
            given = ["--method", method]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"method": method}))
            given = ["--config", str(cfg)]
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["predict", "--data", str(covariate_csv), "--tau", "4", "--cov1", "age",
                       "--cov2", "age", "--seed", "2", "--bootstrap", "5", *given,
                       "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert f"predict has no {method} interval" in caplog.text
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--tau", "0.5"], ["--link", "logit"], ["--bootstrap", "10"], ["--method", "emp"],
        ["--cov1", "foo"], ["--cov2", "foo"], ["--strict-singular"], ["--data", "x.csv"],
    ], ids=["tau", "link", "bootstrap", "method", "cov1", "cov2", "strict-singular", "data"])
    def test_simulate_refuses_options_it_does_not_read(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                  "--reps", "100", "--seed", "1", *flags, "--out-dir", str(out)])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, key", [
        ({"tau": 0.5}, "tau"), ({"tau": "inf"}, "tau"), ({"link": "logit"}, "link"),
        ({"B": 10}, "B"), ({"method": "emp"}, "method"), ({"covariates1": ["foo"]}, "covariates1"),
        ({"covariates2": ["foo"]}, "covariates2"), ({"strict_singular": True}, "strict_singular"),
    ], ids=["tau", "tau-inf", "link", "B", "method", "covariates1", "covariates2",
            "strict_singular"])
    def test_simulate_refuses_config_fields_it_does_not_read(self, tmp_path, caplog, raw, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                       "--reps", "100", "--seed", "1", "--config", str(cfg),
                       "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert f"simulate does not read {key}" in caplog.text
        assert not out.exists()

    def test_fit_has_no_method_option(self, four_row_csv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--data", str(four_row_csv), "--method", "emp", "--out-dir", str(out)])
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_refuses_method_in_config(self, four_row_csv, tmp_path, caplog):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"method": "emp"}))
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["fit", "--data", str(four_row_csv), "--config", str(cfg),
                       "--out-dir", str(out)])
        assert rc == EXIT_CONFIG
        assert "fit does not read method" in caplog.text
        assert not out.exists()

    def test_fit_manifest_records_only_the_fields_fit_reads(self, four_row_csv, tmp_path):
        # a fit without a bootstrap uses no B, so its manifest names none
        assert main(["fit", "--data", str(four_row_csv), "--out-dir", str(tmp_path)]) == EXIT_OK
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        keys = [line.split("=")[0] for line in manifest if line.startswith("config.")]
        assert keys == [f"config.{k}" for k in ("link", "tau", "alpha", "seed", "covariates1",
                                                "covariates2", "strict_singular", "out_dir")]

    def test_fit_manifest_records_B_when_a_bootstrap_ran(self, covariate_csv, tmp_path):
        assert main(["fit", "--data", str(covariate_csv), "--tau", "4", "--cov1", "age",
                     "--cov2", "age", "--seed", "1", "--bootstrap", "20",
                     "--out-dir", str(tmp_path)]) == EXIT_OK
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        keys = [line.split("=")[0] for line in manifest if line.startswith("config.")]
        assert keys == [f"config.{k}" for k in ("link", "tau", "B", "alpha", "seed", "covariates1",
                                                "covariates2", "strict_singular", "out_dir")]
        assert "config.B=20" in manifest
        assert "bootstrap.saturated=0" in manifest

    @pytest.mark.parametrize("flags, interval", [
        ([], "emp"), (["--method", "quantile"], "quantile"),
    ], ids=["default", "quantile"])
    def test_predict_manifest_records_the_interval_built(self, covariate_csv, tmp_path,
                                                         flags, interval):
        out = tmp_path / "out"
        assert main(["predict", "--data", str(covariate_csv), "--tau", "4", "--cov1", "age",
                     "--cov2", "age", "--seed", "2", "--bootstrap", "10", *flags,
                     "--out-dir", str(out)]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"predict.interval={interval}" in manifest

    def test_simulate_reads_seed_alpha_and_out_dir_from_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        # fields at their defaults are not refused
        cfg.write_text(json.dumps({"seed": 4, "alpha": 0.1, "out_dir": str(out),
                                   "link": "identity", "B": 2000}))
        assert main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                     "--reps", "100", "--config", str(cfg)]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text().splitlines()
        config_lines = [line for line in manifest if line.startswith("config.")]
        assert config_lines == ["config.seed=4", "config.alpha=0.1", f"config.out_dir={out}"]

    def test_predict_requires_matching_columns(self, covariate_csv, tmp_path):
        rc = main(["predict", "--data", str(covariate_csv), "--tau", "4",
                   "--cov1", "age", "--cov2", "", "--out-dir", str(tmp_path),
                   "--seed", "2", "--bootstrap", "10"])
        assert rc == EXIT_CONFIG


_GARBAGE = st.one_of(
    st.sampled_from(["", " ", "2", "-1", "1.0", "nan", "inf", "-inf", "NaN", "1e999", "x",
                     "1,5", '"', "0x1"]),
    st.text(max_size=6),
)
_PLAUSIBLE = {
    "group": st.sampled_from(["1", "2"]),
    "time": st.floats(min_value=0.0, max_value=10.0).map(repr),
    "status": st.sampled_from(["0", "1", "1"]),
    "age": st.floats(min_value=-3.0, max_value=3.0).map(repr),
    "junk": st.text(max_size=4),
}


@st.composite
def garbage_csv(draw):
    """Plausible rows under a header that usually has every column, then a
    few garbage cells and a ragged row or two."""
    columns = draw(st.permutations(list(_PLAUSIBLE)))
    if draw(st.integers(0, 4)) == 0:
        columns.remove(draw(st.sampled_from(["group", "time", "status", "age"])))
    rows = [[draw(_PLAUSIBLE[c]) for c in columns] for _ in range(draw(st.integers(4, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(_GARBAGE)
    for _ in range(draw(st.integers(0, 4)) // 3):
        row = draw(st.sampled_from(rows))
        row.append("extra") if draw(st.booleans()) else row.pop()
    return columns, rows


_COMMANDS = [["fit"], ["test", "--seed", "1", "--bootstrap", "5"],
             ["predict", "--seed", "1", "--bootstrap", "5"]]


@given(garbage_csv(), st.sampled_from([[], ["--cov1", "age", "--cov2", "age"]]),
       st.sampled_from(_COMMANDS))
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_fit_on_garbage_csv_exits_cleanly(table, covariates, command):
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "garbage.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        rc = main([*command, "--data", str(path), "--out-dir", str(Path(tmp) / "out"),
                   *covariates])
    assert rc in (EXIT_OK, EXIT_PARSE, EXIT_CONVERGENCE, EXIT_CONFIG)


# at one and two BLAS threads, every number in the tests.csv of a logit fit
# agrees within this bound times max(1, |number|); the README states it
LOGIT_BLAS_THREAD_BOUND = 1e-10


def tied_censored_rows(rng, n1, n2):
    """Rows (group, time, status, age): times on a 0.05 grid, so tied, and
    about a quarter of them censored."""
    rows = []
    for g, n in ((1, n1), (2, n2)):
        z = rng.standard_normal(n)
        t = np.ceil(np.exp(0.3 * z) * rng.weibull(1.5, n) / 0.05) * 0.05
        for i in range(n):
            rows.append([g, f"{t[i]:.2f}", int(rng.uniform() < 0.75), f"{z[i]:.4f}"])
    return rows


def test_blas_threads_move_no_output_beyond_the_logit_bound(tmp_path):
    # fit and test with the identity link and simulate write the same bytes
    # at one and two BLAS threads, and a logit test the same decisions with
    # numbers within LOGIT_BLAS_THREAD_BOUND.  The logit CSV repeats one
    # group-2 subject, so its distinct-subject pseudo matrix is 400 x 399: a
    # shape at which OpenBLAS's threaded GEMM can differ in the last bits.
    # One process per thread count runs every command, since the thread
    # count is read when numpy loads
    small, large = tmp_path / "small.csv", tmp_path / "large.csv"
    write_csv(small, tied_censored_rows(np.random.default_rng(11), 60, 55),
              header=("group", "time", "status", "age"))
    rows = tied_censored_rows(np.random.default_rng(12), 400, 400)
    rows[-1] = rows[-2]
    write_csv(large, rows, header=("group", "time", "status", "age"))
    argv = ["--cov1", "age", "--cov2", "age", "--tau", "2", "--seed", "4", "--bootstrap", "50"]
    identity = ["--data", str(small), "--link", "identity", *argv]
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        commands = [["fit", *identity, "--out-dir", str(out / "fit")],
                    ["test", *identity, "--out-dir", str(out / "test")],
                    ["simulate", "--scenario", "iv", "--censored", "--reps", "100",
                     "--seed", "4", "--out-dir", str(out / "simulate")],
                    ["test", "--data", str(large), "--link", "logit", *argv,
                     "--out-dir", str(out / "logit")]]
        code = ("import sys; from releff.cli import main; "
                f"sys.exit(max(main(argv) for argv in {commands!r}))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)
        outputs[threads] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*.csv"))}
    one, two = (list(csv.reader(outputs[t].pop(Path("logit", "tests.csv")).decode().splitlines()))
                for t in ("1", "2"))
    assert len(outputs["1"]) == 4      # coefficients, tests, estimates, rejection rates
    assert outputs["1"] == outputs["2"]
    header = one[0]
    assert two[0] == header and len(one) == len(two) == 1 + 3 * 4
    for row1, row2 in zip(one[1:], two[1:]):
        for name, a, b in zip(header, row1, row2):
            if name in ("coefficient", "method", "reject") or "" in (a, b):
                assert a == b, name
            else:
                bound = LOGIT_BLAS_THREAD_BOUND * max(1.0, abs(float(a)))
                assert abs(float(a) - float(b)) <= bound, (name, a, b)


# numbers in the study CSVs agree with the benchmark's pinned outputs to this
# absolute bound, the benchmark's own TOL; text agrees exactly
STUDY_TOL = 1e-8


def same_cell(pinned: str, got: str) -> bool:
    try:
        a, b = float(pinned), float(got)
    except ValueError:
        return pinned == got
    return (np.isnan(a) and np.isnan(b)) or abs(a - b) <= STUDY_TOL


def test_study_commands_match_the_pinned_benchmark_outputs(tmp_path):
    # the benchmark's study workload at its reference seed: fit and test
    # with the logit link (the base fit, then B = 10 refits started next to
    # it) and predict with the identity link, against its pinned CSVs
    meta = json.loads((STUDY_REFERENCE / "input.json").read_text())
    study, data = study_data(), tmp_path / "study.csv"
    study.write_csv(study.generate(meta["seed"]), data)
    assert hashlib.sha256(data.read_bytes()).hexdigest() == meta["csv_sha256"]
    argv = ["--data", str(data), "--cov1", "age,marker", "--cov2", "age,marker",
            "--tau", str(study.TAU), "--out-dir", str(tmp_path / "out")]
    bootstrap_argv = ["--seed", str(meta["seed"]), "--bootstrap", "10"]
    assert main(["fit", *argv, "--link", "logit"]) == EXIT_OK
    assert main(["test", *argv, "--link", "logit", *bootstrap_argv]) == EXIT_OK
    assert main(["predict", *argv, "--link", "identity", *bootstrap_argv]) == EXIT_OK
    for name in ("coefficients.csv", "tests.csv", "predictions.csv"):
        with open(STUDY_REFERENCE / name, newline="") as fh:
            pinned = list(csv.reader(fh))
        with open(tmp_path / "out" / name, newline="") as fh:
            got = list(csv.reader(fh))
        assert [len(row) for row in got] == [len(row) for row in pinned], name
        bad = [(i, j, p, g) for i, (prow, grow) in enumerate(zip(pinned, got))
               for j, (p, g) in enumerate(zip(prow, grow)) if not same_cell(p, g)]
        assert bad == [], name
