import csv
import dataclasses
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from releff import cli
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
from releff.gee import LINKS, FitResult
from releff.inference import BootstrapEnsemble, FitSpec, bootstrap


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
        config = AnalysisConfig.from_file(cfg)
        assert np.isinf(config.tau)
        assert config.alpha == 0.1

    def test_unknown_keys_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"taus": 2.0}))
        with pytest.raises(ConfigFailure):
            AnalysisConfig.from_file(cfg)

    def test_negative_seed_rejected(self, four_row_csv, tmp_path):
        with pytest.raises(ConfigFailure, match="seed"):
            AnalysisConfig(seed=-3)
        rc = main(["test", "--data", str(four_row_csv), "--tau", "10",
                   "--seed", "-3", "--out-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG


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
        assert data.p1 == 1 and data.p2 == 1

    def test_tau_defaults_to_largest_time(self, four_row_csv, caplog):
        with caplog.at_level("WARNING", logger="releff"):
            data = ingest_csv(four_row_csv, AnalysisConfig())
        assert data.tau == 5.0
        assert "largest observed time" in caplog.text

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
                     "montecarlo.nonconverged=0", "montecarlo.degenerate=False"):
            assert line in manifest

    def test_simulate_manifest_records_degenerate_runs(self, tmp_path, monkeypatch):
        from releff import sim

        real = sim.run_scenario

        def degenerate(*args, **kwargs):
            rows, result = real(*args, **kwargs)
            return rows, dataclasses.replace(result, degenerate=True, failed=3, singular=3)

        monkeypatch.setattr(cli, "run_scenario", degenerate)
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", "i", "--n1", "10", "--n2", "10",
                     "--reps", "100", "--seed", "0", "--out-dir", str(out)]) == EXIT_OK
        manifest = (out / "manifest.txt").read_text().splitlines()
        for line in ("montecarlo.failed=3", "montecarlo.singular=3",
                     "montecarlo.nonconverged=0", "montecarlo.degenerate=True"):
            assert line in manifest

    def test_manifest_records_library_versions(self, four_row_csv, tmp_path):
        assert main(["fit", "--data", str(four_row_csv), "--out-dir", str(tmp_path)]) == EXIT_OK
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        for line in (f"python={platform.python_version()}", f"numpy={np.__version__}",
                     f"scipy={scipy.__version__}"):
            assert line in manifest

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
        assert want.singular > 0
        for command in ("fit", "test", "predict"):
            out = tmp_path / command
            assert main([command, "--data", str(path), "--tau", "9", "--cov1", "flag",
                         "--cov2", "flag", "--strict-singular", "--seed", "3",
                         "--bootstrap", "40", "--out-dir", str(out)]) == EXIT_OK, command
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert f"bootstrap.failed={want.failed}" in manifest, command
            assert f"bootstrap.singular={want.singular}" in manifest, command
            assert "bootstrap.nonconverged=0" in manifest, command

    def test_exit_codes_distinct(self, four_row_csv, tmp_path):
        assert main(["fit", "--data", str(tmp_path / "nope.csv")]) == EXIT_PARSE
        assert main(["test", "--data", str(four_row_csv)]) == EXIT_CONFIG
        assert main(["fit", "--data", str(four_row_csv), "--alpha", "2"]) == EXIT_CONFIG
        assert main(["simulate", "--scenario", "i", "--seed", "1",
                     "--reps", "5000", "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_nonconverged_base_fit_exits_convergence(self, covariate_csv, tmp_path,
                                                     monkeypatch):
        stalled = FitResult(beta=np.zeros(3), converged=False, iterations=50,
                            gradient_norm=1.0, method="newton", message="stalled")

        def fake_bootstrap(data, spec=None, B=2000, seed=0):
            return BootstrapEnsemble(replicates=np.zeros((B, 3)), B=B, seed=seed,
                                     base_fit=stalled)

        monkeypatch.setattr(cli, "bootstrap", fake_bootstrap)
        for command in ("test", "predict"):
            rc = main([command, "--data", str(covariate_csv), "--tau", "4",
                       "--cov1", "age", "--cov2", "age", "--out-dir", str(tmp_path),
                       "--seed", "2", "--bootstrap", "5"])
            assert rc == EXIT_CONVERGENCE, command

    def test_unreliable_bootstrap_warns_and_is_recorded(self, covariate_csv, tmp_path,
                                                       monkeypatch, caplog):
        real_bootstrap = cli.bootstrap

        def fake_bootstrap(data, spec=None, B=2000, seed=0):
            ensemble = real_bootstrap(data, spec=spec, B=B, seed=seed)
            replicates = ensemble.replicates.copy()
            replicates[:2] = np.nan
            return dataclasses.replace(ensemble, replicates=replicates, failed=2,
                                       unreliable=True)

        monkeypatch.setattr(cli, "bootstrap", fake_bootstrap)
        for command in ("fit", "test", "predict"):
            out = tmp_path / command
            caplog.clear()
            with caplog.at_level("WARNING", logger="releff"):
                rc = main([command, "--data", str(covariate_csv), "--tau", "4",
                           "--cov1", "age", "--cov2", "age", "--out-dir", str(out),
                           "--seed", "2", "--bootstrap", "10"])
            assert rc == EXIT_OK, command
            assert "bootstrap unreliable: 2 of 10 replicates failed" in caplog.text, command
            manifest = (out / "manifest.txt").read_text().splitlines()
            assert "bootstrap.failed=2" in manifest, command
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
            base = FitSpec(link=LINKS[link]).fit(data)
            assert f"fit.iterations={base.iterations}" in manifest, command
            assert f"fit.gradient_norm={base.gradient_norm!r}" in manifest, command
            assert "fit.used_pinv=False" in manifest, command
        with open(tmp_path / "predict" / "predictions.csv") as fh:
            flagged = sum(r["out_of_range"] == "True" for r in csv.DictReader(fh))
        assert f"predict.out_of_range={flagged}" in manifest

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("command", [
        ["fit"], ["fit", "--bootstrap", "5"], ["test", "--bootstrap", "5"],
        ["predict", "--bootstrap", "5"],
    ], ids=["fit", "fit-bootstrap", "test", "predict"])
    def test_non_finite_fit_exits_convergence(self, tmp_path, caplog, command):
        # covariates near 1e200 overflow the design second moments to inf
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

    def test_non_finite_sandwich_se_exits_convergence(self, four_row_csv, tmp_path,
                                                      monkeypatch, caplog):
        monkeypatch.setattr(cli, "sandwich_covariance_uncensored",
                            lambda data: np.full((1, 1), np.inf))
        out = tmp_path / "out"
        with caplog.at_level("ERROR", logger="releff"):
            rc = main(["fit", "--data", str(four_row_csv), "--tau", "10",
                       "--out-dir", str(out)])
        assert rc == EXIT_CONVERGENCE
        assert "standard errors are not finite" in caplog.text
        assert not (out / "coefficients.csv").exists()

    def test_logit_working_set_refused_before_any_fit(self, covariate_csv, tmp_path,
                                                      monkeypatch, caplog):
        needed = 5 * 8 * 20 * 22
        argv = ["--data", str(covariate_csv), "--tau", "4", "--cov1", "age", "--cov2", "age",
                "--seed", "2", "--bootstrap", "5"]
        monkeypatch.setattr(cli, "LOGIT_WORKING_SET_BYTES", needed)
        assert main(["test", "--link", "logit", *argv,
                     "--out-dir", str(tmp_path / "at_limit")]) == EXIT_OK

        def no_fit(*args, **kwargs):
            pytest.fail("a fit ran although the working set was refused")

        monkeypatch.setattr(cli, "LOGIT_WORKING_SET_BYTES", needed - 1)
        monkeypatch.setattr(cli, "bootstrap", no_fit)
        monkeypatch.setattr(FitSpec, "fit", no_fit)
        for command in ("fit", "test"):
            out = tmp_path / command
            caplog.clear()
            with caplog.at_level("ERROR", logger="releff"):
                rc = main([command, "--link", "logit", *argv, "--out-dir", str(out)])
            assert rc == EXIT_CONFIG, command
            assert "n1 = 20, n2 = 22" in caplog.text, command
            assert not out.exists(), command

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
