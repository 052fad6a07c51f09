"""Command-line front end: CSV ingestion, fit/test/predict/simulate workflows.

Exit codes: 0 success, 2 parse failure, 3 convergence failure,
4 configuration failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import platform
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .gee import LINKS, sandwich_covariance_uncensored
from .inference import METHODS, FitSpec, bootstrap, require_finite, test_coefficient
from .predict import predict_profiles, tie_correction_term
from .sim import check_reps, make_scenario, run_scenario, write_result_rows
from .survival import TwoSampleDataset, kaplan_meier

log = logging.getLogger("releff")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_CONFIG = 4

# the logit fit holds five n1 x n2 float arrays (the pseudo matrix and the
# four buffers of Newton's workspace: mu, residual, mu' and scratch), the
# uncensored sandwich covariance about three (the indicator matrix, the
# linear predictor and the residual); a larger working set is refused
# before any fit
WORKING_SET_BYTES = 2 << 30


class ParseFailure(Exception):
    pass


class ConfigFailure(Exception):
    pass


@dataclass
class AnalysisConfig:
    link: str = "identity"
    tau: float | None = None      # None: the largest observed time; inf: no horizon
    B: int = 2000
    alpha: float = 0.05
    seed: int | None = None
    method: str = "all"           # emp | iqr | mad | quantile | all
    covariates1: list = field(default_factory=list)
    covariates2: list = field(default_factory=list)
    strict_singular: bool = False
    out_dir: str = "."

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ConfigFailure(f"alpha must be in (0, 1), got {self.alpha}")
        if self.B < 1:
            raise ConfigFailure(f"B must be >= 1, got {self.B}")
        if self.seed is not None and self.seed < 0:
            raise ConfigFailure(f"seed must be >= 0, got {self.seed}")
        if self.tau is not None and not self.tau > 0:
            raise ConfigFailure(f"tau must be positive, got {self.tau}")
        if self.link not in LINKS:
            raise ConfigFailure(f"unknown link {self.link!r}; available: {sorted(LINKS)}")
        if self.method not in (*METHODS, "all"):
            raise ConfigFailure(f"unknown inference method {self.method!r}")

    @classmethod
    def from_file(cls, path) -> "AnalysisConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigFailure(f"cannot read config {path}: {exc}") from exc
        if "tau" in raw and raw["tau"] == "inf":
            raw["tau"] = float("inf")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ConfigFailure(f"unknown config keys: {sorted(unknown)}")
        return cls(**raw)


def _parse_float(text, row, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseFailure(f"row {row}, column {column!r}: not a number: {text!r}")
    if not np.isfinite(value):
        raise ParseFailure(f"row {row}, column {column!r}: not a finite number: {text!r}")
    return value


def ingest_csv(path, config: AnalysisConfig) -> TwoSampleDataset:
    """Read a two-group dataset; rows with missing used values are dropped
    with row-numbered diagnostics."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ParseFailure(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            groups, dropped = _read_groups(path, fh, config)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseFailure(f"{path}: not a readable UTF-8 CSV file: {exc}") from exc
    if dropped:
        log.warning("dropped %d incomplete rows: %s", len(dropped), dropped)
    for g in (1, 2):
        if len(groups[g]["t"]) < 2:
            raise ParseFailure(f"group {g} has fewer than 2 usable rows")
    t1 = np.array(groups[1]["t"])
    t2 = np.array(groups[2]["t"])
    if any(t < 0 for t in np.concatenate((t1, t2))) and (
        0.0 in groups[1]["e"] or 0.0 in groups[2]["e"]
    ):
        raise ParseFailure("negative times require fully observed data")
    tau = config.tau
    if tau is None:
        tau = float(max(t1.max(), t2.max()))
        if not tau > 0:
            raise ParseFailure(
                f"the largest observed time {tau:.6g} cannot serve as the horizon; set --tau"
            )
        log.warning("tau not set; defaulting to the largest observed time %.6g", tau)
    z1 = np.array(groups[1]["z"]) if config.covariates1 else np.empty((t1.size, 0))
    z2 = np.array(groups[2]["z"]) if config.covariates2 else np.empty((t2.size, 0))
    return TwoSampleDataset(
        t1, np.array(groups[1]["e"]), z1,
        t2, np.array(groups[2]["e"]), z2,
        tau=tau,
    )


def _read_groups(path, fh, config: AnalysisConfig):
    """Per-group times, status and covariate rows of an open CSV file, and
    the numbers of the rows dropped as incomplete."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise ParseFailure(f"{path}: empty file, header row required")
    required = {"group", "time", "status"}
    missing = required - set(reader.fieldnames)
    if missing:
        raise ParseFailure(f"{path}: missing required columns {sorted(missing)}")
    groups = {1: {"t": [], "e": [], "z": []}, 2: {"t": [], "e": [], "z": []}}
    dropped = []
    for row_no, row in enumerate(reader, start=2):   # 1-based incl. header
        if row["group"] not in ("1", "2"):
            raise ParseFailure(
                f"row {row_no}, column 'group': expected 1 or 2, got {row['group']!r}"
            )
        g = int(row["group"])
        cov_cols = config.covariates1 if g == 1 else config.covariates2
        for col in cov_cols:
            if col not in row:
                raise ParseFailure(f"missing covariate column {col!r}")
        used = ["time", "status"] + list(cov_cols)
        if any(row[c] is None or row[c].strip() == "" for c in used):
            dropped.append(row_no)
            continue
        time = _parse_float(row["time"], row_no, "time")
        if row["status"] not in ("0", "1"):
            raise ParseFailure(
                f"row {row_no}, column 'status': expected 0 or 1, got {row['status']!r}"
            )
        status = int(row["status"])
        if status == 0 and time < 0:
            raise ParseFailure(
                f"row {row_no}, column 'time': negative time on a censored record"
            )
        z = [_parse_float(row[c], row_no, c) for c in cov_cols]
        groups[g]["t"].append(time)
        groups[g]["e"].append(float(status))
        groups[g]["z"].append(z)
    return groups, dropped


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: Path, command: str, config: AnalysisConfig,
                   inputs=(), outputs=(), data=None, ensemble=None, fit=None,
                   predictions=None, montecarlo=None):
    """Record the command, the library versions, its configuration and what
    the run actually used: the horizon of ``data``, the failures by cause of
    the bootstrap ``ensemble`` or of the ``montecarlo`` runs, how the base
    ``fit`` was solved and how many ``predictions`` fell outside [0, 1]."""
    lines = [
        f"command={command}", f"version={__version__}",
        f"python={platform.python_version()}", f"numpy={np.__version__}",
        f"scipy={scipy.__version__}",
    ]
    for key, value in asdict(config).items():
        lines.append(f"config.{key}={value}")
    if data is not None:
        lines.append(f"data.tau={data.tau}")
    if fit is not None:
        lines.append(f"fit.iterations={fit.iterations}")
        lines.append(f"fit.gradient_norm={fit.gradient_norm!r}")
        lines.append(f"fit.used_pinv={fit.used_pinv}")
    for prefix, runs in (("bootstrap", ensemble), ("montecarlo", montecarlo)):
        if runs is not None:
            lines.append(f"{prefix}.failed={runs.failed}")
            lines.append(f"{prefix}.singular={runs.singular}")
            lines.append(f"{prefix}.nonconverged={runs.nonconverged}")
    if ensemble is not None:
        lines.append(f"bootstrap.unreliable={ensemble.unreliable}")
    if montecarlo is not None:
        lines.append(f"montecarlo.degenerate={montecarlo.degenerate}")
    if predictions is not None:
        lines.append(f"predict.out_of_range={int(np.sum(predictions.out_of_range))}")
    for p in inputs:
        lines.append(f"input.{Path(p).name}.sha256={_sha256(p)}")
    for p in outputs:
        lines.append(f"output={p}")
    path = out_dir / "manifest.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _coefficient_names(config: AnalysisConfig):
    return (
        ["intercept"]
        + [f"g1:{c}" for c in config.covariates1]
        + [f"g2:{c}" for c in config.covariates2]
    )


def _check_working_set(config: AnalysisConfig, data: TwoSampleDataset, sandwich: bool):
    """Refuse a logit fit, or an uncensored identity fit whose ``sandwich``
    covariance is asked for, that needs more than WORKING_SET_BYTES."""
    if config.link == "logit":
        what, working_set = "the logit link", 5 * 8 * data.n1 * data.n2
    elif sandwich and data.uncensored:
        what, working_set = "the sandwich covariance", 3 * 8 * data.n1 * data.n2
    else:
        return
    if working_set > WORKING_SET_BYTES:
        raise ConfigFailure(
            f"{what} needs about {working_set / 2**30:.2f} GiB of working memory "
            f"for n1 = {data.n1}, n2 = {data.n2}; the limit is "
            f"{WORKING_SET_BYTES / 2**30:.2f} GiB"
        )


def _prepare(args, resample=True, same_covariates=False):
    """Shared preamble of fit, test and predict.

    Builds the configuration, ingests the CSV, creates the output directory
    and fits the model.  With ``resample`` a seed is required and the
    bootstrap is run, and the base fit is its ``base_fit``.  The base fit
    must converge to finite coefficients.  Returns
    (config, data, out_dir, ensemble, fit); ``ensemble`` is None without
    ``resample``.
    """
    config = _build_config(args, require_seed=resample)
    if same_covariates and config.covariates1 != config.covariates2:
        raise ConfigFailure(
            "predict uses each subject's covariates for both groups; "
            "covariates1 and covariates2 must name the same columns"
        )
    data = ingest_csv(args.data, config)
    _check_working_set(config, data, sandwich=not resample)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = FitSpec(link=LINKS[config.link], strict_singular=config.strict_singular)
    ensemble = None
    if resample:
        ensemble = bootstrap(data, spec=spec, B=config.B, seed=config.seed)
        fit = ensemble.base_fit
    else:
        fit = spec.fit(data)
    if not fit.converged:
        raise RuntimeError(f"fit did not converge: {fit.message}")
    require_finite(fit)
    if ensemble is not None and ensemble.unreliable:
        log.warning("bootstrap unreliable: %d of %d replicates failed",
                    ensemble.failed, ensemble.B)
    return config, data, out_dir, ensemble, fit


def cmd_fit(args) -> int:
    config, data, out_dir, ensemble, result = _prepare(
        args, resample=args.bootstrap is not None
    )
    names = _coefficient_names(config)
    rows = [{"coefficient": name, "estimate": b} for name, b in zip(names, result.beta)]
    header = ["coefficient", "estimate"]

    if ensemble is not None:
        header += (
            [f"se_{m}" for m in METHODS if m != "quantile"]
            + [f"ci_{m}_{end}" for m in METHODS for end in ("low", "high")]
            + [f"reject_{m}" for m in METHODS]
        )
        for k, row in enumerate(rows):
            rep = test_coefficient(ensemble, k, alpha=config.alpha)
            for m, (scale, ci, reject) in rep.by_method().items():
                if scale is not None:
                    row[f"se_{m}"] = scale
                row[f"ci_{m}_low"], row[f"ci_{m}_high"] = ci
                row[f"reject_{m}"] = reject
    elif data.uncensored and config.link == "identity":
        cov = sandwich_covariance_uncensored(data)
        header += ["se_sandwich"]
        ses = np.sqrt(np.maximum(np.diag(cov), 0.0))
        if not np.all(np.isfinite(ses)):
            raise RuntimeError("the sandwich standard errors are not finite")
        for row, se in zip(rows, ses):
            row["se_sandwich"] = se

    out_path = out_dir / "coefficients.csv"
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    write_manifest(out_dir, "fit", config, inputs=[args.data], outputs=[out_path],
                   data=data, ensemble=ensemble, fit=result)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_test(args) -> int:
    config, data, out_dir, ensemble, fit = _prepare(args)
    names = _coefficient_names(config)
    out_path = out_dir / "tests.csv"
    methods = METHODS if config.method == "all" else (config.method,)
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coefficient", "estimate", "method", "scale", "ci_low", "ci_high", "reject"])
        for k, name in enumerate(names):
            rep = test_coefficient(ensemble, k, alpha=config.alpha)
            per_method = rep.by_method()
            for method in methods:
                scale, ci, reject = per_method[method]   # csv writes None as ""
                writer.writerow([name, rep.estimate, method, scale, ci[0], ci[1], reject])
    write_manifest(out_dir, "test", config, inputs=[args.data], outputs=[out_path],
                   data=data, ensemble=ensemble, fit=fit)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    config, data, out_dir, ensemble, fit = _prepare(args, same_covariates=True)
    S1 = kaplan_meier(data.times1, data.events1)
    S2 = kaplan_meier(data.times2, data.events2)
    correction = tie_correction_term(S1, S2, data.tau)
    ci_method = "quantile" if config.method == "quantile" else "emp"
    # the additive tie correction exists for the identity link only
    link_correction = correction if config.link == "identity" else None

    out_path = out_dir / "predictions.csv"
    Z_all = np.vstack((data.covariates1, data.covariates2))
    preds = predict_profiles(
        fit, ensemble, Z_all, Z_all,
        link=LINKS[config.link], correction=link_correction,
        alpha=config.alpha, method=ci_method,
    )
    columns = zip(preds.point.tolist(), preds.ci_low.tolist(), preds.ci_high.tolist(),
                  preds.classification.tolist(), preds.out_of_range.tolist())
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subject", "probability", "ci_low", "ci_high", "classification",
             "out_of_range", "tie_correction"]
        )
        for i, row in enumerate(columns):
            writer.writerow([i, *row, correction])
    write_manifest(out_dir, "predict", config, inputs=[args.data], outputs=[out_path],
                   data=data, ensemble=ensemble, fit=fit, predictions=preds)
    print(f"wrote {out_path} (tie correction {correction:.4f})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = _build_config(args, require_seed=True, need_data=False)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        check_reps(args.reps, args.long_run)
    except ValueError as exc:
        raise ConfigFailure(str(exc)) from exc
    scenario = make_scenario(args.scenario, args.setting, args.n1, args.n2, args.censored)
    rows, result = run_scenario(scenario, M=args.reps, seed=config.seed, alpha=config.alpha)
    out_path = out_dir / "rejection_rates.csv"
    write_result_rows(rows, out_path)
    dump_path = out_dir / "estimates.csv"
    np.savetxt(dump_path, result.estimates, delimiter=",",
               header=",".join(f"beta{k}" for k in range(result.estimates.shape[1])),
               comments="")
    write_manifest(out_dir, "simulate", config, outputs=[out_path, dump_path],
                   montecarlo=result)
    print(f"wrote {out_path}")
    return EXIT_OK


def _build_config(args, require_seed=False, need_data=True) -> AnalysisConfig:
    if getattr(args, "config", None):
        config = AnalysisConfig.from_file(args.config)
    else:
        config = AnalysisConfig()
    overrides = {}
    for attr, key in (
        ("tau", "tau"), ("link", "link"), ("bootstrap", "B"),
        ("alpha", "alpha"), ("seed", "seed"), ("method", "method"),
        ("out_dir", "out_dir"), ("cov1", "covariates1"), ("cov2", "covariates2"),
        ("strict_singular", "strict_singular"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[key] = value
    merged = {**asdict(config), **overrides}
    config = AnalysisConfig(**merged)
    if require_seed and config.seed is None:
        raise ConfigFailure("a seed is required for this command (use --seed)")
    if need_data and not getattr(args, "data", None):
        raise ConfigFailure("an input data file is required (use --data)")
    return config


def _csv_list(text):
    return [c.strip() for c in text.split(",") if c.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="releff",
        description="Regression models for the relative treatment effect P(T1 > T2 | Z1, Z2)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", help="JSON configuration file")
        if data:
            p.add_argument("--data", help="input CSV (group,time,status,covariates)")
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
        p.add_argument("--seed", type=int)
        p.add_argument("--tau", type=float,
                       help="horizon; inf for none (default: the largest observed time)")
        p.add_argument("--link", choices=sorted(LINKS))
        p.add_argument("--bootstrap", type=int, help="number of bootstrap replicates")
        p.add_argument("--alpha", type=float)
        p.add_argument("--method", choices=[*METHODS, "all"])
        p.add_argument("--cov1", type=_csv_list, help="group-1 covariate columns, comma separated")
        p.add_argument("--cov2", type=_csv_list, help="group-2 covariate columns, comma separated")
        p.add_argument("--strict-singular", dest="strict_singular", action="store_const", const=True)

    p_fit = sub.add_parser("fit", help="fit the model, optionally with bootstrap SEs")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", help="bootstrap hypothesis tests per coefficient")
    common(p_test)
    p_test.set_defaults(func=cmd_test)

    p_pred = sub.add_parser("predict", help="tie-corrected per-subject predictions")
    common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="Monte Carlo rejection-rate study")
    common(p_sim, data=False)
    p_sim.add_argument("--scenario", required=True, choices=["i", "ii", "iii", "iv"])
    p_sim.add_argument("--setting", default="II", choices=["I", "II"])
    p_sim.add_argument("--n1", type=int, default=50)
    p_sim.add_argument("--n2", type=int, default=50)
    p_sim.add_argument("--censored", action="store_true")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--long-run", dest="long_run", action="store_true",
                       help="allow full-scale replication counts")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseFailure as exc:
        log.error("parse error: %s", exc)
        return EXIT_PARSE
    except ConfigFailure as exc:
        log.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except np.linalg.LinAlgError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_CONVERGENCE
    except RuntimeError as exc:
        log.error("%s", exc)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
