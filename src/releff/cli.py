"""Command-line front end: CSV ingestion, fit/test/predict/simulate workflows.

CSV ingestion reads the rows in blocks of BLOCK_ROWS and checks each block
in column passes, one pass over a column per check (``_column_pass``), not
row by row.  It keeps and drops the same rows as a reader that checks one
row at a time, and the first failing row in file order raises the message
that reader would raise.

Exit codes: 0 success, 2 parse failure, 3 convergence failure,
4 configuration failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import math
import numbers
import os
import platform
import sys
from dataclasses import dataclass, field, asdict
from itertools import compress, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .gee import IDENTITY, LINKS, LOGIT, logit_working_set, sandwich_covariance_uncensored
from .inference import METHODS, FitSpec, bootstrap, require_usable, test_coefficient
from .predict import predict_profiles
from .pseudo import tie_correction_term
from .sim import check_reps, make_scenario, run_scenario, write_result_rows
from .survival import TwoSampleDataset

log = logging.getLogger("releff")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONVERGENCE = 3
EXIT_CONFIG = 4

# a logit fit peaks while it builds the pseudo matrix, at up to three
# (n + 1) x (K + 2) or n1 x n2 float arrays under censoring (K the size of
# the group-2 jump grid), or then holds the matrix and the three block
# buffers of Newton's evaluator
# (``gee.logit_working_set``); a larger working set is refused before any fit
WORKING_SET_BYTES = 2 << 30

# rows per block of CSV ingestion: the rows of one block are the only text
# held at once (at 1 << 14 a 20 000-row file peaked above a row-by-row read)
BLOCK_ROWS = 1 << 12

# the cells that read as a group label or a status; any other reads 0 or -1
_GROUP_CODES = {"1": 1, "2": 2}
_STATUS_CODES = {"0": 0, "1": 1}

# the environment variables that set the BLAS thread count, which can move
# the last bits of a logit fit; every manifest records their values
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the configuration fields each command reads, in manifest order: its parser
# has an option for each, its manifest records each, and it refuses a config
# file that sets any other away from its default
_FIT_FIELDS = ("link", "tau", "B", "alpha", "seed", "covariates1", "covariates2",
               "strict_singular", "out_dir")
COMMAND_FIELDS = {
    "fit": _FIT_FIELDS,
    "test": (*_FIT_FIELDS, "method"),
    "predict": (*_FIT_FIELDS, "method"),
    "simulate": ("seed", "alpha", "out_dir"),
}


class ParseFailure(Exception):
    pass


class ConfigFailure(Exception):
    pass


@dataclass
class AnalysisConfig:
    link: str = IDENTITY
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
        self._check_types()
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

    def _check_types(self):
        """ConfigFailure for a value of the wrong type, e.g. from a JSON file."""
        def integer(x):
            return isinstance(x, numbers.Integral) and not isinstance(x, bool)

        def real(x):
            return isinstance(x, numbers.Real) and not isinstance(x, bool)

        def names(x):
            return isinstance(x, (list, tuple)) and all(isinstance(c, str) for c in x)

        for name, ok, what in (
            ("link", isinstance(self.link, str), "a string"),
            ("tau", self.tau is None or real(self.tau), "a number"),
            ("B", integer(self.B), "an integer"),
            ("alpha", real(self.alpha), "a number"),
            ("seed", self.seed is None or integer(self.seed), "an integer"),
            ("method", isinstance(self.method, str), "a string"),
            ("covariates1", names(self.covariates1), "a list of column names"),
            ("covariates2", names(self.covariates2), "a list of column names"),
            ("strict_singular", isinstance(self.strict_singular, bool), "true or false"),
            ("out_dir", isinstance(self.out_dir, (str, os.PathLike)), "a path"),
        ):
            if not ok:
                raise ConfigFailure(f"{name} must be {what}, got {getattr(self, name)!r}")


def _read_config(path) -> dict:
    """The fields a JSON config file sets, by name."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigFailure(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigFailure(f"config {path} must hold a JSON object")
    if "tau" in raw and raw["tau"] == "inf":
        raw["tau"] = float("inf")
    unknown = set(raw) - set(AnalysisConfig.__dataclass_fields__)
    if unknown:
        raise ConfigFailure(f"unknown config keys: {sorted(unknown)}")
    return raw


def _parse_float(text, row, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseFailure(f"row {row}, column {column!r}: not a number: {text!r}")
    if not math.isfinite(value):
        raise ParseFailure(f"row {row}, column {column!r}: not a finite number: {text!r}")
    return value


def _float_or_nan(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _floats(cells):
    """The cells read by Python's ``float``, NaN where it reads no number."""
    try:
        return np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        return np.fromiter(map(_float_or_nan, cells), float, len(cells))


def ingest_csv(path, config: AnalysisConfig) -> TwoSampleDataset:
    """Read a two-group dataset (``_read_groups``); rows with missing used
    values are dropped with row-numbered diagnostics."""
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet programs write
        fh = open(path, newline="", encoding="utf-8-sig")
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
    t1 = np.asarray(groups[1]["t"])
    t2 = np.asarray(groups[2]["t"])
    if (np.concatenate((t1, t2)) < 0).any() and (
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
        log.warning("tau not set; defaulting to the largest observed time %.6g "
                    "(a group-2 event at exactly tau is not counted)", tau)
    return TwoSampleDataset(t1, groups[1]["e"], groups[1]["z"],
                            t2, groups[2]["e"], groups[2]["z"], tau=tau)


def _read_groups(path, fh, config: AnalysisConfig):
    """Per-group times, status and covariate rows of an open CSV file, and
    the numbers of the rows dropped as incomplete.

    Rows are numbered from 1 at the header, blank lines not counted; a cell
    beyond the end of a short row is missing, and of two columns with the
    same name the last one is read.  Rows are read in blocks of BLOCK_ROWS,
    each checked and converted by ``_column_pass``, so one block is all the
    text held at once.  A read error inside a block is raised after the
    rows before it are checked, as when rows are checked one at a time.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        raise ParseFailure(f"{path}: empty file, header row required")
    required = {"group", "time", "status"}
    missing = required - set(header)
    if missing:
        raise ParseFailure(f"{path}: missing required columns {sorted(missing)}")
    index = {name: k for k, name in enumerate(header)}
    covariates = {1: config.covariates1, 2: config.covariates2}
    absent = {g: [c for c in cols if c not in index] for g, cols in covariates.items()}
    rows = filter(None, reader)     # a blank line is no row
    parts, dropped, first = [], [], 2
    while True:
        block, error = [], None
        try:
            block.extend(islice(rows, BLOCK_ROWS))
        except (UnicodeDecodeError, csv.Error) as exc:
            error = exc
        parts.append(_column_pass(block, first, len(header), index, covariates, absent, dropped))
        if error is not None:
            raise error
        if len(block) < BLOCK_ROWS:
            break
        first += len(block)
    groups = {g: {key: np.concatenate([part[g][key] for part in parts]) for key in "tez"}
              for g in (1, 2)}
    return groups, dropped


def _column_pass(block, first, width, index, covariates, absent, dropped):
    """Per-group times, status and covariates of the rows ``block``, the
    first of them row ``first``; appends the numbers of its incomplete rows
    to ``dropped``.

    Each check is a pass over one column: a group label other than 1 or 2,
    a group with an absent covariate column, an empty used cell (the row is
    dropped), and on the rows kept a time or covariate that Python's
    ``float`` does not read or that is not finite, a status other than 0 or
    1 and a negative censored time.  The first row that fails one raises,
    worded by ``_raise_row_failure``."""
    n = len(block)
    lengths = np.fromiter(map(len, block), np.intp, n)
    for k in np.flatnonzero(lengths < width):
        block[k] = block[k] + [""] * (width - lengths[k])

    def cells(name, rows):
        return list(compress(map(itemgetter(index[name]), block), rows))

    labels = map(itemgetter(index["group"]), block)
    group = np.fromiter(map(_GROUP_CODES.get, labels, repeat(0)), np.int8, n)
    failing = group == 0
    readers = {}                # covariate name -> the rows whose group reads it
    for g in (1, 2):
        if absent[g]:
            failing |= group == g
        else:
            for name in covariates[g]:
                readers[name] = readers.get(name, False) | (group == g)
    labelled = ~failing
    text = cells("status", labelled)
    status = np.fromiter(map(_STATUS_CODES.get, text, repeat(-1)), np.int8, len(text))
    empty = np.zeros(n, dtype=bool)
    empty[labelled] = _blank(text, status < 0)
    text = cells("time", labelled)
    time = _floats(text)
    empty[labelled] |= _blank(text, np.isnan(time))
    values = {}
    for name, rows in readers.items():
        text = cells(name, rows)
        values[name] = _floats(text)
        empty[rows] |= _blank(text, np.isnan(values[name]))
    kept = labelled & ~empty
    failing[labelled] = kept[labelled] & (
        ~np.isfinite(time) | (status < 0) | ((status == 0) & (time < 0)))
    for name, rows in readers.items():
        failing[rows] |= kept[rows] & ~np.isfinite(values[name])
    if failing.any():
        r = int(np.argmax(failing))
        label = block[r][index["group"]] if lengths[r] > index["group"] else None
        _raise_row_failure(block[r], first + r, label, index, covariates, absent)
    dropped.extend((first + np.flatnonzero(labelled & empty)).tolist())
    part = {}
    for g in (1, 2):
        mine = kept[labelled] & (group[labelled] == g)
        z = np.empty((np.count_nonzero(mine), len(covariates[g])))
        for j, name in enumerate([] if absent[g] else covariates[g]):
            rows = readers[name]
            z[:, j] = values[name][kept[rows] & (group[rows] == g)]
        part[g] = {"t": time[mine], "e": status[mine].astype(float), "z": z}
    return part


def _blank(cells, suspect):
    """Which of ``cells`` are empty or white space, looked at only where
    ``suspect``: a cell that reads as a value is not blank."""
    if not suspect.any():
        return suspect
    return suspect & (np.fromiter(map(len, map(str.strip, cells)), np.intp, len(cells)) == 0)


def _raise_row_failure(row, row_no, label, index, covariates, absent):
    """Raise the ParseFailure of row ``row_no``, with group label ``label``,
    for the first check it fails in the order they apply to one row."""
    if label not in ("1", "2"):
        raise ParseFailure(f"row {row_no}, column 'group': expected 1 or 2, got {label!r}")
    g = int(label)
    if absent[g]:
        raise ParseFailure(f"missing covariate column {absent[g][0]!r}")
    time = _parse_float(row[index["time"]], row_no, "time")
    status = row[index["status"]]
    if status not in ("0", "1"):
        raise ParseFailure(f"row {row_no}, column 'status': expected 0 or 1, got {status!r}")
    if status == "0" and time < 0:
        raise ParseFailure(f"row {row_no}, column 'time': negative time on a censored record")
    for name in covariates[g]:
        _parse_float(row[index[name]], row_no, name)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def library_versions() -> dict:
    """The releff, python, numpy and BLAS versions and the BLAS thread
    variables (``unset`` when absent), keyed as a manifest records them.

    The BLAS is ``unknown`` when numpy cannot name it (before numpy 1.25,
    ``show_config`` has no ``mode``)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "releff": __version__, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        **{f"env.{name}": os.environ.get(name, "unset") for name in BLAS_THREAD_VARIABLES},
    }


def write_manifest(out_dir: Path, command: str, config: AnalysisConfig,
                   inputs=(), outputs=(), data=None, ensemble=None, fit=None,
                   predictions=None, montecarlo=None):
    """Record the command, ``library_versions()``, the fields of ``config``
    it reads (B only when a bootstrap ran) and what the run actually used:
    the horizon of ``data``, the failures by cause of the bootstrap
    ``ensemble`` or of the ``montecarlo`` runs, the Newton iterations of
    the ensemble's refits and their evaluator sweeps, how the base ``fit`` was
    solved, and the interval of the ``predictions`` and how many of them
    fell outside [0, 1]."""
    versions = library_versions()
    lines = [f"command={command}", f"version={versions.pop('releff')}",
             *(f"{key}={value}" for key, value in versions.items())]
    for key in COMMAND_FIELDS[command]:
        if key != "B" or ensemble is not None:
            lines.append(f"config.{key}={getattr(config, key)}")
    if data is not None:
        lines.append(f"data.tau={data.tau}")
    if fit is not None:
        lines.append(f"fit.iterations={fit.iterations}")
        lines.append(f"fit.gradient_norm={fit.gradient_norm!r}")
        lines.append(f"fit.used_pinv={fit.used_pinv}")
    for prefix, runs in (("bootstrap", ensemble), ("montecarlo", montecarlo)):
        if runs is not None:
            lines.append(f"{prefix}.failed={runs.failed}")
            lines += [f"{prefix}.{cause}={count}" for cause, count in runs.failures.items()]
    if ensemble is not None:
        lines.append(f"bootstrap.unreliable={ensemble.unreliable}")
        lines.append(f"bootstrap.newton_iterations={ensemble.newton_iterations}")
        lines.append(f"bootstrap.newton_sweeps={ensemble.newton_sweeps}")
    if montecarlo is not None:
        lines.append(f"montecarlo.degenerate={montecarlo.degenerate}")
    if predictions is not None:
        lines.append(f"predict.interval={predictions.interval}")
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


def _output_dir(config: AnalysisConfig) -> Path:
    """``config.out_dir``, created if missing; ConfigFailure if it cannot be."""
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigFailure(f"cannot create output directory: {exc}") from exc
    return Path(config.out_dir)


def _prepare(args, predict=False):
    """Shared preamble of fit, test and predict.

    Builds the configuration, ingests the CSV, refuses a logit fit that
    needs more than WORKING_SET_BYTES, creates the output directory and
    fits the model.  Test and predict always run the bootstrap, fit when B
    is set; the base fit is then the bootstrap's ``base_fit``.  The base fit
    must converge to finite coefficients (``require_usable``).  For
    ``predict`` both groups must name the same covariate columns, the
    horizon must be finite and the interval method is emp or quantile.
    Returns (config, data, out_dir, ensemble, fit); ``ensemble`` is None
    without a bootstrap.
    """
    config, resample = _build_config(args)
    if not args.data:
        raise ConfigFailure("an input data file is required (use --data)")
    if predict and config.covariates1 != config.covariates2:
        raise ConfigFailure(
            "predict uses each subject's covariates for both groups; "
            "covariates1 and covariates2 must name the same columns"
        )
    if predict and config.tau == math.inf:
        raise ConfigFailure("predict needs a finite horizon for the tie correction; "
                            "set a finite --tau")
    if predict and config.method in ("iqr", "mad"):
        raise ConfigFailure(f"predict has no {config.method} interval; "
                            "use --method emp or quantile")
    data = ingest_csv(args.data, config)
    working_set = logit_working_set(data) if config.link == LOGIT else 0
    if working_set > WORKING_SET_BYTES:
        raise ConfigFailure(f"the logit link needs about {working_set / 2**30:.2f} GiB of working "
                            f"memory for n1 = {data.n1}, n2 = {data.n2}; the limit is "
                            f"{WORKING_SET_BYTES / 2**30:.2f} GiB")
    out_dir = _output_dir(config)
    spec = FitSpec(link=config.link, strict_singular=config.strict_singular)
    ensemble = bootstrap(data, spec=spec, B=config.B, seed=config.seed) if resample else None
    fit = spec.fit(data) if ensemble is None else ensemble.base_fit
    require_usable(fit, data)
    if fit.used_pinv:
        log.warning("the base fit solved a singular system by pseudo-inverse: a covariate is "
                    "collinear with others or far off the scale of the rest")
    if ensemble is not None and ensemble.unreliable:
        log.warning("bootstrap unreliable: %d of %d replicates failed",
                    ensemble.failed, ensemble.B)
    return config, data, out_dir, ensemble, fit


def cmd_fit(args) -> int:
    config, data, out_dir, ensemble, result = _prepare(args)
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
            for m, (scale, ci, reject) in rep.decisions.items():
                if scale is not None:
                    row[f"se_{m}"] = scale
                row[f"ci_{m}_low"], row[f"ci_{m}_high"] = ci
                row[f"reject_{m}"] = reject
    elif data.uncensored and config.link == IDENTITY:
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
            for method in methods:
                scale, ci, reject = rep.decisions[method]   # csv writes None as ""
                writer.writerow([name, rep.estimate, method, scale, ci[0], ci[1], reject])
    write_manifest(out_dir, "test", config, inputs=[args.data], outputs=[out_path],
                   data=data, ensemble=ensemble, fit=fit)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_predict(args) -> int:
    config, data, out_dir, ensemble, fit = _prepare(args, predict=True)
    correction = tie_correction_term(data)
    ci_method = "quantile" if config.method == "quantile" else "emp"
    # the additive tie correction exists for the identity link only
    link_correction = correction if config.link == IDENTITY else None

    out_path = out_dir / "predictions.csv"
    Z_all = np.vstack((data.covariates1, data.covariates2))
    preds = predict_profiles(
        fit, ensemble, Z_all, Z_all,
        link=config.link, correction=link_correction,
        alpha=config.alpha, method=ci_method,
    )
    # the correction is one number, formatted once as csv formats a float
    rows = zip(range(len(Z_all)), preds.point.tolist(), preds.ci_low.tolist(),
               preds.ci_high.tolist(), preds.classification.tolist(),
               preds.out_of_range.tolist(), repeat(str(correction)))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["subject", "probability", "ci_low", "ci_high", "classification",
             "out_of_range", "tie_correction"]
        )
        writer.writerows(rows)
    write_manifest(out_dir, "predict", config, inputs=[args.data], outputs=[out_path],
                   data=data, ensemble=ensemble, fit=fit, predictions=preds)
    print(f"wrote {out_path} (tie correction {correction:.4f})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, _ = _build_config(args)
    try:
        check_reps(args.reps, args.long_run)
        scenario = make_scenario(args.scenario, args.setting, args.n1, args.n2, args.censored)
    except ValueError as exc:
        raise ConfigFailure(str(exc)) from exc
    out_dir = _output_dir(config)
    rows, result = run_scenario(scenario, M=args.reps, seed=config.seed, alpha=config.alpha)
    out_path = out_dir / "rejection_rates.csv"
    write_result_rows(rows, out_path)
    dump_path = out_dir / "estimates.csv"
    np.savetxt(dump_path, result.estimates, delimiter=",",
               header=",".join(f"beta{k}" for k in range(result.estimates.shape[1])),
               comments="")
    write_manifest(out_dir, "simulate", config, outputs=[out_path, dump_path], montecarlo=result)
    print(f"wrote {out_path}")
    return EXIT_OK


def _build_config(args):
    """The configuration of ``args.command`` (its config file, in which a field
    the command does not read must keep its default, then its options) and
    whether it draws random numbers, needing a seed: all but a fit without B."""
    reads = COMMAND_FIELDS[args.command]
    raw = _read_config(args.config) if args.config else {}
    config = AnalysisConfig(**raw)
    defaults = asdict(AnalysisConfig())
    unread = [k for k, v in asdict(config).items() if k not in reads and v != defaults[k]]
    if unread:
        raise ConfigFailure(f"{args.command} does not read {', '.join(unread)}; "
                            "remove them from the configuration")
    # every option that overrides the configuration has its field as dest
    overrides = {k: getattr(args, k) for k in reads if getattr(args, k) is not None}
    config = AnalysisConfig(**{**asdict(config), **overrides})
    draws = args.command != "fit" or "B" in raw or "B" in overrides
    if draws and config.seed is None:
        raise ConfigFailure("a seed is required for this command (use --seed)")
    return config, draws


def _csv_list(text):
    return [c.strip() for c in text.split(",") if c.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="releff",
        description="Regression models for the relative treatment effect P(T1 > T2 | Z1, Z2)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    options = {   # configuration field: (option, add_argument keywords)
        "link": ("--link", {"choices": LINKS}),
        "tau": ("--tau", {"type": float, "help": "horizon; inf for none "
                          "(default: the largest observed time)"}),
        "B": ("--bootstrap", {"type": int, "help": "number of bootstrap replicates"}),
        "alpha": ("--alpha", {"type": float}),
        "seed": ("--seed", {"type": int}),
        "method": ("--method", {"choices": [*METHODS, "all"]}),
        "covariates1": ("--cov1", {"type": _csv_list, "help": "comma-separated group-1 columns"}),
        "covariates2": ("--cov2", {"type": _csv_list, "help": "comma-separated group-2 columns"}),
        "strict_singular": ("--strict-singular", {"action": "store_const", "const": True}),
        "out_dir": ("--out-dir", {"help": "output directory"}),
    }
    for name, text in (
        ("fit", "fit the model, optionally with bootstrap SEs"),
        ("test", "bootstrap hypothesis tests per coefficient"),
        ("predict", "tie-corrected per-subject predictions"),
        ("simulate", "Monte Carlo rejection-rate study"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON configuration file")
        if name != "simulate":
            p.add_argument("--data", help="input CSV (group,time,status,covariates)")
        for key in COMMAND_FIELDS[name]:
            p.add_argument(options[key][0], dest=key, **options[key][1])

    p_sim = sub.choices["simulate"]
    p_sim.add_argument("--scenario", required=True, choices=["i", "ii", "iii", "iv"])
    p_sim.add_argument("--setting", default="II", choices=["I", "II"])
    p_sim.add_argument("--n1", type=int, default=50)
    p_sim.add_argument("--n2", type=int, default=50)
    p_sim.add_argument("--censored", action="store_true")
    p_sim.add_argument("--reps", type=int, default=1000)
    p_sim.add_argument("--long-run", dest="long_run", action="store_true",
                       help="allow full-scale replication counts")
    return parser


# the parser of ``main``, built once per process
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        # the command is looked up by name at each call, not held by the parser
        return globals()[f"cmd_{args.command}"](args)
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
