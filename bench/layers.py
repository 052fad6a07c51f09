"""Where the benchmark traces releff, and the per-layer metrics it derives.

Each entry point is wrapped in the module whose code calls it, so the spans
nest the way the calls do: ``pseudo_matrix`` (looked up by ``inference``)
encloses the ``kaplan_meier`` and ``leave_one_out_km`` calls that ``pseudo``
makes.  ``kaplan_meier`` is traced where ``pseudo`` and ``cli`` call it, so
``survival.km_*`` counts full-sample fits; the fits inside
``leave_one_out_km`` belong to ``survival.loo_km_*``.
"""

from __future__ import annotations

import importlib

from spans import Tracer

_HOOK_ERRORS = (AttributeError, TypeError, KeyError, IndexError)


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _on_pseudo(tracer, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    method = _arg(args, kwargs, 1, "method", "auto")
    tracer.counts["pseudo.matrix_bytes"] += 8 * data.n1 * data.n2
    if method in ("auto", "stieltjes") and not data.uncensored:
        tracer.counts["pseudo.stieltjes_calls"] += 1


def _on_fit(tracer, args, kwargs, result):
    tracer.counts["gee.newton_iters"] += int(result.iterations)
    tracer.counts["gee.pinv_fallbacks"] += bool(result.used_pinv)
    tracer.counts["gee.nonconverged"] += not result.converged


def _on_bootstrap(tracer, args, kwargs, result):
    tracer.counts["inference.replicates"] += int(result.B)
    tracer.counts["inference.replicates_failed"] += int(result.failed)


def _on_warp_speed(tracer, args, kwargs, result):
    tracer.counts["inference.replicates"] += int(_arg(args, kwargs, 1, "M"))
    tracer.counts["inference.replicates_failed"] += int(result.failed)


def _on_predict(tracer, args, kwargs, result):
    tracer.counts["predict.out_of_range"] += bool(result.out_of_range)


def _on_ingest(tracer, args, kwargs, result):
    tracer.counts["cli.rows_ingested"] += result.n1 + result.n2


def _guarded(hook):
    """A hook that meets an unexpected result shape counts it, not crashes."""

    def run(tracer, args, kwargs, result):
        try:
            hook(tracer, args, kwargs, result)
        except _HOOK_ERRORS:
            tracer.counts[f"hook_errors.{hook.__name__}"] += 1

    return run


# (module, attribute, span name, result hook)
ENTRY_POINTS = [
    ("pseudo", "leave_one_out_km", "survival.leave_one_out_km", None),
    ("pseudo", "kaplan_meier", "survival.kaplan_meier", None),
    ("cli", "kaplan_meier", "survival.kaplan_meier", None),
    ("sim", "TwoSampleDataset", "survival.TwoSampleDataset", None),
    ("inference", "TwoSampleDataset", "survival.TwoSampleDataset", None),
    ("cli", "TwoSampleDataset", "survival.TwoSampleDataset", None),
    ("inference", "pseudo_matrix", "pseudo.pseudo_matrix", _on_pseudo),
    ("gee", "fit", "gee.fit", _on_fit),
    ("gee", "estimating_function", "gee.estimating_function", None),
    ("gee", "jacobian", "gee.jacobian", None),
    ("sim", "simulate_dataset", "sim.simulate_dataset", None),
    ("sim", "warp_speed", "inference.warp_speed", _on_warp_speed),
    ("cli", "bootstrap", "inference.bootstrap", _on_bootstrap),
    ("cli", "predict_with_ci", "predict.predict_with_ci", _on_predict),
    ("cli", "tie_correction_term", "predict.tie_correction_term", None),
    ("cli", "ingest_csv", "cli.ingest_csv", _on_ingest),
    ("cli", "cmd_fit", "cli.fit", None),
    ("cli", "cmd_test", "cli.test", None),
    ("cli", "cmd_predict", "cli.predict", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every entry point above; missing ones are recorded as absent."""
    for module_name, attr, span, hook in ENTRY_POINTS:
        try:
            module = importlib.import_module(f"releff.{module_name}")
        except ImportError:
            tracer.absent.append(f"releff.{module_name}.{attr}")
            continue
        tracer.wrap(module, attr, span, _guarded(hook) if hook else None)


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass over a fixed list of tasks."""
    summary = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def seconds(name):
        return summary.get(name, {}).get("s", 0.0)

    def self_seconds(*names):
        return sum(summary.get(n, {}).get("self_s", 0.0) for n in names)

    replicates = counts["inference.replicates"]
    failed = counts["inference.replicates_failed"]
    return {
        "survival.loo_km_calls": calls("survival.leave_one_out_km"),
        "survival.loo_km_s": seconds("survival.leave_one_out_km"),
        "survival.km_calls": calls("survival.kaplan_meier"),
        "survival.km_s": seconds("survival.kaplan_meier"),
        "survival.dataset_builds": calls("survival.TwoSampleDataset"),
        "survival.dataset_build_s": seconds("survival.TwoSampleDataset"),
        "pseudo.matrix_calls": calls("pseudo.pseudo_matrix"),
        "pseudo.matrix_s": seconds("pseudo.pseudo_matrix"),
        "pseudo.matrix_self_s": self_seconds("pseudo.pseudo_matrix"),
        "pseudo.stieltjes_calls": counts["pseudo.stieltjes_calls"],
        "pseudo.matrix_bytes": counts["pseudo.matrix_bytes"],
        "gee.fit_calls": calls("gee.fit"),
        "gee.fit_s": seconds("gee.fit"),
        "gee.newton_iters": counts["gee.newton_iters"],
        "gee.estfun_calls": calls("gee.estimating_function"),
        "gee.jacobian_calls": calls("gee.jacobian"),
        "gee.pinv_fallbacks": counts["gee.pinv_fallbacks"],
        "gee.nonconverged": counts["gee.nonconverged"],
        "sim.datasets": calls("sim.simulate_dataset"),
        "sim.simulate_s": seconds("sim.simulate_dataset"),
        "inference.replicates": replicates,
        "inference.replicates_failed": failed,
        "inference.ok_ratio": (replicates - failed) / replicates if replicates else 0.0,
        "inference.bootstrap_s": seconds("inference.bootstrap"),
        "inference.warp_speed_s": seconds("inference.warp_speed"),
        "inference.self_s": self_seconds("inference.bootstrap", "inference.warp_speed"),
        "predict.calls": calls("predict.predict_with_ci"),
        "predict.s": seconds("predict.predict_with_ci"),
        "predict.tie_correction_s": seconds("predict.tie_correction_term"),
        "predict.out_of_range": counts["predict.out_of_range"],
        "cli.rows_ingested": counts["cli.rows_ingested"],
        "cli.ingest_s": seconds("cli.ingest_csv"),
        "cli.fit_s": seconds("cli.fit"),
        "cli.test_s": seconds("cli.test"),
        "cli.predict_s": seconds("cli.predict"),
        "cli.self_s": self_seconds("cli.fit", "cli.test", "cli.predict"),
        "trace.wall_s": wall_s,
    }
