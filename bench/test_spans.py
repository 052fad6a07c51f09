"""Tests of the benchmark's span arithmetic and entry-point wrapping.

    python3 -m pytest bench/test_spans.py
"""

import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers
from spans import Tracer, covered, self_times


def span(sid, parent, start, end, name="x"):
    return (sid, parent, name, start, end)


def test_leaf_self_time_is_its_duration():
    assert self_times([span(0, -1, 2.0, 5.0)]) == {0: 3.0}


def test_disjoint_children_are_subtracted():
    spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 6.0, 7.5)]
    assert self_times(spans)[0] == pytest.approx(6.5)


def test_overlapping_children_count_once():
    spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 6.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_child_outside_parent_is_clipped():
    assert covered((0.0, 10.0), [(8.0, 12.0), (-3.0, -1.0)]) == pytest.approx(2.0)


def test_grandchildren_subtract_only_from_their_parent():
    spans = [span(0, -1, 0.0, 10.0), span(1, 0, 1.0, 5.0), span(2, 1, 2.0, 3.0)]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 6.0, 1: 3.0, 2: 1.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_wrapped_calls_nest_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.01)

    def outer():
        ns.inner()
        ns.inner()
        time.sleep(0.01)
        return "done"

    ns.outer = outer
    original_inner = ns.inner
    tracer = Tracer()
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "missing", "missing")
    assert ns.outer() == "done"
    tracer.restore()
    assert ns.inner is original_inner

    summary = tracer.summary()
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["calls"] == 1
    outer_s = summary["outer"]
    assert outer_s["self_s"] == pytest.approx(outer_s["s"] - summary["inner"]["s"])
    assert "missing" not in summary
    assert len(tracer.absent) == 1 and tracer.absent[0].endswith(".missing")


def test_removed_entry_point_is_absent_with_zero_count(monkeypatch):
    import releff.pseudo

    monkeypatch.delattr(releff.pseudo, "leave_one_out_km")
    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    assert "releff.pseudo.leave_one_out_km" in tracer.absent
    metrics = layers.layer_metrics(tracer, wall_s=1.0)
    assert metrics["survival.loo_km_calls"] == 0
    assert metrics["survival.loo_km_s"] == 0.0
