"""Tests of the benchmark's own arithmetic.

    python3 -m pytest bench
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, self_times  # noqa: E402
from summary import tail  # noqa: E402


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "t")


def test_self_time_subtracts_nested_children():
    spans = [_span("root", 0.0, 10.0),
             _span("a", 1.0, 4.0, 0),
             _span("a.inner", 2.0, 3.0, 1),
             _span("b", 5.0, 9.0, 0)]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


class _Target:
    @staticmethod
    def leaf():
        return "leaf"

    @staticmethod
    def outer():
        return _Target.leaf()


def test_recorder_nests_patched_calls_and_restores_them():
    ticks = iter(range(100))
    rec = Recorder("t", clock=lambda: float(next(ticks)))
    original = _Target.__dict__["leaf"]
    rec.patch_method(_Target, "leaf", "layer.leaf")
    rec.patch_method(_Target, "outer", "layer.outer", keep_result=True)
    assert _Target.outer() == "leaf"
    rec.close()
    assert _Target.__dict__["leaf"] is original
    outer, leaf = rec.spans
    assert (outer.name, outer.parent) == ("layer.outer", None)
    assert (leaf.name, leaf.parent) == ("layer.leaf", 0)
    # outer 0..3, leaf 1..2: one tick of self time each
    assert self_times(rec.spans) == [2.0, 1.0]
    assert rec.results["layer.outer"] == ["leaf"]
    assert rec.named("layer.leaf", under="layer.outer") == [1]
    assert rec.table()["layer.outer"]["self_s"] == 2.0


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    value, pct = tail([float(i) for i in range(1, 101)])
    assert (value, pct) == (90.0, 90.0)
    value, pct = tail([float(i) for i in range(11, 0, -1)])
    assert value == 1.0 and pct == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail([1.0] * 10)


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for section, declared in (("end_to_end", workloads.END_TO_END),
                              ("per_layer", workloads.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
        assert listed == declared
        assert all(better in ("lower", "higher") for _, better in declared.values())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_printing_an_undeclared_metric_is_refused():
    values = dict.fromkeys(workloads.END_TO_END, 1.0)
    run.check_declared(values, workloads.END_TO_END, "end_to_end")
    with pytest.raises(SystemExit):
        run.check_declared({**values, "extra_s": 1.0}, workloads.END_TO_END,
                           "end_to_end")
    with pytest.raises(SystemExit):
        run.check_declared(values, {**workloads.END_TO_END,
                                    "setup_s": ("ms", "lower")}, "end_to_end")
