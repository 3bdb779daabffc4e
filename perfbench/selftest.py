"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/selftest.py

Checks the span arithmetic, that tracing leaves report bytes unchanged, the
exact per-layer counts on the homo16 preset, and that BENCHMARK.json lists
exactly the metrics the harness prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import PER_LAYER, Span, Tracer, outermost, self_times, tail_percentile  # noqa: E402

import florasim.config  # noqa: E402
from florasim import simulation, training  # noqa: E402
from florasim.comm import emit_rows  # noqa: E402


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, 1, 0),
        Span("a", 1.0, 4.0, 2, 1),
        Span("b", 3.0, 6.0, 3, 1),  # overlaps a: children of root cover [1, 6]
        Span("c", 2.0, 3.0, 4, 2),
        Span("d", 9.0, 12.0, 5, 1),  # runs past its parent: only [9, 10] counts
    ]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_outermost_drops_spans_nested_in_their_own_name():
    spans = [
        Span("agg", 0.0, 4.0, 1, 0),
        Span("agg", 1.0, 2.0, 2, 1),
        Span("noise", 5.0, 9.0, 3, 0),
        Span("agg", 6.0, 7.0, 4, 3),
    ]
    assert [s.span_id for s in outermost(spans)] == [1, 3, 4]


def test_tail_percentile_needs_ten_values_beyond():
    values = [float(v) for v in range(1, 21)]
    assert tail_percentile(values, 50) == 10.0
    assert tail_percentile(values, 98) is None
    assert tail_percentile(values * 25, 98) == 20.0


def _compare_bytes(tmp_path: Path, name: str) -> bytes:
    config = florasim.config.parse_config(
        overrides={"rounds": "2", "samples": "200", "strategies": "flora,fedit", "seed": "3"}
    )
    comparison = simulation.compare_strategies(config, list(config.strategies))
    path = tmp_path / name
    emit_rows(comparison.to_rows(), path, seed=config.seed)
    return path.read_bytes()


def test_tracing_leaves_report_bytes_unchanged(tmp_path):
    untraced = _compare_bytes(tmp_path, "untraced.csv")
    tracer = Tracer()
    tracer.install()
    try:
        traced = _compare_bytes(tmp_path, "traced.csv")
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert tracer.spans and tracer.absent == []
    assert simulation.local_train is training.local_train


def test_exact_counts_on_homo16():
    # 800 training samples over 10 clients is 80 each: 5 batches of 16.
    tracer = Tracer()
    tracer.install()
    try:
        # Looked up through the module so the wrapped binding is the one called.
        config = florasim.config.parse_config(preset="homo16")
        simulation.run_experiment(config)
    finally:
        tracer.uninstall()
    layers = tracer.metrics()
    assert layers["training.local_train.calls"] == 30
    assert layers["training.sgd_steps"] == 150
    assert layers["training.sgd_samples"] == 2400
    assert layers["simulation.run_round.calls"] == 3
    assert layers["data.gen_task.calls"] == 1
    assert layers["config.parse.s"] > 0


def test_missing_name_is_recorded_absent():
    tracer = Tracer()
    tracer._wrap("training", "no_such_function", lambda fn: fn)
    tracer._wrap("no_such_module", "evaluate", lambda fn: fn)
    assert tracer.absent == ["training.no_such_function", "no_such_module.evaluate"]


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
