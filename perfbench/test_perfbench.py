"""Tests of the end-to-end benchmark itself (not of the program it measures)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import Span, Tracer, covered_seconds, layer_totals, op_coverage, self_times

ROOT = run.ROOT


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"]: entry for entry in json.load(handle)[kind]}


def test_inputs_are_deterministic_for_a_seed():
    assert workloads.ordered(range(200), 5) == workloads.ordered(range(200), 5)
    assert workloads.ordered(range(200), 5) != workloads.ordered(range(200), 6)
    assert sorted(workloads.ordered(range(200), 5)) == list(range(200))
    first = workloads.build_suite(scale=0.04, corpus_seed=7)[1]
    second = workloads.build_suite(scale=0.04, corpus_seed=7)[1]
    for kind in ("original", "dual_variant"):
        left, right = getattr(first, kind).examples, getattr(second, kind).examples
        assert [(e.nlq, e.dvq, e.db_id) for e in left] == [(e.nlq, e.dvq, e.db_id) for e in right]


def test_a_percentile_needs_ten_samples_above_it():
    assert run.percentile([1.0] * 999, 0.99) is None
    values = [float(value) for value in range(1000)]
    assert run.percentile(values, 0.99) == 989.0  # ten samples lie above it
    assert run.percentile([1.0] * 199, 0.95) is None
    assert run.percentile(values[:200], 0.95) == 189.0
    assert run.percentile(values, 0.5) == 499.0
    assert run.percentile([1.0] * 19, 0.5) is None


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "b", 3.0, 6.0, 0, 0),  # overlaps a: counted once
        Span(3, "c", 8.0, 12.0, 0, 0),  # sticks out of op: clipped
        Span(4, "a.child", 2.0, 3.0, 1, 0),
        Span(5, "op", 20.0, 24.0, None, 1),  # a childless op
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(4.0)
    assert covered_seconds(spans[0], spans[1:4]) == pytest.approx(7.0)
    totals = layer_totals(spans)
    assert totals["op"].calls == 2
    assert totals["op"].self_seconds == pytest.approx(7.0)
    assert op_coverage(spans) == pytest.approx(7.0 / 14.0)


def test_tracer_records_only_inside_traced_ops():
    tracer = Tracer()
    with tracer.span("outside"):
        pass
    with tracer.op(0, traced=True):
        with tracer.span("inner"):
            pass
    with tracer.op(1, traced=False):
        with tracer.span("skipped"):
            pass
    names = {span.name: span for span in tracer.spans}
    assert set(names) == {"op", "inner"}
    assert names["inner"].parent == names["op"].span_id
    assert names["inner"].op == 0


def run_main(args, capsys):
    code = run.main(args)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out.strip().splitlines()[-1])


def test_every_printed_metric_is_declared_with_its_unit(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # traced runs write their spans under the cwd
    small = ["--seed", "1", "--scale", "0.04", "--seconds"]
    result = run_main(["--workload", "chart-small", "--trace", "0"] + small + ["0.5"], capsys)
    assert result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    end_to_end = declared("end_to_end")
    assert set(result["metrics"]) == set(end_to_end)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == end_to_end[name]["unit"]
        assert metric["value"] > 0, name
    per_layer = declared("per_layer")
    for workload in workloads.WORKLOADS:
        result = run_main(["--workload", workload, "--trace", "1"] + small + ["0.2"], capsys)
        assert result["correct"], workload
        assert set(result["metrics"]) == set(per_layer), workload
        assert all(result["metrics"][name]["unit"] == per_layer[name]["unit"] for name in per_layer)
    assert (tmp_path / ".bench_out" / "rob-trace-seed1.spans.jsonl").exists()


def test_declarations_follow_the_contract():
    for entry in declared("end_to_end").values():
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["better"] in ("lower", "higher") and 0 < entry["bound"] <= 0.25
    setup = declared("end_to_end")["setup_s"]
    assert setup["bound"] == max(entry["bound"] for entry in declared("end_to_end").values())
    for entry in declared("per_layer").values():
        assert set(entry) == {"name", "unit", "better"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chart-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
