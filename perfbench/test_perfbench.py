"""The benchmark's own tests, at tiny sizes.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "atm_socket": {"instances": 4, "cells": 5, "batch": 16},
    "atm_oneshot": {"instances": 20, "cells": 5},
    "merge_oneshot": {"instances": 20, "events": 10},
    "qss_synth": {
        "nets": tuple(
            (name, build)
            for name, build in workloads.QSS_NETS
            if name in ("heating", "figure4", "figure7")
        )
    },
}


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def current_targets() -> dict:
    resolved = {}
    for _, path, _ in spans.TARGETS:
        owner, attribute = spans._resolve(path)
        resolved[path] = vars(owner).get(attribute, getattr(owner, attribute))
    return resolved


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_is_correct_and_prints_end_to_end_metrics(name, seed):
    result = workloads.run(name, seed, seconds=0.05, trace=False, options=TINY[name])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric for metric in benchmark_json()["end_to_end"]}
    assert set(result["metrics"]) == set(expected)
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == expected[metric_name]["unit"]
        assert metric["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_prints_per_layer_metrics_and_restores_targets(name, tmp_path):
    before = current_targets()
    result = workloads.run(
        name, 3, seconds=0.1, trace=True, options=TINY[name], trace_dir=tmp_path
    )
    assert current_targets() == before
    assert result["correct"] is True
    expected = {metric["name"]: metric for metric in benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == set(expected)
    for metric_name, metric in result["metrics"].items():
        assert metric["unit"] == expected[metric_name]["unit"]
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    assert metrics["trace.missing"] == 0
    assert metrics["trace.overhead"] > 0
    for layer in workloads.WORKLOADS[name].target_layers:
        assert metrics[f"{layer}.calls"] > 0, layer
    written = json.loads((tmp_path / f"{name}-seed3.json").read_text())
    assert written["fields"] == list(spans.SPAN_FIELDS)
    assert written["spans"]


def test_exception_counts_as_failed(monkeypatch):
    calls = []

    class Flaky(workloads.FleetSimulator):
        def run(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return super().run(*args, **kwargs)

    monkeypatch.setattr(workloads, "FleetSimulator", Flaky)
    result = workloads.run(
        "merge_oneshot", 1, seconds=0.05, trace=False, options=TINY["merge_oneshot"]
    )
    assert result["failed"] == 1
    assert result["correct"] is False


def test_mismatch_counts_as_failed(monkeypatch):
    expected = workloads.load_expected_qss()
    expected["figure4"] = dict(expected["figure4"], code_lines=-1)
    monkeypatch.setattr(workloads, "load_expected_qss", lambda: expected)
    result = workloads.run(
        "qss_synth", 1, seconds=0.05, trace=False, options=TINY["qss_synth"]
    )
    # every pass and the legacy cross-check see the wrong figure4 record
    assert result["failed"] >= 2
    assert result["correct"] is False


def test_timings_scale_to_the_reference_speed(monkeypatch):
    bursts = [[0.02, 0.09, 0.01], [0.01, 0.01, 0.01], [0.03, 0.03, 0.5]]
    probes = iter([value for burst in bursts for value in burst])
    monkeypatch.setattr(workloads, "PROBE_BURST", 3)
    monkeypatch.setattr(workloads, "probe", lambda: next(probes))
    speed = workloads.Speedometer()
    speed.check()
    speed.check()  # not due yet: no second burst
    assert speed.probes == [0.02]
    speed.due = 0.0
    speed.check()
    speed.due = 0.0
    speed.check()
    assert speed.probes == [0.02, 0.01, 0.03]
    assert speed.slowdown() == pytest.approx(0.02 / workloads.PROBE_REFERENCE)
    raw = {"throughput": 100.0, "setup_s": 3.0, "peak_rss_mb": 50.0, "batch_p50_ms": 8.0}
    assert workloads.to_reference(raw, slowdown=2.0, setup_slowdown=1.5) == {
        "throughput": 200.0,
        "setup_s": 2.0,
        "peak_rss_mb": 50.0,
        "batch_p50_ms": 4.0,
    }


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    latencies = [i / 1000 for i in range(1, 1001)]
    assert workloads.tail_summary(latencies[:99]) is None
    assert workloads.tail_summary(latencies[:100]).startswith("p90 ")
    assert workloads.tail_summary(latencies).startswith("p99 ")
    assert "(10 beyond)" in workloads.tail_summary(latencies)


def test_catalogue_matches_benchmark_json():
    document = benchmark_json()
    assert [
        (m["name"], m["unit"], m["better"]) for m in document["end_to_end"]
    ] == list(workloads.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in document["per_layer"]
    ] == workloads.per_layer_catalogue()
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)


def test_layer_map_covers_every_layer():
    layer_map = json.loads((HERE / "layers.json").read_text())
    assert list(layer_map["layers"]) == list(spans.LAYERS)
    assert list(layer_map["workloads"]) == list(workloads.WORKLOADS)
    for name, entry in layer_map["workloads"].items():
        assert entry["target_layers"] == list(workloads.WORKLOADS[name].target_layers)


def test_missing_target_is_reported_not_fatal():
    tracer = spans.Tracer(
        spans.TARGETS
        + (("fleet.cascade", "repro.runtime.fleet:FleetEngine._gone", spans._one),)
    )
    before = current_targets()
    with tracer:
        assert tracer.missing == ["repro.runtime.fleet:FleetEngine._gone"]
    assert current_targets() == before


def test_async_spans_split_busy_and_wait_and_subtract_children():
    class Target:
        @staticmethod
        def child() -> None:
            end = time.perf_counter() + 0.02
            while time.perf_counter() < end:
                pass

        @staticmethod
        async def parent() -> str:
            Target.child()
            await asyncio.sleep(0.05)
            Target.child()
            return "done"

    module = type(sys)("perfbench_probe")
    module.Target = Target
    sys.modules["perfbench_probe"] = module
    try:
        tracer = spans.Tracer(
            (
                ("probe.parent", "perfbench_probe:Target.parent", spans._one),
                ("probe.child", "perfbench_probe:Target.child", spans._one),
            )
        )
        with tracer:
            assert asyncio.run(Target.parent()) == "done"
        totals = tracer.layer_totals()
    finally:
        del sys.modules["perfbench_probe"]
    assert totals["probe.child"]["calls"] == 2
    assert totals["probe.child"]["busy_s"] >= 0.04
    assert totals["probe.parent"]["busy_s"] < 0.01
    assert totals["probe.parent"]["wait_s"] >= 0.045
    parent_span = next(s for s in tracer.spans if s[spans.NAME] == "probe.parent")
    assert all(
        s[spans.PARENT] == tracer.spans.index(parent_span)
        for s in tracer.spans
        if s[spans.NAME] == "probe.child"
    )


def test_expected_qss_file_matches_both_engines():
    expected = workloads.load_expected_qss()
    assert sorted(expected) == sorted(name for name, _ in workloads.QSS_NETS)
    for name, build in workloads.QSS_NETS:
        net = build()
        assert workloads.qss_record(net) == expected[name], name
        assert workloads.qss_record(net, engine="legacy") == expected[name], name


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qss_synth", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
