"""Smoke test of the benchmark itself: ``python -m pytest perf -q``.

Kept outside tier-1's ``testpaths``.  Every workload runs for one untraced
and one traced repetition; the checks are about the harness (names, units,
the trace table, ``compare.py``), never about how fast the program is.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf import compare, run, spec
from perf.trace import LayerTracer
from perf.workloads import WORKLOADS

BENCHMARK = spec.load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Filled in by ``run_workload`` around the measurement, not by a repetition.
PROCESS_METRICS = {"setup_s", "peak_rss_mb"}


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["paths"] == ["perf"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert not set(spec.EXTENDED) & set(names)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_emits_every_metric(name):
    workload = WORKLOADS[name](seed=11)
    workload.setup()
    try:
        plain, traced, tracer = run.measure(workload, seconds=0.0, trace=True, max_reps=2)
    finally:
        workload.teardown()
    assert len(plain) == len(traced) == 1
    checks = run.verdict(workload, plain + traced)
    assert checks["correct"], checks["failures"]
    assert (checks["decision_digest"] is not None) == workload.simulated

    emitted = run.end_to_end_metrics(workload, plain, checks)
    for metric in BENCHMARK["end_to_end"]:
        if metric["name"] not in PROCESS_METRICS:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
            assert emitted[metric["name"]]["value"] > 0
    bounds = spec.end_to_end_bounds(BENCHMARK)
    for metric_name, metric in emitted.items():
        assert NAME.fullmatch(metric_name)
        assert metric["unit"] == bounds[metric_name].unit

    layers = run.per_layer_metrics(workload, plain, traced, tracer)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        metric_name: metric["unit"] for metric_name, metric in layers.items()
    }
    assert layers["interpreter.self_ms"]["value"] > 0
    assert layers["events.calls"]["value"] > 0
    if workload.simulated:
        assert layers["trace.self_sum_ratio"]["value"] == pytest.approx(1.0, abs=0.01)


def test_trace_table_resolves_and_restores():
    from repro.events.bus import EventBus

    original = EventBus.publish
    tracer = LayerTracer()
    tracer.install()
    try:
        assert EventBus.publish is not original
        resolved, missing = len(tracer.resolved), len(tracer.missing)
        assert resolved / (resolved + missing) >= 0.9, tracer.missing
    finally:
        tracer.uninstall()
    assert EventBus.publish is original


def test_command_line_prints_the_contract(tmp_path):
    script = str(Path(run.__file__))
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        command = [sys.executable, script, "--workload", "event_flood", "--seed", "5"]
        command += ["--reps", "2", "--trace", str(trace)]
        done = subprocess.run(command, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
        assert {n: m["unit"] for n, m in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in BENCHMARK[section]
        }
        written = json.loads((spec.OUT / f"event_flood_seed5_trace{trace}.json").read_text())
        assert written["seed"] == 5
        assert set(written["host"]) == {"nproc", "python", "numpy", "platform"}
    spans = json.loads((spec.OUT / "trace_event_flood.json").read_text())
    assert spans["spans"] and spans["spans"][0]["layer"] == "interpreter"


def test_compare_flags_a_slower_wall(tmp_path):
    def document(wall, quartile=0.01):
        timing = {"unit": "s", "value": wall, "q1": wall - quartile, "q3": wall + quartile}
        return {
            "workload": "storm_shared",
            "trace": 0,
            "simulated": True,
            "decision_digest": "d",
            "metrics": {
                "wall_s": timing,
                "failed_share": {"unit": "share", "value": 0.0, "n": 100},
            },
        }

    base, slower = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(document(1.0)))
    slower.write_text(json.dumps(document(1.3)))
    verdicts = {row["metric"]: row["verdict"] for row in compare.compare(str(base), str(slower))}
    assert verdicts == {"wall_s": "regressed", "failed_share": "unchanged"}
    assert compare.main([str(base), str(slower)]) == 1
    assert compare.main([str(base), str(base)]) == 0
    faster = {row["metric"]: row["verdict"] for row in compare.compare(str(slower), str(base))}
    assert faster["wall_s"] == "improved"
    slower.write_text(json.dumps(document(1.3, quartile=0.2)))
    noisy = {row["metric"]: row["verdict"] for row in compare.compare(str(base), str(slower))}
    assert noisy["wall_s"] == "unresolved"
