"""Tests of the benchmark itself: tiny runs, span self times, and checks
that cannot pass silently.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
from layers import layer_self_times, unattributed_frac
from repro.experiments.parallel import run_sweep, simulate_spec
from run import benchmark_metrics
from tracing import Span, Tracer, self_times
from workloads import fig5_specs

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
UNITS = benchmark_metrics(ROOT)
WORKLOADS = [
    w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


def bench(tmp_path, *args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "1",
         "--size", "tiny", "--out-dir", str(tmp_path), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, workload):
    proc, lines = bench(tmp_path, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(UNITS["end_to_end"])
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS["end_to_end"][name]
        assert metric["value"] > 0, name
    assert f"error_rate 0.0 ratio" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_spans(tmp_path, workload):
    proc, lines = bench(tmp_path, "--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    assert set(result["metrics"]) == set(UNITS["per_layer"])
    saved = json.loads(
        (tmp_path / f"result-{workload}-seed3-trace1.json").read_text()
    )
    assert saved["environment"]["nproc"] >= 1
    spans = [
        Span(**doc)
        for doc in map(json.loads, Path(saved["span_file"]).read_text().splitlines())
    ]
    assert spans and all(s.run_id for s in spans)
    assert 0 <= result["metrics"]["trace.unattributed_frac"]["value"] < 1
    assert result["metrics"]["trace.wall_s"]["value"] > 0
    if workload == "service-mix":
        assert result["metrics"]["service.submit_ms"]["value"] > 0
        assert result["metrics"]["cache.hit_ratio"]["value"] > 0
        assert result["metrics"]["engine.calls"]["value"] > 0
    else:
        assert result["metrics"]["batch.lanes"]["value"] > 0
        assert result["metrics"]["shm.publish_s"]["value"] > 0
        assert result["metrics"]["parallel.busy_s"]["value"] > 0


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_run_leaves_no_process_behind(tmp_path):
    # A pool sweep publishes shared memory, which starts multiprocessing's
    # resource tracker; the run must stop it, and every pool worker.
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "fig5-sweep",
         "--seed", "3", "--seconds", "1", "--size", "tiny", "--trace", "0",
         "--out-dir", str(tmp_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True,
    )
    assert proc.wait(timeout=300) == 0

    def session_members():
        members = []
        for entry in Path("/proc").iterdir():
            try:
                if entry.name.isdigit() and os.getsid(int(entry.name)) == proc.pid:
                    members.append((entry / "cmdline").read_bytes())
            except OSError:  # ended while listing
                pass
        return members

    assert session_members() == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, lines = bench(
        tmp_path / "out", "--workload", "fig5-sweep", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


def _span(span_id, parent, start, end, name="layer.op", pid=1):
    return Span(span_id, parent, name, start, end, "r", pid, 1)


def test_self_time_subtracts_merged_clipped_children():
    spans = [
        _span("root", None, 0.0, 10.0, "run"),
        _span("a", "root", 1.0, 4.0),
        _span("a1", "a", 2.0, 3.0),
        _span("b", "root", 3.0, 6.0),   # overlaps a: merged, not double-counted
        _span("c", "root", 8.0, 12.0),  # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs == {"root": 3.0, "a": 2.0, "a1": 1.0, "b": 3.0, "c": 4.0}


def test_unattributed_share_counts_time_only_envelopes_cover():
    spans = [
        _span("root", None, 0.0, 10.0, "run"),
        _span("sweep", "root", 0.5, 10.0, "parallel.run_sweep"),
        _span("gen", "sweep", 0.5, 1.0, "workload.generate"),
        # Two pool workers, overlapping: their union is 2..8.
        _span("w1", "sweep", 2.0, 6.0, "parallel.execute_batch", pid=2),
        _span("w1.lane", "w1", 2.5, 5.5, "batch.fast_lane", pid=2),
        _span("w2", "sweep", 4.0, 8.0, "parallel.execute_batch", pid=3),
        _span("late", "sweep", 9.0, 11.0, "metrics.reduce"),  # clipped to 9..10
    ]
    # Layers cover 0.5..1, 2..8 and 9..10: 7.5 of 10 s.
    assert math.isclose(unattributed_frac(spans), 0.25)
    assert unattributed_frac(spans[:2]) == 1.0


def test_nested_spans_on_one_thread_account_for_the_root():
    tracer = Tracer()
    with tracer.span("run") as root:
        with tracer.span("parallel.run_sweep"):
            with tracer.span("workload.generate"):
                sum(range(20000))
            with tracer.span("batch.fast_lane"):
                with tracer.span("metrics.reduce"):
                    sum(range(20000))
                sum(range(20000))
    names = {s.span_id: s.name for s in tracer.spans}
    assert {s.name: names.get(s.parent) for s in tracer.spans} == {
        "run": None,
        "parallel.run_sweep": "run",
        "workload.generate": "parallel.run_sweep",
        "batch.fast_lane": "parallel.run_sweep",
        "metrics.reduce": "batch.fast_lane",
    }
    totals = layer_self_times(tracer.spans)
    assert set(totals) == {"run", "parallel", "workload", "batch", "metrics"}
    assert math.isclose(sum(totals.values()), root.duration, rel_tol=1e-9)
    assert all(value >= 0 for value in totals.values())


@pytest.fixture(scope="module")
def tiny_fig5():
    specs = fig5_specs(5, "tiny")
    report = run_sweep(specs, max_workers=1, cache=None)
    assert report.n_errors == 0
    return report.outcomes


def _nudged(point):
    return replace(point, utilization=math.nextafter(point.utilization, 2.0))


def test_twin_check_passes_on_real_lanes(tiny_fig5):
    n, problems = checks.twin_problems(tiny_fig5, random.Random(0), simulate_spec)
    assert n == len(checks.batches(tiny_fig5)) and problems == []


def test_altered_lane_is_caught_by_the_twin_check(tiny_fig5):
    altered = [replace(o, point=_nudged(o.point)) for o in tiny_fig5]
    n, problems = checks.twin_problems(altered, random.Random(0), simulate_spec)
    assert n >= 1 and len(problems) == n


def test_altered_point_is_caught_between_repetitions(tiny_fig5):
    altered = list(tiny_fig5)
    altered[1] = replace(altered[1], point=_nudged(altered[1].point))
    assert len(checks.same_points(tiny_fig5, altered)) == 1
    assert checks.same_points(tiny_fig5, list(tiny_fig5)) == []


def test_altered_service_point_is_caught(tiny_fig5):
    expected = {o.spec.cache_key(): o.point for o in tiny_fig5}
    returned = [(o.spec.cache_key(), o.point.__dict__) for o in tiny_fig5]
    assert checks.result_points_problems(expected, returned) == (len(returned), [])
    returned[0] = (returned[0][0], _nudged(tiny_fig5[0].point).__dict__)
    n, problems = checks.result_points_problems(expected, returned)
    assert n == len(returned) and len(problems) == 1


def test_failed_outcome_is_reported(tiny_fig5):
    failed = replace(tiny_fig5[0], point=None, error="Traceback\nValueError: x")
    assert len(checks.outcome_problems([failed] + list(tiny_fig5[1:]))) == 1
