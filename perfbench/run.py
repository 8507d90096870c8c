"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-sweep --seed 1 --seconds 25 --trace 0

Workloads are described in ``workloads.py`` and ``README.md``.  With
``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it alternates untraced and traced repetitions of the
same workload and seed, reports the per-layer metrics of the traced ones
and the tracing overhead, and writes every span to a JSONL file.  Either
way it checks the program's outputs outside the timed region, prints one
``name value unit`` line per metric, and ends with one JSON object::

    {"correct": true, "attempted": 123, "failed": 0, "metrics": {...}}

The exit code is 0 only when every check passed.  Results (with the
environment) and span files go to ``.perfbench-out/`` in the checkout.
``REPRO_BATCH_SIZE``, ``REPRO_CACHE_DIR`` and ``REPRO_BENCH_WORKERS`` are
recorded and then unset, so the program's defaults are what is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fig5-sweep", "policy-estimator-grid", "service-mix")
ENV_KNOBS = ("REPRO_BATCH_SIZE", "REPRO_CACHE_DIR", "REPRO_BENCH_WORKERS")

#: Set-ups per run.  ``setup_s`` is the median import time of the program
#: in this many fresh interpreters, plus the median time to build the
#: workload's inputs.  Import time drifts by ~15% within seconds with the
#: host's load, so half the imports are timed before the measurement and
#: half after it.
SETUP_REPEATS = 12
#: Timed sweep repetitions per run, at least (more while time remains).
MIN_REPS = 3
#: Service-mix round trips re-run through an in-process ``run_sweep``.
MIX_CROSS_CHECKS = 12

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.experiments.fig5, repro.experiments.parallel, repro.service; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: the same workload shape at test size",
    )
    parser.add_argument(
        "--out-dir", type=Path, default=ROOT / ".perfbench-out",
        help="where result and span files go",
    )
    return parser.parse_args(argv)


def benchmark_metrics(root: Path) -> Dict[str, Dict[str, str]]:
    """Metric name -> unit, for ``end_to_end`` and ``per_layer``, in the
    order ``BENCHMARK.json`` lists them."""
    doc = json.loads((root / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def git_sha(root: Path) -> str:
    """HEAD of the checkout's git repository, read from ``.git`` directly
    (the benchmark reads nothing outside its checkout)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(knobs: Dict[str, Optional[str]]) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "env_knobs_unset": knobs,
    }


def time_imports(n: int) -> List[float]:
    """Seconds to import the program's packages, in ``n`` fresh
    interpreters (a run's in-process import happens once)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def p95(values: List[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[94]


def median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


class Run:
    """Accumulates one run's checks, metrics and spans."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.attempted = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        self.details: Dict[str, Any] = {}
        self.builds: List[float] = []
        self.tracer = None

    def check(self, attempted: int, problems: List[str]) -> None:
        self.attempted += attempted
        self.problems.extend(problems)


# ------------------------------------------------------------------ sweeps
def bench_sweep(run: Run, build: Callable) -> None:
    import checks
    from repro.experiments.parallel import simulate_spec
    from tracing import Tracer
    from workloads import derive, run_sweep_rep

    args = run.args
    workers = max(1, min(2, os.cpu_count() or 1))
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        specs = build(args.seed, args.size)
        run.builds.append(time.perf_counter() - t0)

    reference = run_sweep_rep(specs, workers)  # warm-up, and the reference
    untraced, traced = [], []
    tracer = run.tracer = Tracer() if args.trace else None
    t_end = time.perf_counter() + args.seconds
    while len(untraced) < MIN_REPS or time.perf_counter() < t_end:
        untraced.append(run_sweep_rep(specs, workers))
        if tracer is not None:
            run_id = f"{args.workload}/seed{args.seed}/rep{len(traced)}"
            traced.append(run_sweep_rep(specs, workers, tracer, run_id))

    rng = random.Random(derive(args.seed, "checks"))
    for rep in [reference] + untraced + traced:
        run.check(len(rep.report.outcomes), checks.outcome_problems(rep.report.outcomes))
        if rep is not reference:
            run.check(0, checks.same_points(reference.report.outcomes, rep.report.outcomes))
    run.check(*checks.twin_problems(reference.report.outcomes, rng, simulate_spec))

    n = len(specs)
    samples = [
        {
            "runs_per_s": n / rep.wall,
            "submits_per_s": 1.0 / rep.wall,
            "peak_rss_mb": rep.peak_rss_kb / 1024,
        }
        for rep in untraced
    ]
    walls_ms = [rep.wall * 1e3 for rep in untraced]
    run.metrics.update(median_metrics(samples))
    run.metrics["rtt_p50_ms"] = statistics.median(walls_ms)
    run.metrics["rtt_p95_ms"] = p95(walls_ms)
    run.details.update(
        specs=n, workers=workers, reps=len(untraced), rtt_samples=len(walls_ms),
        walls_s=[rep.wall for rep in untraced],
    )
    if tracer is not None:
        from layers import layer_metrics, layer_self_times

        reps = [
            [s for s in tracer.spans if s.run_id == run_id]
            for run_id in sorted({s.run_id for s in tracer.spans})
        ]
        run.per_layer.update(median_metrics([layer_metrics(r) for r in reps]))
        run.details["layer_self_s"] = median_metrics([layer_self_times(r) for r in reps])
        traced_rps = statistics.median(n / rep.wall for rep in traced)
        run.per_layer["trace.overhead_frac"] = run.metrics["runs_per_s"] / traced_rps - 1


# ----------------------------------------------------------------- service
def bench_mix(run: Run) -> None:
    import checks
    from repro.experiments.parallel import run_sweep
    from repro.service.schemas import spec_from_dict
    from tracing import Tracer
    from workloads import MIX_CLIENTS, derive, run_mix, start_service

    args = run.args
    work = args.out_dir / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    service = cache = None
    for _ in range(SETUP_REPEATS):
        if service is not None:
            service.stop()
        t0 = time.perf_counter()
        service, cache = start_service(work)
        run.builds.append(time.perf_counter() - t0)

    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        mix = run_mix(service, cache, args.seed, args.size, seconds)
    finally:
        service.stop()
    runs = [mix]
    if args.trace:
        tracer = run.tracer = Tracer()
        service, cache = start_service(work, tracer)
        try:
            traced = run_mix(
                service, cache, args.seed, args.size, seconds, tracer,
                run_id=f"{args.workload}/seed{args.seed}/traced",
            )
        finally:
            service.stop()
        runs.append(traced)

    # Checks: every round trip, then one point per spec across all round
    # trips, then a sample of round trips against an in-process run_sweep.
    seen: Dict[str, tuple] = {}
    problems: List[str] = []
    for trip in (t for m in runs for t in m.trips):
        problems.extend(f"{trip.kind}: {e}" for e in trip.errors)
        for doc, point in zip(trip.specs, trip.points):
            if point is None:
                continue
            key = spec_from_dict(doc).cache_key()
            bits = checks.point_bits(point)
            if seen.setdefault(key, bits) != bits:
                problems.append(f"spec {key[:12]} returned two different points")
    run.check(sum(len(m.trips) for m in runs), problems)
    rng = random.Random(derive(args.seed, "checks"))
    good = [t for t in mix.trips if t.ok]
    sample = rng.sample(good, min(MIX_CROSS_CHECKS, len(good)))
    specs = {}
    for trip in sample:
        for doc in trip.specs:
            spec = spec_from_dict(doc)
            specs.setdefault(spec.cache_key(), spec)
    report = run_sweep(list(specs.values()), max_workers=1, cache=None)
    run.check(len(report.outcomes), checks.outcome_problems(report.outcomes))
    expected = {o.spec.cache_key(): o.point for o in report.outcomes if o.ok}
    run.check(*checks.result_points_problems(expected, [
        (spec_from_dict(doc).cache_key(), point)
        for trip in sample
        for doc, point in zip(trip.specs, trip.points)
    ]))
    shutil.rmtree(work, ignore_errors=True)

    rtts_ms = [t.rtt * 1e3 for t in mix.trips]
    run.metrics.update(
        runs_per_s=sum(len(t.points) for t in mix.trips) / mix.wall,
        submits_per_s=len(mix.trips) / mix.wall,
        rtt_p50_ms=statistics.median(rtts_ms),
        rtt_p95_ms=p95(rtts_ms),
        peak_rss_mb=mix.parent_rss_kb / 1024,
    )
    kinds = [t.kind for t in mix.trips]
    run.details.update(
        clients=MIX_CLIENTS, round_trips=len(mix.trips), rtt_samples=len(rtts_ms),
        kinds={k: kinds.count(k) for k in sorted(set(kinds))},
        cache_hits=mix.cache_hits, cache_misses=mix.cache_misses,
        cross_checked_round_trips=len(sample),
    )
    if args.trace:
        from layers import layer_metrics, layer_self_times

        run.per_layer.update(layer_metrics(run.tracer.spans))
        run.details["layer_self_s"] = layer_self_times(run.tracer.spans)
        traced_rate = len(traced.trips) / traced.wall
        run.per_layer["trace.overhead_frac"] = run.metrics["submits_per_s"] / traced_rate - 1


# -------------------------------------------------------------------- main
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    units = benchmark_metrics(ROOT)
    knobs = {name: os.environ.pop(name, None) for name in ENV_KNOBS}
    imports = time_imports(SETUP_REPEATS // 2)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    from workloads import (
        fig5_specs, grid_specs, reap_children, stop_resource_tracker,
    )

    run = Run(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service-mix":
            bench_mix(run)
        else:
            build = fig5_specs if args.workload == "fig5-sweep" else grid_specs
            bench_sweep(run, build)
    finally:
        reap_children()
        stop_resource_tracker()
    imports += time_imports(SETUP_REPEATS - len(imports))
    run.metrics["setup_s"] = statistics.median(imports) + statistics.median(run.builds)
    run.details["import_s"] = imports

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(knobs)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "environment": env,
        "end_to_end": run.metrics, "per_layer": run.per_layer,
        "details": run.details, "attempted": run.attempted,
        "failed": len(run.problems), "problems": run.problems,
    }
    if run.tracer is not None:
        spans_path = args.out_dir / f"spans-{stem}.jsonl"
        run.tracer.write_jsonl(spans_path)
        result["span_file"] = str(spans_path)
    (args.out_dir / f"result-{stem}.json").write_text(json.dumps(result, indent=2))

    print("environment " + json.dumps(env, sort_keys=True))
    print("details " + json.dumps(run.details, sort_keys=True))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"error_rate {len(run.problems) / max(run.attempted, 1)!r} ratio "
          f"({len(run.problems)} of {run.attempted} operations)")
    for name, unit in units["end_to_end"].items():
        print(f"{name} {run.metrics[name]!r} {unit}")
    if run.tracer is not None:
        for name, unit in units["per_layer"].items():
            print(f"{name} {run.per_layer[name]!r} {unit}")
        print(f"span_file {result['span_file']}")
    shown = run.per_layer if args.trace else run.metrics
    listed = units["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not run.problems,
        "attempted": max(run.attempted, 1),
        "failed": len(run.problems),
        "metrics": {
            name: {"value": shown[name], "unit": unit} for name, unit in listed.items()
        },
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
