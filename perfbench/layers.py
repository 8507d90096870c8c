"""Per-layer metrics derived from one traced repetition's spans.

Span names are ``<layer>.<operation>``; the layer is the ``repro`` module
the wrapped call enters (see ``README.md`` for the layer -> end-to-end
metric -> workload table).  Times are self times (:func:`tracing.self_times`)
summed over the repetition, so a layer is charged only for time not spent
in a deeper layer.  Metrics of a layer a workload does not enter read 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from tracing import Span, covered, self_times

_EXECUTE = ("parallel.execute_batch", "parallel.execute_spec")
#: Spans that only wait on the layers below them: the repetition's root,
#: the parent's ``run_sweep`` call (waiting on pool workers) and a client's
#: whole round trip (its submit, stream and result spans lie inside).
ENVELOPES = ("run", "parallel.run_sweep", "service.round_trip")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per layer (the span name's first component)."""
    selfs = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name.split(".", 1)[0]] += selfs[span.span_id]
    return dict(totals)


def unattributed_frac(spans: Sequence[Span]) -> float:
    """Share of the traced wall time (the ``run`` roots) during which no
    span but an envelope (:data:`ENVELOPES`) is open, in any thread or
    process: pool spin-up, waits and hand-offs no layer accounts for."""
    roots = [s for s in spans if s.name == "run"]
    wall = sum(root.duration for root in roots)
    inner = [s for s in spans if s.name not in ENVELOPES]
    attributed = sum(
        covered([
            (max(s.start, root.start), min(s.end, root.end))
            for s in inner
            if s.run_id == root.run_id and s.end > root.start and s.start < root.end
        ])
        for root in roots
    )
    return _ratio(wall - attributed, wall)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """The per-layer metrics of one traced repetition (every per-layer
    metric of ``BENCHMARK.json`` except ``trace.overhead_frac``)."""
    selfs = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def self_sum(name: str) -> float:
        return sum(selfs[s.span_id] for s in by_name[name])

    def mean_ms(name: str) -> float:
        found = by_name[name]
        return _ratio(sum(s.duration for s in found) * 1e3, len(found))

    fast, engine = by_name["batch.fast_lane"], by_name["batch.engine_lane"]
    lanes_fast = sum(s.attrs["lanes"] for s in fast)
    lanes = lanes_fast + sum(s.attrs["lanes"] for s in engine)
    lane_time = self_sum("batch.fast_lane") + self_sum("batch.engine_lane")
    lane_jobs = sum(s.attrs["jobs"] for s in fast + engine)

    sweeps = by_name["parallel.run_sweep"]
    executed = sum(s.attrs["n_executed"] for s in sweeps)
    busy = sum(
        s.duration
        for name in _EXECUTE
        for s in by_name[name]
        if getattr(by_id.get(s.parent), "name", None) not in _EXECUTE
    )
    capacity = sum(s.duration * s.attrs["workers"] for s in sweeps)

    gets = by_name["cache.get"]
    trips = by_name["service.round_trip"]
    return {
        "workload.generate_s": self_sum("workload.generate"),
        "workload.scale_s": self_sum("workload.scale"),
        "workload.n_bases": float(
            sum(1 for s in by_name["workload.generate"] if s.attrs.get("base"))
        ),
        "shm.publish_s": self_sum("shm.publish"),
        "shm.published_mb": sum(s.attrs["bytes"] for s in by_name["shm.publish"])
        / 2**20,
        "batch.fast_lane_s": self_sum("batch.fast_lane"),
        "batch.engine_lane_s": self_sum("batch.engine_lane"),
        "batch.lanes": float(lanes),
        "batch.fast_lane_share": _ratio(lanes_fast, lanes),
        "batch.lane_jobs_per_s": _ratio(lane_jobs, lane_time),
        "engine.simulate_s": self_sum("engine.simulate"),
        "engine.calls": float(len(by_name["engine.simulate"])),
        "metrics.reduce_s": self_sum("metrics.reduce"),
        "parallel.spinup_s": sum(s.attrs["spinup_s"] for s in sweeps),
        "parallel.busy_s": busy,
        "parallel.overhead_s": capacity - busy,
        "parallel.mean_batch_width": _ratio(
            sum(s.attrs["batch_width_sum"] for s in sweeps), executed
        ),
        "parallel.worker_rss_mb": max(
            (s.attrs["worker_rss_kb"] for s in sweeps), default=0
        ) / 1024,
        "cache.get_s": self_sum("cache.get"),
        "cache.put_s": self_sum("cache.put"),
        "cache.hit_ratio": _ratio(sum(1 for s in gets if s.attrs["hit"]), len(gets)),
        "service.submit_ms": mean_ms("service.submit"),
        "service.stream_ms": mean_ms("service.stream"),
        "service.result_ms": mean_ms("service.result"),
        "service.attach_ratio": _ratio(
            sum(1 for s in trips if s.attrs.get("attached")), len(trips)
        ),
        "trace.wall_s": sum(s.duration for s in by_name["run"]),
        "trace.unattributed_frac": unattributed_frac(spans),
    }
