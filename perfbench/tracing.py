"""In-memory span tracing around the calls into each ``repro`` layer.

A :class:`Tracer` records one :class:`Span` per call into a layer: name,
start, end, parent span and run id, plus the process and thread that made
it.  Spans stay in memory and are written out once, at the end of the
benchmark (:meth:`Tracer.write_jsonl`).

Nothing under ``src/`` knows about tracing.  :func:`install` wraps the
layers' public entry points where their callers look them up (module
attributes), records a span around each call, and restores the originals
on exit; untraced runs therefore execute the program unchanged.

Pool workers are forked while a sweep runs, so they inherit the wrappers.
A worker keeps its own spans and ships them back to the parent on the
first outcome of each batch it executes (:class:`TracedOutcome`); the
parent adopts them after the sweep (:meth:`Tracer.adopt_outcomes`).

Self time (:func:`self_times`) is a span's duration minus the part of its
interval covered by its children.  Children may run concurrently (pool
workers, client threads), so their intervals are merged first.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments import parallel, shm, specs
from repro.experiments.cache import SweepCache
from repro.experiments.parallel import RunOutcome
from repro.service import registry
from repro.sim.batch import fast_lane_eligible


@dataclass
class Span:
    span_id: str
    parent: Optional[str]
    name: str
    start: float
    end: float
    run_id: str
    pid: int
    thread: int
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TracedOutcome(RunOutcome):
    """A :class:`RunOutcome` carrying the spans a pool worker recorded."""

    spans: Tuple[Span, ...] = ()


class Tracer:
    """Collects spans from every thread of this process (and, via
    :class:`TracedOutcome`, from forked pool workers)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = ""
        #: Parent for spans opened on a thread with no open span (client
        #: threads, the service's executor threads, pool workers).
        self.default_parent: Optional[str] = None
        self._pid = self._owner_pid = os.getpid()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1] if stack else self.default_parent

    def _enter_process(self) -> None:
        """In a freshly forked worker: drop the parent's spans and open
        stack, and parent this worker's spans under the span that was open
        in the parent's forking thread."""
        if os.getpid() != self._pid:
            self.default_parent = self.current()
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        self._enter_process()
        stack = self._stack()
        record = Span(
            span_id=f"{self._pid}.{next(self._ids)}",
            parent=stack[-1] if stack else self.default_parent,
            name=name,
            start=0.0,
            end=0.0,
            run_id=self.run_id,
            pid=self._pid,
            thread=threading.get_ident(),
            attrs=attrs,
        )
        stack.append(record.span_id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def drain(self) -> List[Span]:
        """Take every span recorded so far (used inside pool workers)."""
        spans, self.spans = self.spans, []
        return spans

    def in_owner(self) -> bool:
        """Whether this is the process that created the tracer."""
        self._enter_process()
        return os.getpid() == self._owner_pid

    def adopt_outcomes(self, outcomes: Iterable[RunOutcome]) -> None:
        """Move spans shipped back by pool workers into this tracer."""
        for outcome in outcomes:
            if isinstance(outcome, TracedOutcome):
                self.spans.extend(outcome.spans)

    def write_jsonl(self, path: os.PathLike) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time of every span, by span id: its duration minus the union
    of its children's intervals clipped to its own."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = by_id.get(span.parent) if span.parent else None
        if parent is not None:
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            if end > start:
                children.setdefault(parent.span_id, []).append((start, end))
    return {
        span.span_id: span.duration - covered(children.get(span.span_id, ()))
        for span in spans
    }


# ----------------------------------------------------------------- wrappers
def _lane_jobs(workload, configs) -> int:
    return sum(
        len(config.workload if config.workload is not None else workload)
        for config in configs
    )


class TimingCache(SweepCache):
    """A :class:`SweepCache` that records a span around every get and put."""

    def __init__(self, directory, tracer: Optional[Tracer] = None) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def get(self, spec):
        if self.tracer is None:
            return super().get(spec)
        with self.tracer.span("cache.get") as span:
            point = super().get(spec)
            span.attrs["hit"] = point is not None
        return point

    def put(self, spec, point) -> None:
        if self.tracer is None:
            return super().put(spec, point)
        with self.tracer.span("cache.put"):
            super().put(spec, point)


def _report_attrs(report) -> Dict[str, Any]:
    executed = [o for o in report.outcomes if not o.cached and not o.resumed]
    return {
        "n_runs": report.n_runs,
        "n_executed": len(executed),
        "batch_width_sum": sum(o.batch_width for o in executed),
        "spinup_s": report.pool_spinup_time,
        "workers": report.max_workers,
        "worker_rss_kb": report.peak_worker_rss_kb,
    }


def _spanned(tracer: Tracer, name: str, fn: Callable, **attrs: Any) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)

    return wrapper


@contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the layers' public entry points with spans for the duration of
    the ``with`` block, then restore every original."""
    global _BATCH_HOOK
    orig_simulate_batch = parallel.simulate_batch
    orig_publish = shm.SharedBaseStore.publish

    def simulate_batch(workload, configs, collect_attempts=True):
        # Split the batch by the public routing predicate so the fast lane
        # and the engine lane are timed separately; lanes share no state,
        # so each lane's result is the same as in the undivided batch.
        fast = [k for k, c in enumerate(configs) if fast_lane_eligible(c)]
        slow = sorted(set(range(len(configs))) - set(fast))
        results: List[Any] = [None] * len(configs)
        for name, members in (("batch.fast_lane", fast), ("batch.engine_lane", slow)):
            if not members:
                continue
            subset = [configs[k] for k in members]
            with tracer.span(
                name, lanes=len(members), jobs=_lane_jobs(workload, subset)
            ):
                out = orig_simulate_batch(workload, subset, collect_attempts)
            for k, result in zip(members, out):
                results[k] = result
        return results

    def publish(store, base_key, workload):
        with tracer.span("shm.publish", bytes=int(workload.as_columns().nbytes)):
            return orig_publish(store, base_key, workload)

    patches = [
        (parallel, "execute_batch", traced_execute_batch),
        (parallel, "execute_spec",
         _spanned(tracer, "parallel.execute_spec", parallel.execute_spec)),
        (parallel, "simulate_spec",
         _spanned(tracer, "engine.simulate", parallel.simulate_spec)),
        (parallel, "simulate_batch", simulate_batch),
        (parallel, "utilization",
         _spanned(tracer, "metrics.reduce", parallel.utilization)),
        (parallel, "mean_slowdown",
         _spanned(tracer, "metrics.reduce", parallel.mean_slowdown)),
        (specs, "lanl_cm5_like",
         _spanned(tracer, "workload.generate", specs.lanl_cm5_like, base=True)),
        (specs, "drop_full_machine_jobs",
         _spanned(tracer, "workload.generate", specs.drop_full_machine_jobs)),
        (specs, "scale_load",
         _spanned(tracer, "workload.scale", specs.scale_load)),
        (shm.SharedBaseStore, "publish", publish),
        (registry, "run_sweep",
         functools.partial(traced_run_sweep, tracer, registry.run_sweep)),
    ]
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in patches]
    _BATCH_HOOK = (tracer, parallel.execute_batch)
    try:
        for owner, name, wrapper in patches:
            setattr(owner, name, wrapper)
        yield tracer
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
        _BATCH_HOOK = None


#: ``(tracer, original execute_batch)`` while :func:`install` is active.
#: The pool pickles the function it runs by name, so the batch wrapper is a
#: module-level function reading this instead of a closure.
_BATCH_HOOK: Optional[Tuple[Tracer, Callable]] = None


def traced_execute_batch(batch_specs):
    """``execute_batch`` inside a span; in a pool worker, the worker's
    spans ride back to the parent on the batch's first outcome."""
    tracer, original = _BATCH_HOOK
    owner = tracer.in_owner()
    with tracer.span("parallel.execute_batch", width=len(batch_specs)):
        outcomes = list(original(batch_specs))
    if owner or not outcomes:
        return outcomes
    first = outcomes[0]
    outcomes[0] = TracedOutcome(
        **{f.name: getattr(first, f.name) for f in fields(RunOutcome)},
        spans=tuple(tracer.drain()),
    )
    return outcomes


def traced_run_sweep(tracer: Tracer, run_sweep, *args, **kwargs):
    """Call ``run_sweep`` inside a ``parallel.run_sweep`` span, adopting the
    spans its pool workers ship back."""
    with tracer.span("parallel.run_sweep") as span:
        report = run_sweep(*args, **kwargs)
        span.attrs.update(_report_attrs(report))
    tracer.adopt_outcomes(report.outcomes)
    return report
