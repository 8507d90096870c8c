"""Run registry: the service's idempotent submission -> execution bridge.

One :class:`RunRecord` per *distinct* sweep (distinct = the SHA-256
:func:`~repro.service.schemas.sweep_key` over the ordered spec cache
keys).  :meth:`RunRegistry.submit` is where the idempotency contract
lives:

* a **new** sweep creates a record and schedules one
  :func:`~repro.experiments.parallel.run_sweep` on the worker pool;
* a sweep **already in flight** (or already finished) *attaches* — the
  caller gets the same record, no second execution, and its event stream
  replays history before going live;
* a sweep identical to one finished **before this server even started**
  never recomputes either, because execution always goes through the
  SHA-keyed :class:`~repro.experiments.cache.SweepCache` — the result
  store — and comes back ``n_cache_hits == n_specs``.

Threading model: the registry is confined to the event-loop thread.  The
executing worker thread never touches a record directly; every state
transition and progress event crosses back via
``loop.call_soon_threadsafe``, so HTTP handlers always observe a
consistent record.  Progress flows from ``run_sweep``'s ``on_outcome``
parent-process hook straight into the record's
:class:`~repro.service.streaming.EventLog`.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback
import zlib
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import SweepCache
from repro.experiments.parallel import RunOutcome, SweepReport, run_sweep
from repro.experiments.specs import RunSpec
from repro.service.schemas import outcome_to_dict, report_to_dict, sweep_key
from repro.service.streaming import EventLog, encode_chunk, event_line

#: Run lifecycle: pending (queued behind the worker pool) -> running ->
#: completed | failed.  "completed" includes sweeps with failed points —
#: per-point errors are data, not a run failure; "failed" means run_sweep
#: itself raised (an executor bug or an unpicklable registration).
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

RUN_STATES = (PENDING, RUNNING, COMPLETED, FAILED)

#: Indent of the service's JSON response bodies.
_INDENT = 2


@dataclass(slots=True)
class RunRecord:
    """One distinct sweep: its lifecycle, progress, and result.

    While the run is pending or running the record holds its parsed specs,
    its live event log and a ``done`` event.  When it finishes it is
    compacted to its counters plus two rendered, zlib-compressed byte
    strings — the event stream's chunked body and the ``result``
    sub-document — which are served as they are, decompressed but never
    re-parsed (a long-lived service keeps 1-2 KB per finished run, not
    the parsed specs, report and event dicts).
    """

    run_id: str
    key: str
    n_specs: int
    specs: Optional[List[RunSpec]] = None
    experiment: Optional[str] = None
    state: str = PENDING
    created_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    n_done: int = 0
    n_cache_hits: int = 0
    n_point_errors: int = 0
    #: Clients that submitted this sweep (1 = the creator; attaches add up).
    n_submissions: int = 1
    #: Times run_sweep was actually entered for this record — the
    #: at-most-once guarantee is ``n_executions <= 1``.
    n_executions: int = 0
    error: Optional[str] = None
    log: Optional[EventLog] = field(default_factory=EventLog)
    done: Optional[asyncio.Event] = field(default_factory=asyncio.Event)
    #: Finished runs only: the event stream's chunk-encoded body (terminal
    #: chunk excluded), byte-identical to streaming the closed log;
    #: zlib-compressed (see :meth:`events_body`).
    events_z: Optional[bytes] = None
    #: Completed runs only: the ``result`` sub-document, rendered at its
    #: nesting depth in the ``/result`` body, zlib-compressed (see
    #: :meth:`result_body`).
    result_z: Optional[bytes] = None

    def events_body(self) -> Optional[bytes]:
        """A finished run's chunk-encoded event stream (None while live)."""
        return None if self.events_z is None else zlib.decompress(self.events_z)

    def result_body(self) -> bytes:
        """The ``GET /runs/{id}/result`` body of a completed run.

        Byte-identical to ``json.dumps({**status, "result": result},
        indent=2) + "\\n"`` (the service's JSON response layout), but the
        result is spliced in as rendered when the run finished instead of
        being rebuilt per request.
        """
        assert self.result_z is not None
        status = json.dumps(self.status_dict(), indent=_INDENT)
        # ``status`` ends with "\n}": reopen it for one more member.
        head = f'{status[:-2]},\n{" " * _INDENT}"result": '.encode("utf-8")
        return head + zlib.decompress(self.result_z) + b"\n}\n"

    def status_dict(self) -> Dict[str, Any]:
        """The record as the ``GET /runs/{id}`` JSON document."""
        doc: Dict[str, Any] = {
            "run_id": self.run_id,
            "state": self.state,
            "experiment": self.experiment,
            "n_specs": self.n_specs,
            "n_done": self.n_done,
            "n_cache_hits": self.n_cache_hits,
            "n_point_errors": self.n_point_errors,
            "n_submissions": self.n_submissions,
            "n_executions": self.n_executions,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


class RunRegistry:
    """All runs this service knows, keyed for idempotent resubmission."""

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        executor: Executor,
        cache: Optional[SweepCache] = None,
        sweep_workers: int = 1,
    ) -> None:
        self._loop = loop
        self._executor = executor
        self.cache = cache
        self.sweep_workers = sweep_workers
        self._by_key: Dict[str, RunRecord] = {}
        self._by_id: Dict[str, RunRecord] = {}
        self.started_at = time.time()

    # ------------------------------------------------------------ queries
    def get(self, run_id: str) -> Optional[RunRecord]:
        return self._by_id.get(run_id)

    def runs(self) -> List[RunRecord]:
        """Every record, newest first."""
        return sorted(
            self._by_id.values(), key=lambda r: r.created_at, reverse=True
        )

    # --------------------------------------------------------- submission
    def submit(
        self, specs: Sequence[RunSpec], experiment: Optional[str] = None
    ) -> Tuple[RunRecord, bool]:
        """Register a sweep; returns ``(record, created)``.

        ``created=False`` means the caller attached to an existing run
        (in-flight or finished) instead of starting a new execution.
        """
        key = sweep_key(specs)
        record = self._by_key.get(key)
        if record is not None:
            record.n_submissions += 1
            return record, False
        record = RunRecord(
            run_id=key[:16],
            key=key,
            n_specs=len(specs),
            specs=list(specs),
            experiment=experiment,
            created_at=time.time(),
        )
        self._by_key[key] = record
        self._by_id[record.run_id] = record
        record.log.publish(
            {
                "event": "run_submitted",
                "run_id": record.run_id,
                "experiment": experiment,
                "n_specs": record.n_specs,
            }
        )
        self._executor.submit(self._execute, record)
        return record, True

    # ---------------------------------------------------------- execution
    def _execute(self, record: RunRecord) -> None:
        """Worker-thread body: one run_sweep, bridged back to the loop."""

        def call_in_loop(fn, *args) -> None:
            try:
                self._loop.call_soon_threadsafe(fn, *args)
            except RuntimeError:
                pass  # loop shut down mid-sweep; nothing left to notify

        call_in_loop(self._mark_running, record)
        try:
            report = run_sweep(
                record.specs,
                max_workers=self.sweep_workers,
                cache=self.cache,
                on_outcome=lambda index, outcome: call_in_loop(
                    self._point_done, record, index, outcome
                ),
            )
        except Exception:
            call_in_loop(self._mark_failed, record, traceback.format_exc())
        else:
            call_in_loop(self._mark_completed, record, report)

    # ------------------------------------------------- loop-thread updates
    def _mark_running(self, record: RunRecord) -> None:
        record.state = RUNNING
        record.started_at = time.time()
        record.n_executions += 1
        record.log.publish({"event": "run_started", "run_id": record.run_id})

    def _point_done(self, record: RunRecord, index: int, outcome: RunOutcome) -> None:
        record.n_done += 1
        if outcome.cached:
            record.n_cache_hits += 1
        if not outcome.ok:
            record.n_point_errors += 1
        event = outcome_to_dict(index, outcome)
        event["event"] = "point_completed"
        event["run_id"] = record.run_id
        event["n_done"] = record.n_done
        event["n_specs"] = record.n_specs
        record.log.publish(event)

    def _finish(self, record: RunRecord, state: str) -> None:
        record.state = state
        record.finished_at = time.time()
        record.done.set()

    @staticmethod
    def _compact(record: RunRecord) -> None:
        """Reduce a finished record to counters and rendered bytes.

        Waiters on ``done`` and subscribers of the closed log hold their
        own references, so dropping the record's is safe.
        """
        record.events_z = zlib.compress(
            b"".join(encode_chunk(event_line(e)) for e in record.log.events)
        )
        record.log = None
        record.done = None
        record.specs = None

    def _mark_completed(self, record: RunRecord, report: SweepReport) -> None:
        # Rendered at depth 1 of the /result body: JSON strings hold no raw
        # newlines, so indenting every line break nests the document.
        record.result_z = zlib.compress(
            json.dumps(report_to_dict(report), indent=_INDENT)
            .replace("\n", "\n" + " " * _INDENT)
            .encode("utf-8")
        )
        # Trust the report over incrementally-streamed counters (identical
        # unless the loop dropped a callback during shutdown).
        record.n_done = report.n_runs
        record.n_cache_hits = report.n_cache_hits
        record.n_point_errors = report.n_errors
        self._finish(record, COMPLETED)
        record.log.publish(
            {
                "event": "run_completed",
                "run_id": record.run_id,
                "n_specs": record.n_specs,
                "n_cache_hits": report.n_cache_hits,
                "n_errors": report.n_errors,
                "n_resumed": report.n_resumed,
                "wall_time": report.wall_time,
            }
        )
        record.log.close()
        self._compact(record)

    def _mark_failed(self, record: RunRecord, error: str) -> None:
        record.error = error
        self._finish(record, FAILED)
        record.log.publish(
            {"event": "run_failed", "run_id": record.run_id, "error": error}
        )
        record.log.close()
        self._compact(record)

    # ------------------------------------------------------------- metrics
    def metric_families(self) -> List[Tuple[str, str, List[Tuple[Dict[str, str], Any]]]]:
        """Service gauges for ``/metrics`` (rendered by
        :func:`repro.obs.export.exposition`)."""
        records = list(self._by_id.values())
        by_state = {state: 0 for state in RUN_STATES}
        for record in records:
            by_state[record.state] += 1
        families = [
            (
                "service_uptime_seconds",
                "Seconds since the service registry started",
                [({}, time.time() - self.started_at)],
            ),
            (
                "service_runs",
                "Registered runs by lifecycle state",
                [({"state": state}, count) for state, count in by_state.items()],
            ),
            (
                "service_submissions_total",
                "Sweep submissions accepted (attaches included)",
                [({}, sum(r.n_submissions for r in records))],
            ),
            (
                "service_executions_total",
                "run_sweep executions started (at most one per distinct sweep)",
                [({}, sum(r.n_executions for r in records))],
            ),
            (
                "service_points_completed_total",
                "Sweep points finalized across all runs",
                [({}, sum(r.n_done for r in records))],
            ),
            (
                "service_cache_hits_total",
                "Sweep points served from the result cache",
                [({}, sum(r.n_cache_hits for r in records))],
            ),
            (
                "service_point_errors_total",
                "Sweep points that failed across all runs",
                [({}, sum(r.n_point_errors for r in records))],
            ),
            (
                "service_run_progress",
                "Completed points per run",
                [
                    ({"run_id": r.run_id, "state": r.state}, r.n_done)
                    for r in records
                ],
            ),
        ]
        return families
