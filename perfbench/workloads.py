"""The benchmark's three workloads, driven through ``repro``'s public API.

* ``fig5-sweep`` — the paper's Figure 5 grid ({no estimation, successive
  alpha=2 beta=0} x the ten ``ExperimentConfig`` loads) over one 20k-job
  base trace, one ``run_sweep`` per repetition with a process pool and no
  cache.  Batch work; nearly all time is the FCFS fast lane.
* ``policy-estimator-grid`` — 20 base traces (one per derived seed),
  each under SJF and EASY backfilling with successive approximation on two
  cluster ladders (fast lane, non-FCFS schedulers) and FCFS with
  last-instance, RL, regression and successive-with-node-faults (engine
  lane).  Batch work; trace generation and shared-memory publish per base.
* ``service-mix`` — a closed loop of one client thread against one
  in-process ``ServiceThread``: fresh small sweeps (cache writes, scalar
  singleton runs), recombinations of computed specs (cache reads) and
  exact resubmissions (idempotent attaches), in fixed, assumed shares
  (:data:`MIX_BLOCK`).

Inputs derive from the benchmark seed only (:func:`derive`).
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import multiprocessing
import os
import random
import signal
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments import fig5
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import SweepReport, run_sweep
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
    clear_materialization_caches,
)
from repro.obs import read_trace
from repro.service import ServiceConfig, ServiceThread

from tracing import TimingCache, Tracer, install, traced_run_sweep

#: Per-size knobs.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: the same shape at a size the benchmark's own tests run in seconds.
SIZES: Dict[str, Dict[str, Any]] = {
    "full": {
        "fig5_jobs": 20_000,
        "fig5_loads": ExperimentConfig().loads,
        "grid_jobs": 800,
        "grid_bases": 20,
        "grid_load": 0.6,
        "mix_jobs": 2_000,
        "mix_min_round_trips": 200,
    },
    "tiny": {
        "fig5_jobs": 600,
        "fig5_loads": (0.5, 0.9, 1.2),
        "grid_jobs": 300,
        "grid_bases": 2,
        "grid_load": 0.6,
        "mix_jobs": 200,
        "mix_min_round_trips": 12,
    },
}

#: Shares of the service-mix submission kinds, as counts per block of ten.
#: They are an assumption: nothing records real client traffic.  Cache-read
#: recombinations are the largest share so that they hold the median round
#: trip, and ``rtt_p50_ms`` follows the cache layer; fresh sweeps, ~30x
#: slower, are one in ten so that they hold ``rtt_p95_ms``.  Attaches are
#: the fastest kind and sit below the median.
MIX_BLOCK = ("fresh",) * 1 + ("recombine",) * 7 + ("resubmit",) * 2

#: Client threads of the service-mix closed loop.  One, not two: the
#: clients share the interpreter lock with the service, so a second client
#: mostly queues behind the first, doubling the median round trip, and
#: that queueing grows out of proportion when the host slows down (median
#: round trip 13.6-28.4 ms over ten seeds with two clients).
MIX_CLIENTS = 1


def derive(seed: int, *tags: Any) -> int:
    """A 31-bit seed derived from the benchmark seed and ``tags``."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# ------------------------------------------------------------------ memory
_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")


def reset_peak_rss() -> bool:
    """Reset this process's peak-RSS high-water mark (Linux); False when
    the platform does not allow it."""
    try:
        _CLEAR_REFS.write_text("5")
        return True
    except OSError:
        return False


def peak_rss_kb() -> int:
    """This process's peak RSS since the last :func:`reset_peak_rss`."""
    try:
        for line in _STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every child process (pool workers shutting down) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout)


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    Publishing a shared-memory base starts the tracker process, which by
    design outlives the process that started it.  Closing its pipe tells
    it to exit once every holder of the pipe is gone; the pool workers
    that inherit it are reaped first (:func:`reap_children`).  A tracker
    still running after ``timeout`` seconds is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        tracker._fd = tracker._pid = None
        os.close(fd)
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    try:
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() >= deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.01)
    except ChildProcessError:  # already reaped
        pass


# ------------------------------------------------------------------ sweeps
def fig5_specs(seed: int, size: str) -> List[RunSpec]:
    knobs = SIZES[size]
    cfg = ExperimentConfig(
        n_jobs=knobs["fig5_jobs"], seed=derive(seed, "fig5"),
        loads=knobs["fig5_loads"],
    )
    return fig5.sweep_specs(
        cfg, EstimatorSpec(name="none"), label="no estimation"
    ) + fig5.sweep_specs(
        cfg,
        EstimatorSpec.make("successive", alpha=cfg.alpha, beta=cfg.beta),
        label="with estimation",
    )


def grid_specs(seed: int, size: str) -> List[RunSpec]:
    knobs = SIZES[size]
    successive = EstimatorSpec.make("successive", alpha=2.0, beta=0.0)
    specs = []
    for b in range(knobs["grid_bases"]):
        base_seed = derive(seed, "grid", b)
        workload = WorkloadSpec(
            n_jobs=knobs["grid_jobs"], seed=base_seed, load=knobs["grid_load"]
        )

        def spec(label, **kwargs) -> RunSpec:
            return RunSpec(
                workload=workload, seed=base_seed, label=f"base{b}/{label}",
                **kwargs,
            )

        for policy in ("sjf", "easy-backfilling"):
            for mem in (16.0, 24.0):
                specs.append(spec(
                    f"{policy}/{mem:g}MB",
                    cluster=ClusterSpec(second_tier_mem=mem),
                    estimator=successive,
                    policy=PolicySpec(name=policy),
                ))
        for name in ("last-instance", "rl", "regression"):
            specs.append(spec(f"fcfs/{name}", estimator=EstimatorSpec(name=name)))
        specs.append(spec(
            "fcfs/successive+faults",
            estimator=successive,
            faults=FaultSpec(node_mtbf=5e7),
        ))
    return specs


@dataclass
class SweepRep:
    """One timed ``run_sweep`` of a sweep workload."""

    wall: float
    report: SweepReport
    parent_rss_kb: int

    @property
    def peak_rss_kb(self) -> int:
        return max(self.parent_rss_kb, self.report.peak_worker_rss_kb)


def run_sweep_rep(
    specs: List[RunSpec], workers: int, tracer: Optional[Tracer] = None,
    run_id: str = "",
) -> SweepRep:
    """One repetition: cold per-process trace caches, no result cache."""
    clear_materialization_caches()
    gc.collect()
    reset_peak_rss()
    if tracer is None:
        t0 = time.perf_counter()
        report = run_sweep(specs, max_workers=workers, cache=None)
        wall = time.perf_counter() - t0
    else:
        tracer.run_id = run_id
        with install(tracer), tracer.span("run") as root:
            tracer.default_parent = root.span_id
            report = traced_run_sweep(
                tracer, run_sweep, specs, max_workers=workers, cache=None
            )
        tracer.default_parent = None
        wall = root.duration
    parent_kb = peak_rss_kb()
    reap_children()
    return SweepRep(wall, report, parent_kb)


# ----------------------------------------------------------------- service
def request(
    address: Tuple[str, int], method: str, path: str, body: Optional[bytes] = None
) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=120)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


@dataclass
class RoundTrip:
    """One submit -> stream -> result round trip of a service-mix client."""

    kind: str
    specs: List[Dict[str, Any]]
    rtt: float = 0.0
    statuses: List[int] = field(default_factory=list)
    attached: bool = False
    terminal: str = ""
    points: List[Any] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


class MixClient:
    """One closed-loop client: draws each submission from its own seeded
    RNG, in the fixed shares of :data:`MIX_BLOCK`."""

    def __init__(self, index: int, seed: int, size: str) -> None:
        self.index = index
        self.seed = seed
        self.n_jobs = SIZES[size]["mix_jobs"]
        self.rng = random.Random(derive(seed, "client", index))
        self.block: List[str] = []
        self.computed: List[Dict[str, Any]] = []  # spec docs of fresh sweeps
        self.submitted: List[List[Dict[str, Any]]] = []
        self.seen: set = set()
        self.n_fresh = 0

    def _next_kind(self) -> str:
        if not self.submitted:
            return "fresh"
        if not self.block:
            self.block = list(MIX_BLOCK)
            self.rng.shuffle(self.block)
        return self.block.pop()

    def _fresh(self) -> List[Dict[str, Any]]:
        specs = []
        for j in range(2):
            wseed = derive(self.seed, "fresh", self.index, self.n_fresh, j)
            estimator = self.rng.choice(
                [{"name": "none"},
                 {"name": "successive", "kwargs": {"alpha": 2.0, "beta": 0.0}}]
            )
            specs.append({
                "workload": {
                    "n_jobs": self.n_jobs, "seed": wseed,
                    "load": self.rng.choice(ExperimentConfig().loads),
                },
                "estimator": estimator,
                "seed": wseed,
                "label": f"c{self.index}/fresh{self.n_fresh}/{j}",
            })
        self.n_fresh += 1
        self.computed.extend(specs)
        return specs

    def _recombine(self) -> Optional[List[Dict[str, Any]]]:
        for _ in range(50):
            k = min(self.rng.choice((1, 2, 3)), len(self.computed))
            specs = self.rng.sample(self.computed, k)
            if _key(specs) not in self.seen:
                return specs
        return None  # early on, few specs are computed yet

    def next_submission(self) -> Tuple[str, List[Dict[str, Any]]]:
        kind = self._next_kind()
        specs = self._recombine() if kind == "recombine" else None
        if kind == "resubmit":
            specs = self.rng.choice(self.submitted)
        elif specs is None:
            kind, specs = "fresh", self._fresh()
        if _key(specs) not in self.seen:
            self.seen.add(_key(specs))
            self.submitted.append(specs)
        return kind, specs

    def round_trip(
        self, address: Tuple[str, int], tracer: Optional[Tracer]
    ) -> RoundTrip:
        kind, specs = self.next_submission()
        trip = RoundTrip(kind=kind, specs=specs)

        def span(name: str, **attrs):
            return tracer.span(name, **attrs) if tracer else nullcontext()

        body = json.dumps({"specs": specs}).encode()
        t0 = time.perf_counter()
        with span("service.round_trip", kind=kind) as rt_span:
            with span("service.submit"):
                status, payload = request(address, "POST", "/runs", body)
            trip.statuses.append(status)
            if status in (200, 201):
                run = json.loads(payload)
                trip.attached = not run["created"]
                run_id = run["run_id"]
                with span("service.stream"):
                    status, payload = request(
                        address, "GET", f"/runs/{run_id}/events"
                    )
                trip.statuses.append(status)
                events = list(read_trace(payload.decode().splitlines()))
                trip.terminal = events[-1]["event"] if events else ""
                with span("service.result"):
                    status, payload = request(
                        address, "GET", f"/runs/{run_id}/result"
                    )
                trip.statuses.append(status)
                if status == 200:
                    result = json.loads(payload)["result"]
                    for outcome in result["outcomes"]:
                        if not outcome["ok"]:
                            trip.errors.append(
                                f"point failed: {outcome['label']}: "
                                f"{outcome.get('error', '').strip()[-600:]}"
                            )
                        trip.points.append(outcome.get("point"))
            if rt_span is not None:
                rt_span.attrs["attached"] = trip.attached
        trip.rtt = time.perf_counter() - t0
        for status in trip.statuses:
            if not 200 <= status < 300:
                trip.errors.append(f"HTTP {status}")
        if trip.statuses and trip.statuses[0] in (200, 201):
            if trip.terminal != "run_completed":
                trip.errors.append(f"terminal event {trip.terminal!r}")
            if len(trip.points) != len(specs):
                trip.errors.append(
                    f"{len(trip.points)} points for {len(specs)} specs"
                )
        return trip


def _key(specs: List[Dict[str, Any]]) -> str:
    return json.dumps(
        [{k: v for k, v in s.items() if k != "label"} for s in specs],
        sort_keys=True,
    )


@dataclass
class MixRun:
    """One closed-loop window of the service mix."""

    trips: List[RoundTrip]
    wall: float
    parent_rss_kb: int
    cache_hits: int
    cache_misses: int


def start_service(
    work_dir: Path, tracer: Optional[Tracer] = None
) -> Tuple[ServiceThread, TimingCache]:
    """A fresh in-process service over a fresh result cache, started and
    answering ``/healthz``."""
    cache = TimingCache(tempfile.mkdtemp(prefix="cache-", dir=work_dir), tracer)
    service = ServiceThread(ServiceConfig(port=0, sweep_workers=1, cache=cache))
    service.start()
    status, _ = request(service.address, "GET", "/healthz")
    if status != 200:
        service.stop()
        raise RuntimeError(f"/healthz returned {status}")
    return service, cache


def run_mix(
    service: ServiceThread,
    cache: TimingCache,
    seed: int,
    size: str,
    seconds: float,
    tracer: Optional[Tracer] = None,
    run_id: str = "",
) -> MixRun:
    """Run the closed loop for ``seconds`` (and at least the size's minimum
    number of round trips, within a hard cap), then stop the clients."""
    min_trips = SIZES[size]["mix_min_round_trips"]
    clients = [MixClient(i, seed, size) for i in range(MIX_CLIENTS)]
    trips: List[List[RoundTrip]] = [[] for _ in clients]
    stop = threading.Event()
    failures: List[BaseException] = []

    def loop(i: int) -> None:
        try:
            while not stop.is_set():
                trips[i].append(clients[i].round_trip(service.address, tracer))
        except Exception as exc:  # reported by the main thread
            failures.append(exc)

    gc.collect()
    reset_peak_rss()
    threads = [
        threading.Thread(target=loop, args=(i,), name=f"mix-client-{i}")
        for i in range(len(clients))
    ]
    if tracer:
        tracer.run_id = run_id
    root_cm = tracer.span("run") if tracer else nullcontext()
    with (install(tracer) if tracer else nullcontext()), root_cm as root:
        if tracer:
            tracer.default_parent = root.span_id
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        cap = t0 + seconds + 30
        while True:
            now = time.perf_counter()
            done = sum(len(t) for t in trips)
            if failures or now >= cap or (now - t0 >= seconds and done >= min_trips):
                break
            # Few wake-ups: this thread competes with the clients for the
            # interpreter lock.
            time.sleep(min(max(t0 + seconds - now, 0.01), 0.5))
        stop.set()
        for thread in threads:
            thread.join(120)
        wall = time.perf_counter() - t0
    if tracer:
        tracer.default_parent = None
    parent_kb = peak_rss_kb()
    if failures:
        raise RuntimeError(f"service-mix client failed: {failures[0]!r}")
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a service-mix client did not stop")
    return MixRun(
        trips=[t for per_client in trips for t in per_client],
        wall=wall,
        parent_rss_kb=parent_kb,
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
