"""One execution path: every spec runs through ``execute_batch``.

``execute_spec`` is a one-lane ``execute_batch``, so a singleton runs on
the array fast lane whenever its configuration is eligible (and on the
engine lane otherwise).  ``simulate_spec`` stays the scalar reference —
``run_point``, then ``Simulation.run`` — and these tests pin the single
path to it bit for bit over generated configurations.
"""

import sys
import threading
from dataclasses import astuple

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.batch as batch_mod
from repro.experiments.parallel import execute_spec, run_sweep, simulate_spec
from repro.experiments.specs import (
    ClusterSpec,
    EstimatorSpec,
    FaultSpec,
    PolicySpec,
    RunSpec,
    WorkloadSpec,
)
from repro.sim.engine import Simulation


def point_hex(point):
    """A sweep point as exact float bit patterns."""
    return tuple(float(value).hex() for value in astuple(point))


spec_strategy = st.builds(
    lambda n_jobs, trace_seed, load, policy, strategy, tier, estimator,
    spurious, mtbf, seed: RunSpec(
        workload=WorkloadSpec(n_jobs=n_jobs, seed=trace_seed, load=load),
        cluster=ClusterSpec(second_tier_mem=tier, strategy=strategy),
        estimator=EstimatorSpec(name=estimator),
        policy=PolicySpec(name=policy),
        seed=seed,
        faults=FaultSpec(node_mtbf=mtbf, node_mttr=1800.0, spurious=spurious),
    ),
    n_jobs=st.integers(min_value=30, max_value=250),
    trace_seed=st.integers(min_value=0, max_value=3),
    load=st.sampled_from([None, 0.5, 0.8, 1.1]),
    policy=st.sampled_from(["fcfs", "sjf", "easy-backfilling"]),
    strategy=st.sampled_from(["best_fit", "first_fit"]),
    tier=st.sampled_from([16.0, 24.0]),
    estimator=st.sampled_from(["none", "successive", "last-instance", "rl"]),
    spurious=st.sampled_from([0.0, 0.05]),
    mtbf=st.sampled_from([0.0, 2.0e6]),
    seed=st.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=30, deadline=None)
@given(spec=spec_strategy)
def test_execute_spec_is_bit_identical_to_the_scalar_reference(spec):
    outcome = execute_spec(spec)
    assert outcome.ok, outcome.error
    assert outcome.batch_width == 1
    assert point_hex(outcome.point) == point_hex(simulate_spec(spec))


def test_eligible_singleton_never_enters_the_scalar_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar engine entered")

    monkeypatch.setattr(Simulation, "run", refuse)
    monkeypatch.setattr(batch_mod, "_EngineLane", refuse)
    for policy in ("fcfs", "sjf", "easy-backfilling"):
        for estimator in ("none", "successive"):
            outcome = execute_spec(
                RunSpec(
                    workload=WorkloadSpec(n_jobs=120, load=0.9),
                    estimator=EstimatorSpec(name=estimator),
                    policy=PolicySpec(name=policy),
                    faults=FaultSpec(spurious=0.05),
                )
            )
            assert outcome.ok, outcome.error


def test_engine_lane_singleton_skips_simulation_run(monkeypatch):
    """Ineligible configs take the engine lane's streaming API, not run()."""
    spec = RunSpec(
        workload=WorkloadSpec(n_jobs=120, load=0.9),
        estimator=EstimatorSpec(name="last-instance"),
    )
    expected = simulate_spec(spec)

    def refuse(*args, **kwargs):
        raise AssertionError("Simulation.run entered")

    monkeypatch.setattr(Simulation, "run", refuse)
    outcome = execute_spec(spec)
    assert outcome.ok, outcome.error
    assert point_hex(outcome.point) == point_hex(expected)


def engine_lane_specs(seed):
    """Engine-lane specs over distinct base traces: one-spec batches."""
    return [
        RunSpec(
            workload=WorkloadSpec(n_jobs=500, seed=trace_seed, load=0.8),
            estimator=EstimatorSpec(name="last-instance"),
            seed=seed,
            label=f"t{trace_seed}/s{seed}",
        )
        for trace_seed in (1, 2, 3)
    ]


def test_concurrent_sweeps_do_not_share_mutable_clusters():
    """Two sweeps in two threads of one process (the service runs several)
    must not share the memoized clusters their engine lanes mutate."""
    grids = [engine_lane_specs(seed) for seed in (1, 2)]
    # Warms the shared workload memos too, so the sweeps overlap in the
    # engine rather than in trace generation.
    expected = [[simulate_spec(s) for s in grid] for grid in grids]
    reports = [None, None]
    errors = []

    def sweep(i):
        try:
            reports[i] = run_sweep(grids[i], max_workers=1)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force fine-grained interleaving
    try:
        threads = [threading.Thread(target=sweep, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    for report, points in zip(reports, expected):
        failed = [o.error for o in report.outcomes if not o.ok]
        assert not failed, failed[0]
        assert [point_hex(p) for p in report.points()] == [
            point_hex(p) for p in points
        ]
