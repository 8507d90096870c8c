"""Unit tests for the batched engine (:mod:`repro.sim.batch`).

The fingerprint suite (``test_engine_fingerprints.py``) pins the batched
engine to the recorded reference digests; these tests cover the rest of the
contract: scalar parity across estimator families and K widths, lane
routing, lanes sharing one cluster, freeing lane state without the cyclic
garbage collector, attempt-collection modes, and the
``JobColumns`` edge cases (empty traces, zero-runtime jobs) flowing through
the batched path.
"""

import gc
import math

import numpy as np
import pytest

from repro.cluster import paper_cluster
from repro.core import (
    LastInstance,
    NoEstimation,
    OracleEstimator,
    SuccessiveApproximation,
)
from repro.similarity.keys import by_user_app
from repro.sim import FaultConfig, simulate
from repro.sim.batch import (
    BatchConfig,
    fast_lane_eligible,
    seed_group_arrays,
    simulate_batch,
    _SharedTrace,
)
from repro.sim.policies import EasyBackfilling, Fcfs, ShortestJobFirst
from repro.workload import (
    Workload,
    drop_full_machine_jobs,
    lanl_cm5_like,
    scale_load,
)
from repro.workload.columns import JobColumns


@pytest.fixture(scope="module")
def workload():
    return scale_load(
        drop_full_machine_jobs(lanl_cm5_like(n_jobs=500, seed=3)), 0.8
    )


def scalar_fingerprint(workload, collect_attempts=True, **kwargs):
    return simulate(
        workload, paper_cluster(24.0), collect_attempts=collect_attempts,
        **kwargs
    ).fingerprint()


def test_empty_config_list(workload):
    assert simulate_batch(workload, []) == []


def test_mixed_estimators_match_scalar(workload):
    """Four estimator families in one batch — NoEstimation and
    SuccessiveApproximation ride the fast lane, Oracle and LastInstance the
    engine lane — each lane bit-identical to its scalar run."""
    factories = [
        NoEstimation,
        SuccessiveApproximation,
        OracleEstimator,
        LastInstance,
    ]
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=factory())
        for factory in factories
    ]
    results = simulate_batch(workload, configs)
    for factory, result in zip(factories, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload, estimator=factory()
        ), f"estimator {factory.__name__} diverged in a mixed batch"


def test_mixed_policies_match_scalar(workload):
    policies = [Fcfs, ShortestJobFirst, EasyBackfilling]
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=policy(),
        )
        for policy in policies
    ]
    results = simulate_batch(workload, configs)
    for policy, result in zip(policies, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload, estimator=SuccessiveApproximation(), policy=policy()
        ), f"policy {policy.__name__} diverged in a mixed batch"


def test_faults_and_spurious_in_one_batch(workload):
    """Faulted and fault-free lanes advance together without perturbing
    each other's RNG streams."""
    faults = FaultConfig(node_mtbf=5.0e5, node_mttr=3600.0)
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=NoEstimation()),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=NoEstimation(),
            fault_config=faults,
            spurious_failure_prob=0.01,
        ),
    ]
    results = simulate_batch(workload, configs)
    assert results[0].fingerprint() == scalar_fingerprint(
        workload, estimator=NoEstimation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        workload,
        estimator=NoEstimation(),
        fault_config=faults,
        spurious_failure_prob=0.01,
    )
    assert results[1].n_node_failures > 0  # the fault lane did inject


@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_lane_widths_match_scalar(workload, k):
    """K successive lanes with diverging alphas, each equal to its scalar
    twin — width never changes any lane's result."""
    alphas = [2.0, 1.5, 2.5, 3.0, 1.75, 2.25, 2.75, 4.0][:k]
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(alpha=alpha),
        )
        for alpha in alphas
    ]
    results = simulate_batch(workload, configs)
    for alpha, result in zip(alphas, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload, estimator=SuccessiveApproximation(alpha=alpha)
        ), f"alpha={alpha} lane diverged at K={k}"


def test_collect_attempts_off_matches_scalar(workload):
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0), estimator=SuccessiveApproximation()
        ),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=ShortestJobFirst(),
        ),
    ]
    results = simulate_batch(workload, configs, collect_attempts=False)
    assert results[0].attempts == []
    assert results[1].attempts == []
    assert results[0].fingerprint() == scalar_fingerprint(
        workload, collect_attempts=False, estimator=SuccessiveApproximation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        workload,
        collect_attempts=False,
        estimator=SuccessiveApproximation(),
        policy=ShortestJobFirst(),
    )


@pytest.mark.parametrize("policy_factory", [ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("k", [1, 2, 4, 8])
def test_widened_policy_lanes_match_scalar(workload, policy_factory, k):
    """SJF/backfilling lanes (fast since PR 10) at K=1..8 with diverging
    alphas — each bit-identical to its scalar twin, attempts collected."""
    alphas = [2.0, 1.5, 2.5, 3.0, 1.75, 2.25, 2.75, 4.0][:k]
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(alpha=alpha),
            policy=policy_factory(),
        )
        for alpha in alphas
    ]
    results = simulate_batch(workload, configs)
    for alpha, result in zip(alphas, results):
        assert result.fingerprint() == scalar_fingerprint(
            workload,
            estimator=SuccessiveApproximation(alpha=alpha),
            policy=policy_factory(),
        ), f"alpha={alpha} {policy_factory.__name__} lane diverged at K={k}"


@pytest.mark.parametrize(
    "estimator_factory", [NoEstimation, SuccessiveApproximation]
)
def test_first_fit_lanes_match_scalar(workload, estimator_factory):
    """first_fit clusters ride the fast lane via the tabulated fill order
    (declaration order filtered to eligible levels)."""
    def cluster():
        return paper_cluster(24.0, strategy="first_fit")

    configs = [
        BatchConfig(cluster=cluster(), estimator=estimator_factory()),
        BatchConfig(
            cluster=cluster(),
            estimator=estimator_factory(),
            policy=EasyBackfilling(),
        ),
    ]
    results = simulate_batch(workload, configs)
    assert results[0].fingerprint() == simulate(
        workload, cluster(), estimator=estimator_factory()
    ).fingerprint()
    assert results[1].fingerprint() == simulate(
        workload, cluster(), estimator=estimator_factory(),
        policy=EasyBackfilling(),
    ).fingerprint()


def test_per_lane_collect_attempts_override(workload):
    """A lane-level ``BatchConfig.collect_attempts`` wins over the
    batch-wide flag in both directions, without perturbing results."""
    configs = [
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            collect_attempts=True,
        ),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=ShortestJobFirst(),
            collect_attempts=False,
        ),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
        ),
    ]
    results = simulate_batch(workload, configs, collect_attempts=False)
    assert results[0].attempts != []
    assert results[1].attempts == []
    assert results[2].attempts == []  # inherits the batch-wide False
    assert results[0].fingerprint() == scalar_fingerprint(
        workload, estimator=SuccessiveApproximation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        workload,
        collect_attempts=False,
        estimator=SuccessiveApproximation(),
        policy=ShortestJobFirst(),
    )


def test_mixed_fast_and_engine_lanes_coexist(workload):
    """One batch spanning both lane kinds — widened fast configs (SJF,
    backfilling, first_fit) next to engine-lane configs (oracle estimator,
    worst_fit) — every lane bit-identical to scalar."""
    cases = [
        dict(estimator=SuccessiveApproximation(), policy=ShortestJobFirst()),
        dict(estimator=OracleEstimator()),  # engine lane
        dict(estimator=SuccessiveApproximation(), policy=EasyBackfilling()),
        dict(estimator=LastInstance(), policy=EasyBackfilling()),  # engine
    ]
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), **case) for case in cases
    ]
    results = simulate_batch(workload, configs)
    for case, result in zip(cases, results):
        expected = scalar_fingerprint(
            workload,
            estimator=type(case["estimator"])(),
            **({"policy": type(case["policy"])()} if "policy" in case else {}),
        )
        assert result.fingerprint() == expected, f"{case} diverged"


def test_engine_lanes_sharing_one_cluster_are_cloned(workload):
    """Engine lanes mutate their cluster, so lanes handed the *same*
    instance (the memoized ``ClusterSpec.materialize`` does this) must not
    overlap: each runs to completion before the next resets the cluster —
    results identical to fresh-cluster runs."""
    shared = paper_cluster(24.0)
    configs = [
        BatchConfig(
            cluster=shared,
            estimator=OracleEstimator(),  # forces the engine lane
            policy=ShortestJobFirst(),
        )
        for _ in range(2)
    ]
    results = simulate_batch(workload, configs)
    expected = scalar_fingerprint(
        workload,
        estimator=OracleEstimator(),
        policy=ShortestJobFirst(),
    )
    assert results[0].fingerprint() == expected
    assert results[1].fingerprint() == expected


@pytest.mark.parametrize("estimator", [NoEstimation, SuccessiveApproximation])
@pytest.mark.parametrize("policy", [Fcfs, ShortestJobFirst, EasyBackfilling])
@pytest.mark.parametrize("width", [1, 3])
def test_fast_lanes_leave_no_cyclic_garbage(workload, estimator, policy, width):
    """Lane state is freed by reference counting alone: a lane holding a
    bound method of itself would be a cycle only the cyclic GC frees."""

    def run():
        configs = [
            BatchConfig(
                cluster=paper_cluster(24.0),
                estimator=estimator(),
                policy=policy(),
                spurious_failure_prob=0.05,
            )
            for _ in range(width)
        ]
        return simulate_batch(workload, configs, collect_attempts=False)

    run()  # first use may build module-level caches (once, not per run)
    gc.disable()
    try:
        gc.collect()
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_fast_lane_routing():
    cluster = paper_cluster(24.0)
    assert fast_lane_eligible(BatchConfig(cluster=cluster))
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, estimator=NoEstimation())
    )
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, estimator=SuccessiveApproximation())
    )
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, spurious_failure_prob=0.01)
    )
    # PR 10 widened the lane: SJF, EASY backfilling and first_fit ride it.
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, policy=ShortestJobFirst())
    )
    assert fast_lane_eligible(
        BatchConfig(cluster=cluster, policy=EasyBackfilling())
    )
    assert fast_lane_eligible(
        BatchConfig(
            cluster=paper_cluster(24.0, strategy="first_fit"),
            estimator=SuccessiveApproximation(),
        )
    )
    # Everything the fast lane does not model must fall to the engine lane.
    assert not fast_lane_eligible(
        BatchConfig(cluster=paper_cluster(24.0, strategy="worst_fit"))
    )
    assert not fast_lane_eligible(
        BatchConfig(cluster=cluster, estimator=OracleEstimator())
    )
    assert not fast_lane_eligible(
        BatchConfig(cluster=cluster, record_timeline=True)
    )
    assert not fast_lane_eligible(
        BatchConfig(cluster=cluster, observer=object())
    )
    assert not fast_lane_eligible(
        BatchConfig(
            cluster=cluster,
            fault_config=FaultConfig(node_mtbf=1e6, node_mttr=3600.0),
        )
    )
    assert not fast_lane_eligible(
        BatchConfig(
            cluster=cluster,
            estimator=SuccessiveApproximation(record_trajectories=True),
        )
    )
    assert not fast_lane_eligible(
        BatchConfig(
            cluster=cluster,
            estimator=SuccessiveApproximation(key_fn=by_user_app),
        )
    )


def test_seed_group_arrays_shapes(workload):
    trace = _SharedTrace(workload)
    alphas = [2.0, 3.0, 4.0]
    est, alpha, group_req = seed_group_arrays(trace, alphas)
    gid, _ = trace.group_info()
    n_groups = len(group_req)
    assert n_groups == len(set(gid))
    assert est.shape == (3, n_groups)
    assert alpha.shape == (3, n_groups)
    # Algorithm 1 lines 3-4: every group opens with E_i = R and alpha_i =
    # the lane's alpha — constant per row.
    for k, a in enumerate(alphas):
        assert np.allclose(alpha[k], a)
        assert np.array_equal(est[k], np.asarray(group_req))


# ------------------------------------------------------- JobColumns edges
def test_empty_workload_through_batched_path():
    empty = Workload(jobs=[], total_nodes=1024, node_mem=32.0, name="empty")
    configs = [
        BatchConfig(cluster=paper_cluster(24.0), estimator=NoEstimation()),
        BatchConfig(
            cluster=paper_cluster(24.0),
            estimator=SuccessiveApproximation(),
            policy=ShortestJobFirst(),
        ),
    ]
    results = simulate_batch(empty, configs)
    for result in results:
        assert result.n_jobs == 0
        assert result.summaries == []
        assert result.attempts == []
    assert results[0].fingerprint() == scalar_fingerprint(
        empty, estimator=NoEstimation()
    )
    assert results[1].fingerprint() == scalar_fingerprint(
        empty,
        estimator=SuccessiveApproximation(),
        policy=ShortestJobFirst(),
    )


def _zero_runtime_workload():
    """Three jobs, the middle one with a zero-second recorded runtime (real
    traces truncate sub-second jobs) — only constructible unvalidated, via
    the columnar backing."""
    n = 3
    cols = JobColumns(
        job_id=np.arange(1, n + 1),
        submit_time=np.array([0.0, 10.0, 20.0]),
        run_time=np.array([100.0, 0.0, 50.0]),
        procs=np.array([2, 1, 3]),
        req_mem=np.array([10.0, 8.0, 16.0]),
        used_mem=np.array([6.0, 4.0, 12.0]),
        req_time=np.full(n, 100.0),
        user_id=np.zeros(n, dtype=np.int64),
        group_id=np.zeros(n, dtype=np.int64),
        app_id=np.zeros(n, dtype=np.int64),
        status=np.ones(n, dtype=np.int64),
    )
    return Workload.from_columns(
        cols, total_nodes=1024, node_mem=32.0, name="zero-runtime"
    )


@pytest.mark.parametrize(
    "estimator_factory", [NoEstimation, SuccessiveApproximation]
)
def test_zero_runtime_jobs_through_batched_path(estimator_factory):
    """A zero-runtime job completes instantly in both engines and lands the
    unbounded-slowdown rule (slowdown = inf) identically."""
    workload = _zero_runtime_workload()
    config = BatchConfig(
        cluster=paper_cluster(24.0), estimator=estimator_factory()
    )
    result = simulate_batch(workload, [config])[0]
    assert result.fingerprint() == scalar_fingerprint(
        workload, estimator=estimator_factory()
    )
    assert result.n_jobs == 3
    slowdowns = result.slowdowns()
    assert np.isinf(slowdowns).sum() == 1  # exactly the zero-runtime job
    assert math.isinf(slowdowns.max())
