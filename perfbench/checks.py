"""Correctness checks the benchmark runs outside its timed region.

Every check returns a list of problem strings (empty = passed); each
problem counts as one failed operation.  Points are compared bit for bit:
two floats match only if ``float.hex`` agrees, so ``-0.0``/``0.0`` and
NaN payloads are told apart and ``inf`` compares equal to itself.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.experiments.parallel import RunOutcome
from repro.experiments.runner import SweepPoint

POINT_FIELDS = tuple(SweepPoint.__dataclass_fields__)


def point_bits(point: Any) -> Tuple[str, ...]:
    """A point (``SweepPoint`` or its JSON dict) as exact float bit strings."""
    doc = point if isinstance(point, Mapping) else asdict(point)
    return tuple(float(doc[name]).hex() for name in POINT_FIELDS)


def outcome_problems(outcomes: Iterable[RunOutcome]) -> List[str]:
    """One problem per failed :class:`RunOutcome`."""
    return [
        f"run failed: {o.spec.label}: {(o.error or '').strip()[-300:]}"
        for o in outcomes
        if not o.ok
    ]


def same_points(reference: Sequence[RunOutcome], outcomes: Sequence[RunOutcome]) -> List[str]:
    """Points of a repeated sweep must equal the reference sweep's."""
    problems = []
    for ref, out in zip(reference, outcomes):
        if ref.ok and out.ok and point_bits(ref.point) != point_bits(out.point):
            problems.append(f"point differs between repetitions: {out.spec.label}")
    if len(reference) != len(outcomes):
        problems.append(f"{len(outcomes)} outcomes, expected {len(reference)}")
    return problems


def batches(outcomes: Sequence[RunOutcome]) -> List[List[int]]:
    """Outcome indices grouped into the execution units they ran in.

    Members of one batch share its wall time (split evenly), its worker's
    peak RSS and its width, so those fields identify the batch.
    """
    groups: Dict[Tuple, List[int]] = {}
    for i, outcome in enumerate(outcomes):
        if outcome.batch_width > 1:
            key = (
                outcome.spec.workload.base_key(),
                outcome.batch_width,
                outcome.wall_time,
                outcome.worker_rss_kb,
            )
        else:
            key = ("single", i)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def twin_problems(
    outcomes: Sequence[RunOutcome],
    rng: random.Random,
    simulate: Callable,
) -> Tuple[int, List[str]]:
    """Re-run one sampled lane per batch through the scalar path and
    require the same point, bit for bit.  Returns ``(n_checked, problems)``."""
    problems = []
    checked = 0
    for members in batches(outcomes):
        i = rng.choice(members)
        outcome = outcomes[i]
        if not outcome.ok:
            continue
        checked += 1
        twin = simulate(outcome.spec)
        if point_bits(twin) != point_bits(outcome.point):
            problems.append(
                f"lane differs from its scalar twin: {outcome.spec.label} "
                f"(batch width {outcome.batch_width})"
            )
    return checked, problems


def result_points_problems(
    expected: Mapping[str, Any], returned: Iterable[Tuple[str, Any]]
) -> Tuple[int, List[str]]:
    """Compare ``(cache_key, point)`` pairs against ``expected`` points by
    cache key.  Returns ``(n_compared, problems)``."""
    problems = []
    compared = 0
    for key, point in returned:
        if key not in expected:
            continue
        compared += 1
        if point_bits(point) != point_bits(expected[key]):
            problems.append(f"service point differs from run_sweep: {key[:12]}")
    return compared, problems
