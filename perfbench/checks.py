"""Correctness checks on one run's results.

Each check returns a list of problems (empty when the run is correct); the
harness counts an operation — one scenario run or one sweep point — as
failed when any check reports a problem, and ``error_rate`` is failed over
attempted operations.
"""

from __future__ import annotations

import json
from typing import List, Optional

from repro.metrics.collector import RunResult

#: Float slack for sums of allocation fractions.
EPSILON = 1e-9


def check_result(result: RunResult, spec) -> List[str]:
    """Bookkeeping identities every run must satisfy."""
    problems = []
    for metrics in (result.good, result.bad):
        if metrics.finished > metrics.issued:
            problems.append(
                f"{metrics.client_class}: {metrics.finished} finished > {metrics.issued} issued"
            )
    # Clients count a request served when its response arrives; the server
    # counts it when service ends, so responses still in flight at the end
    # make total_served the larger of the two.
    delivered = result.good.served + result.bad.served
    if delivered > result.total_served:
        problems.append(f"{delivered} responses delivered > {result.total_served} served")
    # Service times are uniform in [(1 - jitter)/c, (1 + jitter)/c], so a
    # busy server can finish at most c * duration / (1 - jitter) requests,
    # plus the one it started at time zero.
    jitter = spec.deployment_config().service_jitter
    limit = result.server_capacity_rps * result.duration / (1.0 - jitter) + 1
    if result.total_served > limit:
        problems.append(f"{result.total_served} served > capacity limit {limit:.1f}")
    if result.server_busy_time > result.duration + EPSILON:
        problems.append(
            f"server busy {result.server_busy_time:.6f} s > duration {result.duration} s"
        )
    allocated = sum(result.allocation_by_class.values())
    if allocated > 1.0 + EPSILON:
        problems.append(f"class allocations sum to {allocated!r} > 1")
    return problems


def check_round_trip(result: RunResult, payload: Optional[str] = None) -> List[str]:
    """``to_json`` -> ``from_json`` -> ``to_json`` gives an equal document.

    Compared parsed: the rebuilt result serialises its keys in another order.
    """
    if payload is None:
        payload = result.to_json()
    again = RunResult.from_json(payload).to_json()
    if json.loads(again) != json.loads(payload):
        return ["RunResult JSON round trip changed the document"]
    return []
