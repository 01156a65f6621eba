"""The pinned performance benchmark behind ``speakup-repro bench``.

The harness runs a fixed set of registry scenarios at nine scales —
``lan-small`` (the paper's own scale), ``tiers-medium`` (hundreds of
heterogeneous clients), ``stress-mega`` (thousands of clients, bound on the
fluid allocator), ``thinner-mega`` (≥50k clients, bound on the
admission/auction path), ``fleet-mega`` (≥17k clients spread over an
8-shard thinner fleet, §4.3 scale-out), ``fleet-failover`` (a mid-run
shard kill/heal pulse through the fault-injection layer),
``fleet-brownout`` (a gray-failure lossy pulse with budgeted client
retries and the health prober ejecting the faulted shard),
``adaptive-pulse`` (the attack-triggered engagement controller switching
speak-up on and off around a pulse), ``soa-mega`` (≥200k clients
driving one huge shared component through the struct-of-arrays vectorized
allocator path), and ``rollup-mega`` (≥500k clients recording through the
streaming telemetry plane, whose collector footprint must stay
O(buckets + reservoir)) — and measures engine throughput (events/second)
plus the network's hot-path counters
(:class:`repro.perf.counters.SimCounters`) and the process peak RSS.

Results accumulate in ``BENCH_speakup.json`` at the repository root: every
``speakup-repro bench`` appends one dated entry, so the file records the
performance trajectory across PRs instead of a single unverifiable claim.
``--check`` mode compares a fresh run against the last committed entry of the
same mode and fails on regression; CI runs it with ``--quick``.

Wall-clock numbers are machine-dependent, so cross-entry comparisons are only
meaningful per machine; the regression check is deliberately loose (30% by
default) to absorb CI-runner noise while still catching algorithmic cliffs.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.scenarios.registry import build_scenario

#: Name of the tracked results file at the repository root.
BENCH_FILENAME = "BENCH_speakup.json"

#: Schema version of the results file.
BENCH_VERSION = 1

#: Default regression tolerance for ``--check`` (fraction of events/sec).
DEFAULT_TOLERANCE = 0.30


@dataclass(frozen=True)
class BenchCase:
    """One pinned benchmark point: a registry scenario plus factory arguments."""

    name: str
    scenario: str
    args: Dict[str, Any] = field(default_factory=dict)
    #: Reduced arguments for ``--quick`` (CI smoke); same scenario, same shape.
    quick_args: Dict[str, Any] = field(default_factory=dict)

    def overrides(self, quick: bool) -> Dict[str, Any]:
        merged = dict(self.args)
        if quick:
            merged.update(self.quick_args)
        return merged


#: The pinned benchmark suite.  Names, scenarios, and arguments are part of
#: the ``BENCH_speakup.json`` contract: changing them breaks comparability
#: with committed entries, so extend the tuple rather than editing cases.
BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        name="lan-small",
        scenario="lan-baseline",
        args=dict(good_clients=25, bad_clients=25, capacity_rps=50.0, duration=10.0),
        quick_args=dict(good_clients=10, bad_clients=10, duration=3.0),
    ),
    BenchCase(
        name="tiers-medium",
        scenario="uplink-tiers",
        args=dict(clients_per_tier=60, capacity_rps=100.0, duration=3.0),
        quick_args=dict(clients_per_tier=20, duration=2.0),
    ),
    BenchCase(
        name="stress-mega",
        scenario="stress-mega",
        args=dict(),
        quick_args=dict(good_clients=400, bad_clients=100, capacity_rps=50.0, duration=0.5),
    ),
    BenchCase(
        name="thinner-mega",
        scenario="thinner-mega",
        args=dict(),
        quick_args=dict(
            good_clients=1500,
            flash_clients=100,
            bad_clients=60,
            capacity_rps=300.0,
            duration=1.5,
        ),
    ),
    BenchCase(
        name="fleet-mega",
        scenario="fleet-mega",
        args=dict(),
        quick_args=dict(
            good_clients=1200,
            bad_clients=120,
            thinner_shards=4,
            capacity_rps=400.0,
            duration=1.0,
        ),
    ),
    BenchCase(
        name="fleet-failover",
        scenario="fleet-failover",
        args=dict(
            good_clients=150,
            bad_clients=150,
            thinner_shards=4,
            capacity_rps=600.0,
            duration=6.0,
            kill_at_s=2.0,
            heal_at_s=4.0,
            repin_ttl_s=0.5,
        ),
        quick_args=dict(
            good_clients=30,
            bad_clients=30,
            capacity_rps=120.0,
            duration=3.0,
            kill_at_s=1.0,
            heal_at_s=2.0,
        ),
    ),
    BenchCase(
        name="fleet-brownout",
        scenario="fleet-brownout",
        args=dict(
            good_clients=150,
            bad_clients=150,
            thinner_shards=4,
            capacity_rps=600.0,
            duration=6.0,
            fault="lossy",
            loss_scope="shard",
            fault_shard=0,
            loss_p=0.6,
            start_at_s=2.0,
            end_at_s=4.0,
            retry="budgeted",
            health_probe=True,
        ),
        quick_args=dict(
            good_clients=30,
            bad_clients=30,
            capacity_rps=120.0,
            duration=3.0,
            start_at_s=1.0,
            end_at_s=2.0,
        ),
    ),
    BenchCase(
        name="adaptive-pulse",
        scenario="adaptive-pulse",
        args=dict(
            good_clients=300,
            bad_clients=150,
            capacity_rps=1200.0,
            duration=12.0,
            check_interval_s=0.5,
        ),
        quick_args=dict(
            good_clients=60,
            bad_clients=30,
            capacity_rps=240.0,
            duration=6.0,
        ),
    ),
    BenchCase(
        name="soa-mega",
        scenario="soa-mega",
        args=dict(),
        quick_args=dict(
            good_clients=19500,
            bad_clients=500,
            duration=0.05,
        ),
    ),
    BenchCase(
        name="rollup-mega",
        scenario="rollup-mega",
        args=dict(),
        quick_args=dict(
            good_clients=19000,
            bad_clients=1000,
            capacity_rps=400.0,
            duration=0.05,
        ),
    ),
    BenchCase(
        name="fabric-mega",
        scenario="fabric-mega",
        # The factory's 17k-client default couples most of the population
        # into single fabric-wide waterfill components and takes minutes;
        # the pinned point keeps the leaf-spine shape and the contended
        # core while landing in the same wall-clock band as fleet-mega.
        args=dict(
            good_clients=2500,
            bad_clients=250,
            capacity_rps=900.0,
            duration=0.5,
        ),
        quick_args=dict(
            good_clients=1600,
            bad_clients=160,
            thinner_shards=4,
            leaves=4,
            spines=2,
            capacity_rps=600.0,
            duration=0.2,
        ),
    ),
)


@dataclass
class BenchMeasurement:
    """What one benchmark case measured."""

    case: str
    scenario: str
    quick: bool
    build_s: float
    wall_s: float
    sim_s: float
    events: int
    events_per_s: float
    clients: int
    counters: Dict[str, int]
    #: Cheap run fingerprints so perf work that silently changes *results*
    #: (not just speed) shows up in the bench file too.
    requests_served: int
    good_allocation: float
    #: Process peak RSS after the run, in kilobytes (0 where the
    #: ``resource`` module is unavailable).  Cumulative across the suite —
    #: the high-water mark never goes down — so only the *growth* a case
    #: causes is attributable to it.  Informational, never gated.
    peak_rss_kb: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "case": self.case,
            "scenario": self.scenario,
            "quick": self.quick,
            "build_s": round(self.build_s, 4),
            "wall_s": round(self.wall_s, 4),
            "sim_s": self.sim_s,
            "events": self.events,
            "events_per_s": round(self.events_per_s, 1),
            "clients": self.clients,
            "counters": dict(self.counters),
            "requests_served": self.requests_served,
            "good_allocation": self.good_allocation,
            "peak_rss_kb": self.peak_rss_kb,
        }


def peak_rss_kb() -> int:
    """The process's peak RSS in kilobytes, 0 where unsupported."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return 0
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover
        return int(usage // 1024)
    return int(usage)


def run_case(case: BenchCase, quick: bool = False) -> BenchMeasurement:
    """Build and run one pinned case, measuring the run (not the build)."""
    spec = build_scenario(case.scenario, **case.overrides(quick))
    t_build = time.perf_counter()
    deployment = spec.build()
    build_s = time.perf_counter() - t_build

    t_run = time.perf_counter()
    deployment.run(spec.duration)
    wall_s = time.perf_counter() - t_run

    engine = deployment.engine
    events = engine.events_processed
    counters = deployment.network.counters
    counters.events_scheduled = engine.events_scheduled
    counters.events_cancelled = engine.events_cancelled
    result = deployment.results()
    return BenchMeasurement(
        case=case.name,
        scenario=case.scenario,
        quick=quick,
        build_s=build_s,
        wall_s=wall_s,
        sim_s=spec.duration,
        events=events,
        events_per_s=events / wall_s if wall_s > 0 else 0.0,
        clients=spec.total_clients(),
        counters=counters.snapshot(),
        requests_served=result.total_served,
        good_allocation=result.good_allocation,
        peak_rss_kb=peak_rss_kb(),
    )


def run_bench(
    quick: bool = False,
    cases: Optional[Sequence[BenchCase]] = None,
    progress=None,
) -> List[BenchMeasurement]:
    """Run the pinned suite; ``progress`` (if given) is called per case name.

    ``cases`` defaults to :data:`BENCH_CASES` at call time (so tests can
    monkeypatch the pinned set).
    """
    if cases is None:
        cases = BENCH_CASES
    measurements = []
    for case in cases:
        if progress is not None:
            progress(case.name)
        measurements.append(run_case(case, quick=quick))
    return measurements


# ---------------------------------------------------------------------------
# The tracked results file
# ---------------------------------------------------------------------------


def make_entry(
    measurements: Sequence[BenchMeasurement],
    label: str = "",
    quick: bool = False,
) -> Dict[str, Any]:
    """One dated ``BENCH_speakup.json`` entry for a suite run."""
    return {
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "label": label,
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": {m.case: m.to_dict() for m in measurements},
    }


def load_document(path: str) -> Dict[str, Any]:
    """Read the bench file, returning an empty document if it does not exist."""
    if not os.path.exists(path):
        return {"version": BENCH_VERSION, "entries": []}
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("version")
    if version != BENCH_VERSION:
        raise ExperimentError(
            f"unsupported bench file version {version!r} in {path!r} "
            f"(expected {BENCH_VERSION})"
        )
    document.setdefault("entries", [])
    return document


def save_document(path: str, document: Dict[str, Any]) -> None:
    """Write a bench document to ``path`` in the canonical on-disk format."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def append_entry(path: str, entry: Dict[str, Any]) -> Dict[str, Any]:
    """Append ``entry`` to the bench file at ``path`` (creating it if needed)."""
    document = load_document(path)
    document["entries"].append(entry)
    save_document(path, document)
    return document


def latest_entry(document: Dict[str, Any], mode: str) -> Optional[Dict[str, Any]]:
    """The most recent committed entry of the given mode ("full"/"quick")."""
    for entry in reversed(document.get("entries", [])):
        if entry.get("mode") == mode:
            return entry
    return None


def check_regression(
    measurements: Sequence[BenchMeasurement],
    baseline: Dict[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
    signals: str = "all",
) -> List[str]:
    """Compare fresh measurements against a committed entry.

    Returns a list of human-readable problems (empty = no regression).
    Three signals per case; cases missing from the baseline are skipped
    (they are new, there is nothing to regress from):

    * **events/sec** — a case regresses when its fresh throughput falls more
      than ``tolerance`` below the committed value.  Wall-clock based, so
      only meaningful when fresh and committed ran on comparable machines.
    * **waterfill work per event** (``flows_touched / events``) — the
      simulator is deterministic per pinned config, so this ratio is
      machine-independent; growth beyond ``tolerance`` means the allocator
      is genuinely touching more flows per event (an algorithmic cliff),
      regardless of how fast the runner is.
    * **admission work per auction** (``contenders_scanned /
      auctions_held``) — equally machine-independent; this is the cost of
      one winner-selection decision, O(log n)-ish with the kinetic bid
      index and O(n) if a change regresses a scan site back to pulling
      every contender's bid.  Skipped when the committed entry predates
      the counters or held no auctions.

    ``signals`` selects which to apply: ``"all"`` (every signal) or
    ``"work"`` (the machine-independent ratios only — what CI uses, since
    committed events/sec numbers come from whatever machine recorded the
    entry and a slower runner would otherwise fail the gate with no real
    regression).
    """
    if not 0.0 < tolerance < 1.0:
        raise ExperimentError(f"tolerance must be in (0, 1), got {tolerance}")
    if signals not in ("all", "work"):
        raise ExperimentError(f"signals must be 'all' or 'work', got {signals!r}")
    problems = []
    committed_cases = baseline.get("cases", {})
    for measurement in measurements:
        committed = committed_cases.get(measurement.case)
        if committed is None:
            continue
        committed_rate = float(committed.get("events_per_s", 0.0))
        if signals == "all" and committed_rate > 0:
            floor = committed_rate * (1.0 - tolerance)
            if measurement.events_per_s < floor:
                problems.append(
                    f"{measurement.case}: {measurement.events_per_s:.0f} events/s is "
                    f"{1.0 - measurement.events_per_s / committed_rate:.0%} below the "
                    f"committed {committed_rate:.0f} events/s "
                    f"(entry {baseline.get('date', '?')}, tolerance {tolerance:.0%})"
                )
        committed_events = float(committed.get("events", 0.0))
        committed_touched = float(
            committed.get("counters", {}).get("flows_touched", 0.0)
        )
        if committed_events > 0 and committed_touched > 0 and measurement.events > 0:
            committed_work = committed_touched / committed_events
            fresh_work = (
                measurement.counters.get("flows_touched", 0) / measurement.events
            )
            ceiling = committed_work * (1.0 + tolerance)
            if fresh_work > ceiling:
                problems.append(
                    f"{measurement.case}: waterfill work grew to {fresh_work:.2f} "
                    f"flows touched per event vs the committed {committed_work:.2f} "
                    f"(machine-independent signal; entry "
                    f"{baseline.get('date', '?')}, tolerance {tolerance:.0%})"
                )
        committed_auctions = float(
            committed.get("counters", {}).get("auctions_held", 0.0)
        )
        committed_scanned = float(
            committed.get("counters", {}).get("contenders_scanned", 0.0)
        )
        fresh_auctions = measurement.counters.get("auctions_held", 0)
        if committed_auctions > 0 and committed_scanned > 0 and fresh_auctions > 0:
            committed_scan = committed_scanned / committed_auctions
            fresh_scan = (
                measurement.counters.get("contenders_scanned", 0) / fresh_auctions
            )
            if fresh_scan > committed_scan * (1.0 + tolerance):
                problems.append(
                    f"{measurement.case}: admission work grew to {fresh_scan:.2f} "
                    f"contenders scanned per auction vs the committed "
                    f"{committed_scan:.2f} (machine-independent signal; entry "
                    f"{baseline.get('date', '?')}, tolerance {tolerance:.0%})"
                )
    return problems


def format_gauges(measurements: Sequence[BenchMeasurement]) -> List[str]:
    """The measurement-plane gauge lines ``bench --check`` prints.

    ``peak_live_events``, ``records_emitted`` and ``pushes_per_event``
    (engine heap pushes per processed event) are machine-independent (the
    simulator is deterministic per pinned config); ``peak_rss_kb`` is not.
    All four are informational — printed, stored, never gated.
    """
    lines = []
    for m in measurements:
        pushes = m.counters.get("events_scheduled", 0) / m.events if m.events else 0.0
        lines.append(
            f"{m.case}: peak_live_events={m.counters.get('peak_live_events', 0)} "
            f"records_emitted={m.counters.get('records_emitted', 0)} "
            f"pushes_per_event={pushes:.2f} "
            f"peak_rss_kb={m.peak_rss_kb}"
        )
    return lines


def format_measurements(measurements: Sequence[BenchMeasurement]) -> List[Tuple]:
    """Table rows for the CLI (events/sec plus the headline counters)."""
    rows = []
    for m in measurements:
        counters = m.counters
        calls = counters.get("waterfill_calls", 0)
        touched = counters.get("flows_touched", 0)
        auctions = counters.get("auctions_held", 0)
        scanned = counters.get("contenders_scanned", 0)
        rows.append(
            (
                m.case,
                m.clients,
                f"{m.sim_s:g}",
                f"{m.wall_s:.2f}",
                m.events,
                f"{m.events_per_s:,.0f}",
                calls,
                f"{touched / calls:.1f}" if calls else "-",
                counters.get("cache_hits", 0),
                f"{scanned / auctions:.1f}" if auctions else "-",
            )
        )
    return rows
