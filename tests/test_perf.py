"""Tests for the perf instrumentation layer and the tracked bench harness."""

import json

import pytest

from repro.constants import MBIT
from repro.errors import ExperimentError
from repro.perf.bench import (
    BENCH_CASES,
    BenchCase,
    append_entry,
    check_regression,
    latest_entry,
    load_document,
    make_entry,
    run_case,
)
from repro.perf.counters import SimCounters
from repro.simnet.engine import Engine
from repro.simnet.network import FluidNetwork
from repro.simnet.topology import build_lan, uniform_bandwidths

TINY_CASE = BenchCase(
    name="tiny",
    scenario="lan-baseline",
    args=dict(good_clients=2, bad_clients=2, capacity_rps=10.0, duration=2.0),
    quick_args=dict(duration=1.0),
)


# ---------------------------------------------------------------------------
# SimCounters
# ---------------------------------------------------------------------------


def test_counters_snapshot_and_reset():
    counters = SimCounters()
    counters.waterfill_calls += 3
    counters.flows_touched += 12
    snapshot = counters.snapshot()
    assert snapshot["waterfill_calls"] == 3
    assert snapshot["flows_touched"] == 12
    assert set(snapshot) == set(SimCounters.__slots__)
    counters.reset()
    assert all(value == 0 for value in counters.snapshot().values())


def test_network_increments_counters():
    topology, hosts, thinner = build_lan(uniform_bandwidths(2, 2 * MBIT))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    network.send(hosts[0], thinner, size_bytes=100_000)
    network.send(hosts[1], thinner, size_bytes=100_000)
    engine.run(until=2.0)
    counters = network.counters
    assert counters.reallocations >= 2
    assert counters.waterfill_calls >= 1
    assert counters.flows_touched >= 2
    # Deferred batching never runs more recomputations than changes.
    assert counters.flushes <= counters.reallocations


def test_batching_collapses_same_instant_changes():
    """A start immediately followed by a cap change (the slow-start pattern)
    is one flush, not two."""
    topology, hosts, thinner = build_lan(uniform_bandwidths(1, 2 * MBIT))
    engine = Engine()
    network = FluidNetwork(engine, topology)
    flow = network.send(hosts[0], thinner, size_bytes=1_000_000)
    network.set_rate_cap(flow, 1 * MBIT)
    assert network.counters.reallocations == 2
    engine.run(until=0.1)
    assert network.counters.flushes == 1


# ---------------------------------------------------------------------------
# The bench harness
# ---------------------------------------------------------------------------


def test_bench_case_overrides_merge_quick():
    assert TINY_CASE.overrides(False)["duration"] == 2.0
    assert TINY_CASE.overrides(True)["duration"] == 1.0
    assert TINY_CASE.overrides(True)["good_clients"] == 2


def test_pinned_suite_shape():
    names = [case.name for case in BENCH_CASES]
    assert names == [
        "lan-small", "tiers-medium", "stress-mega", "thinner-mega", "fleet-mega",
        "fleet-failover", "fleet-brownout", "adaptive-pulse", "soa-mega",
        "rollup-mega", "fabric-mega",
    ]
    assert BENCH_CASES[2].scenario == "stress-mega"
    assert BENCH_CASES[3].scenario == "thinner-mega"
    assert BENCH_CASES[4].scenario == "fleet-mega"
    assert BENCH_CASES[5].scenario == "fleet-failover"
    assert BENCH_CASES[6].scenario == "fleet-brownout"
    assert BENCH_CASES[7].scenario == "adaptive-pulse"
    assert BENCH_CASES[8].scenario == "soa-mega"
    assert BENCH_CASES[9].scenario == "rollup-mega"
    assert BENCH_CASES[10].scenario == "fabric-mega"


def test_run_case_measures_and_fingerprints():
    measurement = run_case(TINY_CASE, quick=True)
    assert measurement.case == "tiny"
    assert measurement.quick is True
    assert measurement.events > 0
    assert measurement.events_per_s > 0
    assert measurement.clients == 4
    assert measurement.sim_s == 1.0
    assert "waterfill_calls" in measurement.counters
    payload = measurement.to_dict()
    assert payload["case"] == "tiny"
    json.dumps(payload)  # JSON-ready


def test_entry_append_and_load_round_trip(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    measurement = run_case(TINY_CASE, quick=True)
    entry = make_entry([measurement], label="unit", quick=True)
    assert entry["mode"] == "quick"
    document = append_entry(path, entry)
    assert len(document["entries"]) == 1
    reloaded = load_document(path)
    assert reloaded["entries"][0]["label"] == "unit"
    assert reloaded["entries"][0]["cases"]["tiny"]["events"] == measurement.events
    # Appending accumulates rather than overwriting.
    append_entry(path, make_entry([measurement], label="second", quick=True))
    assert [e["label"] for e in load_document(path)["entries"]] == ["unit", "second"]


def test_latest_entry_filters_by_mode():
    document = {
        "entries": [
            {"mode": "full", "label": "a"},
            {"mode": "quick", "label": "b"},
            {"mode": "full", "label": "c"},
        ]
    }
    assert latest_entry(document, "full")["label"] == "c"
    assert latest_entry(document, "quick")["label"] == "b"
    assert latest_entry(document, "nope") is None


def test_check_regression_flags_only_real_regressions():
    measurement = run_case(TINY_CASE, quick=True)
    baseline_cases = {
        "tiny": {"events_per_s": measurement.events_per_s / 3.0},
        "unrelated": {"events_per_s": 1e9},
    }
    baseline = {"date": "2026-01-01", "cases": baseline_cases}
    # Fresh run is ~3x the committed rate: no problem reported.
    assert check_regression([measurement], baseline, tolerance=0.3) == []
    # Committed rate 100x the fresh one: flagged.
    baseline_cases["tiny"]["events_per_s"] = measurement.events_per_s * 100.0
    problems = check_regression([measurement], baseline, tolerance=0.3)
    assert len(problems) == 1 and "tiny" in problems[0]
    with pytest.raises(ExperimentError):
        check_regression([measurement], baseline, tolerance=1.5)


def test_check_regression_counter_signal_is_machine_independent():
    """The flows-touched-per-event signal flags algorithmic cliffs even when
    the wall-clock rate looks fine (e.g. the baseline ran on a slower box)."""
    measurement = run_case(TINY_CASE, quick=True)
    fresh_work = measurement.counters["flows_touched"] / measurement.events
    committed = {
        "events_per_s": measurement.events_per_s / 10.0,  # much slower machine
        "events": measurement.events,
        "counters": {"flows_touched": measurement.counters["flows_touched"]},
    }
    baseline = {"date": "2026-01-01", "cases": {"tiny": dict(committed)}}
    # Identical work per event: clean.
    assert check_regression([measurement], baseline, tolerance=0.3) == []
    # Committed entry did a third of the per-event work: the fresh run's
    # allocator touches 3x the flows per event -> flagged despite the
    # fresh wall-clock rate being 10x the committed one.
    baseline["cases"]["tiny"]["counters"]["flows_touched"] = (
        measurement.counters["flows_touched"] / 3.0
    )
    problems = check_regression([measurement], baseline, tolerance=0.3)
    assert len(problems) == 1
    assert "flows touched per event" in problems[0]
    assert f"{fresh_work:.2f}" in problems[0]


def test_quick_scale_bench_exercises_rate_cache():
    """The quick-mode blind spot from PR 2: no pinned quick case drove the
    component-signature rate cache (stress-mega components sit below the
    16-flow threshold).  The thinner-mega quick case must produce real
    cache traffic — window-20 bad clients put 21-flow components through
    the allocator — so CI actually covers the cache path."""
    case = next(c for c in BENCH_CASES if c.name == "thinner-mega")
    small = BenchCase(
        name=case.name,
        scenario=case.scenario,
        args=case.args,
        # The pinned quick args, shrunk further so the suite stays fast;
        # same shape (window-20 bad cohort) so the cache still engages.
        quick_args=dict(case.quick_args, good_clients=80, flash_clients=10,
                        bad_clients=20, capacity_rps=40.0, duration=1.0),
    )
    measurement = run_case(small, quick=True)
    counters = measurement.counters
    assert counters["cache_hits"] + counters["cache_misses"] > 0
    assert counters["cache_hits"] > 0
    # The case is auction-bound by construction: admission decisions happen
    # and each one is far cheaper than a full scan of the contender set.
    assert counters["auctions_held"] > 0
    assert counters["contenders_scanned"] > 0


@pytest.mark.parametrize("name", ["lan-small", "thinner-mega"])
def test_quick_cases_push_at_most_two_events_per_processed_event(name):
    """The completion calendar keeps one engine event per network, so a
    re-rate no longer cancels and re-pushes a completion event per flow:
    heap pushes stay within twice the events processed (they were 5x and
    more with an engine event per flow)."""
    case = next(c for c in BENCH_CASES if c.name == name)
    measurement = run_case(case, quick=True)
    counters = measurement.counters
    assert 0 < counters["events_scheduled"] <= 2 * measurement.events
    assert counters["events_cancelled"] < counters["events_scheduled"]


def test_check_regression_flags_admission_work_growth():
    """The contenders-scanned-per-auction signal (the CI gate for the
    kinetic bid index) trips when admission work regresses toward O(n)."""
    measurement = run_case(TINY_CASE, quick=True)
    auctions = measurement.counters["auctions_held"]
    scanned = measurement.counters["contenders_scanned"]
    assert auctions > 0 and scanned > 0
    committed = {
        "events_per_s": measurement.events_per_s,
        "events": measurement.events,
        "counters": {
            "flows_touched": measurement.counters["flows_touched"],
            "auctions_held": auctions,
            "contenders_scanned": scanned,
        },
    }
    baseline = {"date": "2026-01-01", "cases": {"tiny": committed}}
    # Identical admission work: clean.
    assert check_regression([measurement], baseline, tolerance=0.3, signals="work") == []
    # The committed entry did a third of the per-auction work: flagged.
    committed["counters"]["contenders_scanned"] = scanned / 3.0
    problems = check_regression([measurement], baseline, tolerance=0.3, signals="work")
    assert len(problems) == 1
    assert "contenders scanned per auction" in problems[0]
    # Entries that predate the admission counters are skipped, not tripped.
    committed["counters"].pop("contenders_scanned")
    committed["counters"].pop("auctions_held")
    assert check_regression([measurement], baseline, tolerance=0.3, signals="work") == []


def test_committed_bench_file_has_pr3_admission_pair():
    """The PR 3 acceptance artifact: baseline (O(n) auction scans) and
    optimised (kinetic bid index + batched arrivals) full-mode entries,
    recorded back-to-back on one machine, with thinner-mega events/sec
    improved at least 10x and per-auction admission work collapsed."""
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    document = load_document(os.path.join(repo_root, "BENCH_speakup.json"))
    full = [entry for entry in document["entries"] if entry["mode"] == "full"]
    baselines = [e for e in full if e["label"].startswith("PR3 baseline")]
    optimised = [e for e in full if e["label"].startswith("PR3: kinetic")]
    assert baselines and optimised, (
        "the PR 3 baseline/optimised full-mode entry pair must stay in "
        "BENCH_speakup.json — it is the acceptance artifact for the "
        "kinetic bid index"
    )
    base_case = baselines[-1]["cases"]["thinner-mega"]
    new_case = optimised[-1]["cases"]["thinner-mega"]
    assert base_case["clients"] >= 50_000
    assert new_case["events_per_s"] >= 10.0 * base_case["events_per_s"], (
        f"thinner-mega: {new_case['events_per_s']:.0f} events/s is not >= 10x "
        f"the baseline {base_case['events_per_s']:.0f} events/s"
    )
    base_scan = (
        base_case["counters"]["contenders_scanned"]
        / base_case["counters"]["auctions_held"]
    )
    new_scan = (
        new_case["counters"]["contenders_scanned"]
        / new_case["counters"]["auctions_held"]
    )
    # O(n) scans touched tens of thousands of contenders per auction; the
    # kinetic index touches a few dozen (slope groups + stale pops).
    assert base_scan > 1_000
    assert new_scan < 100


def test_check_regression_work_signal_ignores_wall_clock():
    """signals='work' (the CI gate) never trips on events/sec differences."""
    measurement = run_case(TINY_CASE, quick=True)
    baseline = {
        "date": "2026-01-01",
        "cases": {
            "tiny": {
                # A wildly faster committed machine: rate signal would trip.
                "events_per_s": measurement.events_per_s * 100.0,
                "events": measurement.events,
                "counters": {"flows_touched": measurement.counters["flows_touched"]},
            }
        },
    }
    assert check_regression([measurement], baseline, tolerance=0.3) != []
    assert check_regression([measurement], baseline, tolerance=0.3, signals="work") == []
    with pytest.raises(ExperimentError):
        check_regression([measurement], baseline, signals="bogus")


def test_load_document_rejects_unknown_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"version": 99, "entries": []}')
    with pytest.raises(ExperimentError):
        load_document(str(path))


def test_committed_bench_file_has_baseline_and_optimised_entries():
    """The acceptance contract: BENCH_speakup.json carries the trajectory —
    the PR 2 pre-optimisation baseline and its optimised follow-up, with the
    optimised stress-mega at least 2x the baseline events/sec.

    Matched by label so later entries (other PRs, other machines) never
    disturb the pinned pair: both PR 2 entries were recorded back-to-back
    on one machine, which is what makes their wall-clock ratio meaningful."""
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    document = load_document(os.path.join(repo_root, "BENCH_speakup.json"))
    full = [entry for entry in document["entries"] if entry["mode"] == "full"]
    baselines = [e for e in full if e["label"].startswith("PR2 baseline")]
    optimised = [e for e in full if e["label"].startswith("PR2: dirty-set")]
    assert baselines and optimised, (
        "the PR 2 baseline/optimised full-mode entry pair must stay in "
        "BENCH_speakup.json — it is the acceptance artifact for the "
        "dirty-set allocator"
    )
    base_case = baselines[0]["cases"]["stress-mega"]
    new_case = optimised[0]["cases"]["stress-mega"]
    # Same pinned config (identical deterministic event counts) ...
    assert new_case["events"] == base_case["events"]
    # ... and at least the promised speedup.
    assert new_case["events_per_s"] >= 2.0 * base_case["events_per_s"], (
        f"stress-mega: {new_case['events_per_s']:.0f} events/s is not >= 2x "
        f"the baseline {base_case['events_per_s']:.0f} events/s"
    )
