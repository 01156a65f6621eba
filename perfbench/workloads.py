"""The benchmark's workloads, run once per forked repetition process.

Each workload is a registry scenario or a paper figure; the seed is the only
input the harness varies.  :func:`run_repetition` runs one repetition and
returns a JSON-ready document: end-to-end metrics (or, when traced, per-layer
metrics), the repetition's work cut into timed slices (untraced only; see
:class:`Laps`), the correctness verdicts, a determinism fingerprint and the
provenance of the numbers.

Sizes are set so that one repetition takes one to two seconds on a
two-core machine; ``TINY`` shrinks every workload for the benchmark's smoke
tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

import numpy

from repro.experiments.allocation import figure2_allocation
from repro.experiments.base import ExperimentScale
from repro.scenarios.registry import build_scenario
from repro.telemetry.spec import TelemetrySpec
from repro.scenarios.runner import (
    SweepRunner,
    load_results,
    results_document,
    save_results,
)

from checks import check_result, check_round_trip
from layertrace import LayerTracer

#: Full-size parameters, each sized so that a repetition takes about a
#: second or three on a two-core machine (see ``README.md``).  paper-fig2
#: takes ExperimentScale fields; auction-mega takes registry-factory
#: overrides, and ``telemetry`` (TelemetrySpec fields) replaces the spec's
#: collector.
FULL: Dict[str, Dict[str, Any]] = {
    "paper-fig2": dict(duration=1.0, client_scale=0.5),
    "auction-mega": dict(
        scenario="thinner-mega",
        good_clients=2500,
        flash_clients=60,
        bad_clients=60,
        capacity_rps=1000.0,
        duration=0.5,
        telemetry=dict(mode="rollup", bucket_s=0.01),
    ),
}

#: Smoke-test parameters: the same shapes, a fraction of a second each.
TINY: Dict[str, Dict[str, Any]] = {
    "paper-fig2": dict(duration=1.0, client_scale=0.5),
    "auction-mega": dict(
        scenario="thinner-mega",
        good_clients=300,
        flash_clients=20,
        bad_clients=20,
        capacity_rps=200.0,
        duration=0.4,
        telemetry=dict(mode="rollup", bucket_s=0.01),
    ),
}

#: Slices each ``Deployment.run`` is cut into (see :class:`Laps`): about
#: 10 ms of work each at full size.
SLICES = {"paper-fig2": 25, "auction-mega": 100}
TINY_SLICES = 10


def parameters(workload: str, size: str) -> Dict[str, Any]:
    table = TINY if size == "tiny" else FULL
    return dict(table[workload])


def slices_per_run(workload: str, size: str) -> int:
    return TINY_SLICES if size == "tiny" else SLICES[workload]


# ---------------------------------------------------------------------------
# Slice timing
# ---------------------------------------------------------------------------


class Laps:
    """A repetition's work cut into short slices, each timed on its own.

    A shared host's speed drops for stretches of a fraction of a second to
    several seconds while other tenants run, so a time over a whole
    repetition mostly measures how many stretches it met.  Every repetition
    of a run does the same work in the same order (the seed fixes it), so
    slice *k* is the same work in each of them; the harness takes each
    slice's fastest time over the repetitions and sums them, which leaves
    out most of the stretches.

    Slices end at phase boundaries the workload marks itself and at
    checkpoint events: :meth:`install` makes ``Deployment.run`` schedule one
    no-op event at each of ``per_run - 1`` evenly spaced simulated times.
    They fire between the simulation's own events and change none of its
    state; the fingerprint's event count leaves them out.
    """

    def __init__(self) -> None:
        #: [phase, seconds] per slice, in order.
        self.slices: List[List[Any]] = []
        self.checkpoints = 0
        self._last = time.perf_counter()

    def start(self) -> None:
        self._last = time.perf_counter()

    def mark(self, phase: str) -> None:
        """End the current slice, which belongs to ``phase``."""
        now = time.perf_counter()
        self.slices.append([phase, now - self._last])
        self._last = now

    def install(self, per_run: int) -> Callable[[], None]:
        """Cut every ``Deployment.run`` into ``per_run`` slices of the
        "run" phase; returns the function that undoes the patch."""
        from repro.core.frontend import Deployment

        original = Deployment.run
        laps = self

        def run(deployment, duration):
            engine = deployment.engine
            start = engine.now
            step = duration / per_run

            def checkpoint(k):
                laps.checkpoints += 1
                laps.mark("run")
                if k + 1 < per_run:
                    engine.schedule_at(start + (k + 1) * step, checkpoint, k + 1)

            if per_run > 1:
                engine.schedule_at(start + step, checkpoint, 1)
            try:
                return original(deployment, duration)
            finally:
                laps.mark("run")

        Deployment.run = run
        return lambda: setattr(Deployment, "run", original)


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def source_digest(root: str) -> str:
    """SHA-256 over ``src/`` (paths and bytes): the code revision even where
    the checkout is not a git repository."""
    digest = hashlib.sha256()
    base = os.path.join(root, "src")
    for directory, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            digest.update(os.path.relpath(path, base).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_revision(root: str) -> Optional[str]:
    """HEAD of the checkout's own repository; None when it is not one (git
    would otherwise report an enclosing repository)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def provenance(root: str, workload: str, params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "params": params,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child (Linux kB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def good_share(result) -> float:
    """Good clients' server allocation over the bandwidth-proportional ideal."""
    return result.good_allocation / result.ideal_good_allocation


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced repetition
# ---------------------------------------------------------------------------


def layer_metrics(totals, deployments, run_s: float) -> Dict[str, float]:
    """Per-layer metrics from a tracer snapshot and the traced deployments."""

    def self_s(layer):
        return totals[layer][0]

    def calls(layer):
        return int(totals[layer][1])

    def counter(name):
        return sum(getattr(d.network.counters, name) for d in deployments)

    processed = sum(d.engine.events_processed for d in deployments)
    # Every scheduled event has fired, been cancelled, or is still pending;
    # the engine's sequence number counts the scheduled ones.
    scheduled = sum(d.engine._seq for d in deployments)
    pending = sum(d.engine.pending_events for d in deployments)
    hits, misses = counter("cache_hits"), counter("cache_misses")
    auctions = counter("auctions_held")
    waterfills = calls("network.waterfill")
    return {
        "engine.self_s": self_s("engine"),
        "engine.events_processed": processed,
        "engine.events_scheduled": scheduled,
        "engine.events_cancelled": scheduled - processed - pending,
        "engine.scheduled_per_processed": scheduled / processed if processed else 0.0,
        "engine.peak_live_events": max(d.network.counters.peak_live_events for d in deployments),
        "network.flush_s": self_s("network.flush"),
        "network.flushes": counter("flushes"),
        "network.waterfill_s": self_s("network.waterfill"),
        "network.waterfill_calls": waterfills,
        "network.flows_per_waterfill": (
            totals["network.waterfill_flows"][0] / waterfills if waterfills else 0.0
        ),
        "network.rate_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "network.flow_api_s": self_s("network.flow_api"),
        "network.events_s": self_s("network.events"),
        "admission.bidindex_s": self_s("admission.bidindex"),
        "admission.bidindex_calls": calls("admission.bidindex"),
        "admission.auctions": auctions,
        "admission.contenders_per_auction": (
            counter("contenders_scanned") / auctions if auctions else 0.0
        ),
        "admission.bid_refreshes": counter("bid_index_refreshes"),
        "admission.thinner_s": self_s("admission.thinner"),
        "admission.payment_s": self_s("admission.payment"),
        "clients.start_s": self_s("clients.start"),
        "clients.handler_s": self_s("clients.handler"),
        "server.handler_s": self_s("server.handler"),
        "scenarios.build_s": self_s("scenarios.build"),
        "collector.record_s": self_s("collector.record"),
        "collector.records_emitted": counter("records_emitted"),
        "python.gc_s": self_s("gc"),
        "trace.unattributed_share": self_s("run") / run_s if run_s else 0.0,
    }


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------


class TimedRunner(SweepRunner):
    """The sweep executor users run, timed (and optionally traced) from outside."""

    def __init__(self, tracer=None, laps=None) -> None:
        super().__init__(jobs=1)
        self.tracer = tracer
        self.laps = laps
        self.records: List = []
        self.run_s = 0.0
        self.totals = None

    def run(self, sweep):
        execute = super().run
        if self.tracer is not None:
            self.tracer.reset()
            execute = self.tracer.root(execute)
        if self.laps is not None:
            self.laps.mark("prep")
        start = time.perf_counter()
        self.records = execute(sweep)
        self.run_s = time.perf_counter() - start
        if self.laps is not None:
            self.laps.mark("run")
        if self.tracer is not None:
            self.totals = self.tracer.snapshot()
        return self.records


def _paper_fig2(root, params, seed, tracer, laps) -> Dict[str, Any]:
    scale = ExperimentScale(
        duration=params["duration"], client_scale=params["client_scale"], seed=seed
    )
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"paper-fig2-{os.getpid()}.json")
    deployments: List = []
    if tracer is not None:
        tracer.install()
        tracer.install_scenario_layers(deployments)
    runner = TimedRunner(tracer=tracer, laps=laps)
    failures: List[str] = []

    start = time.perf_counter()
    if laps is not None:
        laps.start()
    rows = figure2_allocation(scale, runner=runner)
    records = runner.records
    traced_deployments = list(deployments)
    results_start = time.perf_counter()
    save_results(records, path)
    save_s = time.perf_counter() - results_start
    load_start = time.perf_counter()
    loaded = load_results(path)
    load_s = time.perf_counter() - load_start
    results_kb = os.path.getsize(path) / 1024.0
    with open(path, "rb") as handle:
        results_sha256 = hashlib.sha256(handle.read()).hexdigest()
    os.remove(path)
    try:
        os.rmdir(out_dir)
    except OSError:  # another file is still there
        pass
    # Store-level problems fail every point; a point's own problems fail it.
    written = json.dumps(results_document(records), sort_keys=True)
    if json.dumps(results_document(loaded), sort_keys=True) != written:
        failures.append("save_results/load_results round trip changed the records")
    if len(rows) * 2 != len(records):
        failures.append(f"{len(records)} records for {len(rows)} Figure 2 rows")
    failed_points = len(records) if failures else 0
    for record in records:
        problems = check_result(record.result, record.spec) + check_round_trip(record.result)
        if problems:
            failed_points = min(len(records), failed_points + 1)
            failures.extend(f"point {record.index}: {problem}" for problem in problems)
    speakup = [r.result for r in records if r.overrides.get("defense") == "speakup"]
    share = statistics.fmean(good_share(result) for result in speakup)
    wall_s = time.perf_counter() - start
    if laps is not None:
        laps.mark("post")
    rss = peak_rss_mb()

    # Set-up: the grid's builds, which the pool workers perform inside the
    # sweep, repeated here serially so they can be timed on their own.
    build_s = 0.0
    built_bytes = 0
    clients = 0
    for record in records:
        if tracer is not None:
            tracemalloc.start()
        build_start = time.perf_counter()
        deployment = record.spec.build()
        build_s += time.perf_counter() - build_start
        if tracer is not None:
            built_bytes += tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
        clients += len(deployment.clients)
        del deployment

    issued = sum(r.result.good.issued + r.result.bad.issued for r in records)
    document = {
        "operations": len(records),
        "failed": failed_points,
        "failures": failures,
        "clients": clients,
        "issued": issued,
        "metrics": {
            "wall_s": wall_s,
            "setup_s": build_s,
            "run_s": runner.run_s,
            "peak_rss_mb": rss,
            "good_share": share,
        },
        "fingerprint": {
            "issued": issued,
            "served": sum(r.result.total_served for r in records),
            "good_share": share,
            "results_sha256": results_sha256,
        },
    }
    if tracer is not None:
        layers = layer_metrics(runner.totals, traced_deployments, runner.run_s)
        layers.update(
            {
                "clients.bytes_per_client": built_bytes / clients,
                "collector.results_s": runner.totals["collector.results"][0],
                "runner.points": len(records),
                "runner.save_s": save_s,
                "runner.load_s": load_s,
                "runner.results_kb": results_kb,
            }
        )
        document["layers"] = layers
    return document


def _mega(root, params, seed, tracer, laps) -> Dict[str, Any]:
    overrides = dict(params)
    scenario = overrides.pop("scenario")
    telemetry = overrides.pop("telemetry")
    spec = build_scenario(scenario, seed=seed, **overrides)
    spec = replace(spec, telemetry=TelemetrySpec(**telemetry))
    failures: List[str] = []
    if tracer is not None:
        tracer.install()
        tracemalloc.start()

    start = time.perf_counter()
    if laps is not None:
        laps.start()
    deployment = spec.build()
    setup_s = time.perf_counter() - start
    if laps is not None:
        laps.mark("setup")
    if tracer is not None:
        built_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        tracer.reset()
        run = tracer.root(deployment.run)
    else:
        run = deployment.run
    run_start = time.perf_counter()
    run(spec.duration)
    run_s = time.perf_counter() - run_start
    totals = tracer.snapshot() if tracer is not None else None
    results_start = time.perf_counter()
    result = deployment.results()
    results_s = time.perf_counter() - results_start
    failures.extend(check_result(result, spec))
    save_start = time.perf_counter()
    payload = result.to_json()
    save_s = time.perf_counter() - save_start
    load_start = time.perf_counter()
    failures.extend(check_round_trip(result, payload))
    load_s = time.perf_counter() - load_start
    share = good_share(result)
    wall_s = time.perf_counter() - start
    if laps is not None:
        laps.mark("post")
    rss = peak_rss_mb()

    issued = result.good.issued + result.bad.issued
    document = {
        "operations": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
        "clients": spec.total_clients(),
        "issued": issued,
        "metrics": {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "run_s": run_s,
            "peak_rss_mb": rss,
            "good_share": share,
        },
        "fingerprint": {
            "issued": issued,
            "served": result.total_served,
            "good_share": share,
            "events_processed": deployment.engine.events_processed
            - (laps.checkpoints if laps is not None else 0),
        },
    }
    if tracer is not None:
        layers = layer_metrics(totals, [deployment], run_s)
        layers.update(
            {
                "clients.bytes_per_client": built_bytes / spec.total_clients(),
                "collector.results_s": results_s,
                "runner.points": 1,
                "runner.save_s": save_s,
                "runner.load_s": load_s,
                "runner.results_kb": len(payload) / 1024.0,
            }
        )
        document["layers"] = layers
    return document


def run_repetition(
    root: str, workload: str, seed: int, traced: bool = False, size: str = "full"
) -> Dict[str, Any]:
    """One repetition of ``workload``; see the module docstring."""
    params = parameters(workload, size)
    tracer = LayerTracer() if traced else None
    laps = None if traced else Laps()
    undo = laps.install(slices_per_run(workload, size)) if laps is not None else None
    try:
        if workload == "paper-fig2":
            document = _paper_fig2(root, params, seed, tracer, laps)
        else:
            document = _mega(root, params, seed, tracer, laps)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if undo is not None:
            undo()
    if laps is not None:
        document["slices"] = laps.slices
    document["traced"] = traced
    document["provenance"] = provenance(root, workload, params, seed)
    return document
