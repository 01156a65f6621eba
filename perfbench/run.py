"""The speak-up simulator's benchmark: isolated, repeated, checked.

    python3 perfbench/run.py --workload paper-fig2 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each repetition runs in a child process
forked from this interpreter once it has imported the simulator, so
``peak_rss_mb`` belongs to that repetition alone.  Repetitions continue for
about ``--seconds`` (at least ``MIN_REPETITIONS``).  ``wall_s`` and
``run_s`` sum, over the short slices each repetition's work is cut into,
the slice's fastest time over the repetitions (see ``workloads.Laps``);
every other metric is the median over the repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs pairs of
an untraced reference repetition and a traced one and reports the per-layer
metrics (see ``perfbench/README.md``).  Every repetition's results are
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from statistics import median
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Repetitions run in children forked from this interpreter.
FORK = multiprocessing.get_context("fork")

#: The benchmark's workload module, imported from the checkout by ``main``.
workloads = None

WORKLOADS = ("paper-fig2", "auction-mega")

#: (name, unit, better): what ``--trace 0`` reports.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better): what ``--trace 1`` reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("engine.self_s", "s", "lower"),
    ("engine.events_processed", "count", "lower"),
    ("engine.events_scheduled", "count", "lower"),
    ("engine.events_cancelled", "count", "lower"),
    ("engine.scheduled_per_processed", "ratio", "lower"),
    ("engine.peak_live_events", "count", "lower"),
    ("network.flush_s", "s", "lower"),
    ("network.flushes", "count", "lower"),
    ("network.waterfill_s", "s", "lower"),
    ("network.waterfill_calls", "count", "lower"),
    ("network.flows_per_waterfill", "count", "lower"),
    ("network.rate_cache_hit_ratio", "ratio", "higher"),
    ("network.flow_api_s", "s", "lower"),
    ("network.events_s", "s", "lower"),
    ("admission.bidindex_s", "s", "lower"),
    ("admission.bidindex_calls", "count", "lower"),
    ("admission.auctions", "count", "lower"),
    ("admission.contenders_per_auction", "count", "lower"),
    ("admission.bid_refreshes", "count", "lower"),
    ("admission.thinner_s", "s", "lower"),
    ("admission.payment_s", "s", "lower"),
    ("clients.start_s", "s", "lower"),
    ("clients.handler_s", "s", "lower"),
    ("clients.bytes_per_client", "B", "lower"),
    ("server.handler_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("scenarios.build_s_per_kclient", "s", "lower"),
    ("collector.results_s", "s", "lower"),
    ("collector.record_s", "s", "lower"),
    ("collector.records_emitted", "count", "lower"),
    ("python.gc_s", "s", "lower"),
    ("runner.points", "count", "higher"),
    ("runner.save_s", "s", "lower"),
    ("runner.load_s", "s", "lower"),
    ("runner.results_kb", "KiB", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)

#: Fewest repetitions (or traced pairs) a run makes, however short --seconds.
MIN_REPETITIONS = 3
MIN_TRACED_PAIRS = 1

#: No repetition starts once this many seconds have passed, and none runs
#: past the limit, so a run ends inside three minutes even on a slow machine.
START_DEADLINE_S = 120.0
RUN_LIMIT_S = 170.0

#: A seed not used while the benchmark was tuned; claims of a gain must
#: also hold on it.
HELD_OUT_SEED = 104729


def _repetition(sender, root: str, workload: str, seed: int, traced: bool, size: str) -> None:
    """The forked child: one repetition, its document sent to the parent."""
    try:
        document = workloads.run_repetition(root, workload, seed, traced=traced, size=size)
        sender.send((document, None))
    except BaseException as error:  # the parent reports it; the child exits
        sender.send((None, f"{workload} repetition raised {type(error).__name__}: {error}"))
    finally:
        sender.close()


def run_repetition(root: str, workload: str, seed: int, traced: bool, size: str, timeout: float):
    """One repetition in a child forked from this interpreter, which has only
    imported the simulator: (document, error message)."""
    receiver, sender = FORK.Pipe(duplex=False)
    child = FORK.Process(target=_repetition, args=(sender, root, workload, seed, traced, size))
    child.start()
    sender.close()
    try:
        if receiver.poll(max(timeout, 0.0)):
            return receiver.recv()
        child.kill()
        return None, f"{workload} repetition timed out"
    except EOFError:
        child.join()
        return None, f"{workload} repetition exited {child.exitcode} without a result"
    finally:
        receiver.close()
        child.join()


def tally(documents: List[Dict[str, Any]], errors: List[str]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over repetitions, determinism included.

    A repetition whose fingerprint differs from the first one's fails all of
    its operations: the same seed must give the same results.  So does an
    untraced repetition whose slices (see ``workloads.Laps``) belong to other
    phases than the first untraced one's: the same seed must give the same
    work.
    """
    attempted = sum(d["operations"] for d in documents) + len(errors)
    failed = sum(d["failed"] for d in documents) + len(errors)
    problems = list(errors)
    for document in documents:
        problems.extend(document["failures"])
    if documents:
        reference = documents[0]["fingerprint"]
        layout = next((slice_phases(d) for d in documents if "slices" in d), None)
        for index, document in enumerate(documents[1:], start=1):
            if document["fingerprint"] != reference:
                problem = (
                    f"repetition {index} fingerprint {document['fingerprint']} "
                    f"differs from {reference}"
                )
            elif "slices" in document and slice_phases(document) != layout:
                problem = f"repetition {index} cut its work into other slices"
            else:
                continue
            failed += document["operations"] - document["failed"]
            problems.append(problem)
    return attempted, failed, problems


def slice_phases(document: Dict[str, Any]) -> List[str]:
    return [phase for phase, _ in document.get("slices", [])]


def measure(root: str, workload: str, seed: int, seconds: float, size: str):
    """Untraced repetitions for about ``seconds``: (documents, errors).

    A repetition starts only if, lasting as long as the previous one, it
    would end less than half a repetition past ``seconds``, so the measured
    span is centred on ``seconds``.
    """
    documents, errors = [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        count = len(documents) + len(errors)
        if count >= MIN_REPETITIONS and elapsed + last / 2 >= seconds:
            break
        if count and elapsed >= START_DEADLINE_S:
            break
        document, error = run_repetition(
            root, workload, seed, False, size, RUN_LIMIT_S - elapsed
        )
        last = time.perf_counter() - start - elapsed
        if error:
            errors.append(error)
        else:
            documents.append(document)
    return documents, errors


def measure_traced(root: str, workload: str, seed: int, seconds: float, size: str):
    """Reference/traced pairs for about ``seconds``: (references, traced, errors)."""
    references, traced, errors = [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_TRACED_PAIRS and elapsed + last / 2 >= seconds:
            break
        if (traced or errors) and elapsed >= START_DEADLINE_S:
            break
        reference, error = run_repetition(
            root, workload, seed, False, size, RUN_LIMIT_S - elapsed
        )
        if error:
            errors.append(error)
            break
        document, error = run_repetition(
            root, workload, seed, True, size, RUN_LIMIT_S - (time.perf_counter() - start)
        )
        if error:
            errors.append(error)
            break
        references.append(reference)
        traced.append(document)
        last = time.perf_counter() - start - elapsed
    return references, traced, errors


def fastest_slices(documents) -> List[Tuple[str, float]]:
    """(phase, fastest time over ``documents``) per slice of the first
    document's layout; documents cut otherwise are left out (``tally`` fails
    them)."""
    layout = slice_phases(documents[0])
    times = [[s for _, s in d["slices"]] for d in documents if slice_phases(d) == layout]
    return [(phase, min(column)) for phase, column in zip(layout, zip(*times))]


def end_to_end_metrics(documents) -> Dict[str, float]:
    metrics = {
        name: median([d["metrics"][name] for d in documents]) for name, _, _ in END_TO_END
    }
    slices = fastest_slices(documents)
    metrics["wall_s"] = sum(s for _, s in slices)
    metrics["run_s"] = sum(s for phase, s in slices if phase == "run")
    return metrics


def per_layer_metrics(references, traced) -> Dict[str, float]:
    metrics = {}
    for name, _, _ in PER_LAYER:
        values = [d["layers"][name] for d in traced if name in d["layers"]]
        if values:
            metrics[name] = median(values)
    reference_run = median([d["metrics"]["run_s"] for d in references])
    metrics["trace.overhead"] = median([d["metrics"]["run_s"] for d in traced]) / reference_run
    metrics["scenarios.build_s_per_kclient"] = median(
        [d["metrics"]["setup_s"] / (d["clients"] / 1000.0) for d in references]
    )
    return {name: metrics[name] for name, _, _ in PER_LAYER if name in metrics}


def checkout_problem(root: str) -> str:
    """Why ``root`` cannot be benchmarked, or an empty string."""
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        return f"no simulator sources under {os.path.join(root, 'src', 'repro')}"
    return ""


def import_simulator(root: str) -> str:
    """Import the checkout's simulator and the workloads that drive it; the
    problem, or an empty string."""
    global workloads
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    import repro

    expected = os.path.join(root, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected:
        return f"imported {repro.__file__}, not the checkout's {expected}"
    import workloads as module

    workloads = module
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="speak-up simulator benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test scale"
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    problem = checkout_problem(root) or import_simulator(root)
    if problem:
        print(f"perfbench: {problem}; run from the root of a checkout", file=sys.stderr)
        return 2

    print(
        f"# workload={args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g} held_out_seed={HELD_OUT_SEED}"
    )
    print(
        "# each repetition runs in a fresh process forked from an interpreter that "
        "has only imported the simulator; interpreter and import start-up are excluded"
    )
    if args.trace:
        references, traced, errors = measure_traced(
            root, args.workload, args.seed, args.seconds, args.size
        )
        documents = references + traced
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = per_layer_metrics(references, traced) if traced else {}
        for name in ("run_s", "setup_s"):
            if traced:
                value = median([d["metrics"][name] for d in references])
                print(f"# reference {name}: {value!r} s")
    else:
        documents, errors = measure(root, args.workload, args.seed, args.seconds, args.size)
        units = {name: unit for name, unit, _ in END_TO_END}
        metrics = end_to_end_metrics(documents) if documents else {}

    attempted, failed, problems = tally(documents, errors)
    error_rate = failed / attempted if attempted else 1.0
    if documents:
        first = documents[0]
        print(f"# provenance: {json.dumps(first['provenance'], sort_keys=True)}")
        print(f"# fingerprint: {json.dumps(first['fingerprint'], sort_keys=True)}")
        print(f"# requests issued per repetition: {first['issued']}")
    print(f"# repetitions: {len(documents)}")
    if not args.trace and documents:
        print(f"# slices per repetition: {len(documents[0]['slices'])}")
        for name, _, _ in END_TO_END:
            values = [d["metrics"][name] for d in documents]
            print(f"# {name} per repetition: {' '.join(f'{v:.6g}' for v in values)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"error_rate {error_rate!r} ratio ({failed} failed of {attempted} operations)")
    if documents:
        # The same in every repetition (it is in the fingerprint), so no median.
        print(f"good_share {documents[0]['metrics']['good_share']!r} ratio (this seed's result)")
    for problem in problems:
        print(f"# FAILED: {problem}")
    result = {
        "correct": failed == 0 and attempted > 0 and len(metrics) == len(units),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
