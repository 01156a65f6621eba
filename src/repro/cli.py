"""Command-line interface: run any of the paper's experiments from a shell.

Examples::

    speakup-repro demo --good 5 --bad 5 --capacity 20
    speakup-repro figure2 --duration 60 --client-scale 0.5
    speakup-repro figure3
    speakup-repro costs            # Figures 4 and 5
    speakup-repro figure6
    speakup-repro figure7
    speakup-repro figure8
    speakup-repro figure9
    speakup-repro advantage        # section 7.4
    speakup-repro capacity         # section 7.1 analogue
    speakup-repro adaptive         # attack-triggered engagement sweep
    speakup-repro failover --fault-plan plan.json   # replay a saved plan
    speakup-repro brownout         # gray failures: retry storms + ejection
    speakup-repro fabric           # dispatch strategies across fabrics
    speakup-repro scenarios        # list the named scenarios
    speakup-repro scenarios --doc  # emit the docs/SCENARIOS.md gallery
    speakup-repro defenses         # list the registered defenses + knobs
    speakup-repro sweep --scenario lan-baseline \\
        --set good_clients=10 --set bad_clients=10 --set capacity_rps=40 \\
        --grid defense=speakup,none --replicates 3 --jobs 4 --out results.json
    speakup-repro bench            # run the pinned perf suite, append to
                                   # BENCH_speakup.json
    speakup-repro bench --quick --check   # CI: fail on events/sec regression
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Optional, Sequence

from repro import quick_demo
from repro.errors import ReproError
from repro.scenarios.registry import build_scenario, scenario_description, scenario_names
from repro.scenarios.runner import Sweep, SweepRunner, save_results
from repro.experiments.adversary import empirical_adversarial_advantage, format_window_sweep, window_sweep
from repro.experiments.allocation import (
    figure2_allocation,
    figure3_provisioning,
    format_figure2,
    format_figure3,
)
from repro.experiments.base import ExperimentScale
from repro.experiments.bottleneck import figure8_shared_bottleneck, format_bottleneck
from repro.experiments.capacity import thinner_sink_capacity
from repro.experiments.cost import figure4_5_costs, format_costs
from repro.experiments.cross_traffic import figure9_cross_traffic, format_cross_traffic
from repro.experiments.heterogeneous import (
    figure6_bandwidth_heterogeneity,
    figure7_rtt_heterogeneity,
    format_categories,
)
from repro.metrics.tables import format_table
from repro.perf.bench import BENCH_CASES


def _add_scale_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=60.0,
                        help="simulated seconds per run (paper: 600)")
    parser.add_argument("--client-scale", type=float, default=0.5,
                        help="fraction of the paper's client count to simulate (paper: 1.0)")
    parser.add_argument("--seed", type=int, default=0, help="root random seed")


def _scale_from(args: argparse.Namespace) -> ExperimentScale:
    return ExperimentScale(duration=args.duration, client_scale=args.client_scale, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speakup-repro",
        description="Reproduction of 'DDoS Defense by Offense' (speak-up), SIGCOMM 2006",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run a small attacked-server demo")
    demo.add_argument("--good", type=int, default=5)
    demo.add_argument("--bad", type=int, default=5)
    demo.add_argument("--capacity", type=float, default=20.0)
    demo.add_argument("--duration", type=float, default=20.0)
    # No argparse `choices`: unknown names go through the same clean
    # one-line ReproError path (listing the valid choices) as every other
    # subcommand, instead of argparse's usage dump.
    demo.add_argument("--defense", default="speakup",
                      help="admission policy: speakup, retry, quantum, none, any "
                           "registered defense (see 'speakup-repro defenses'), or "
                           "a 'filter>admission' pipeline such as ratelimit>speakup")
    demo.add_argument("--seed", type=int, default=0)

    for name, help_text in [
        ("figure2", "allocation vs good-bandwidth fraction"),
        ("figure3", "allocation and served fraction across capacities"),
        ("costs", "figures 4 and 5: payment time and price"),
        ("figure6", "heterogeneous client bandwidths"),
        ("figure7", "heterogeneous client RTTs"),
        ("figure8", "good and bad clients sharing a bottleneck"),
        ("figure9", "impact on bystander HTTP downloads"),
        ("advantage", "section 7.4: empirical adversarial advantage"),
        ("windows", "section 7.4: bad-client window sweep"),
    ]:
        sub = subparsers.add_parser(name, help=help_text)
        _add_scale_arguments(sub)

    fleet = subparsers.add_parser(
        "fleet",
        help="section 4.3: empirical thinner-fleet provisioning curve",
        description=(
            "Run the same over-subscribed workload in front of 1, 2, 4, ... "
            "thinner shards and compare each shard's measured payment sink "
            "rate against the closed form (G+B)/N of "
            "repro.analysis.provisioning."
        ),
    )
    _add_scale_arguments(fleet)
    fleet.add_argument("--shards", default="1,2,4,8", metavar="N1,N2,...",
                       help="comma-separated fleet sizes to sweep")
    fleet.add_argument("--policy", default="least-loaded",
                       help="shard dispatch policy (hash, least-loaded, random)")
    fleet.add_argument("--admission", default="partitioned",
                       help="admission mode (partitioned, pooled)")

    failover = subparsers.add_parser(
        "failover",
        help="mid-run shard kill/heal: good-client service dip and recovery",
        description=(
            "Run the fleet-failover scenario (the lan mix on a sharded "
            "fleet) with a fault plan that kills one shard mid-run and "
            "heals it later, and report the good clients' service rate "
            "before the kill, through the outage, and after the heal."
        ),
    )
    _add_scale_arguments(failover)
    failover.add_argument("--shards", type=int, default=4,
                          help="fleet size (must be > 1)")
    failover.add_argument("--policy", default="hash",
                          help="shard dispatch policy (hash, least-loaded, random)")
    failover.add_argument("--admission", default="pooled",
                          help="admission mode (pooled, partitioned); pooled keeps "
                               "full capacity reachable after the kill")
    failover.add_argument("--kill-shard", type=int, default=1,
                          help="which shard dies")
    failover.add_argument("--kill-at", type=float, default=None, metavar="S",
                          help="kill time (default: a third of the run)")
    failover.add_argument("--heal-at", type=float, default=None, metavar="S",
                          help="heal time (default: two thirds of the run)")
    failover.add_argument("--repin-ttl", type=float, default=2.0, metavar="S",
                          help="max DNS-style re-pin lag per orphaned client")
    failover.add_argument("--fault-plan", default=None, metavar="FILE",
                          help="JSON fault plan replacing the generated kill/heal "
                               "pulse (validated against --shards and --duration; "
                               "pass matching --kill-at/--heal-at so the report's "
                               "windows line up)")

    brownout = subparsers.add_parser(
        "brownout",
        help="gray failures: retry-storm amplification and health-driven ejection",
        description=(
            "Run the fleet-brownout scenario four ways: a fleet-wide lossy "
            "pulse under naive and budgeted client retry policies (measuring "
            "retry amplification), then a single-shard stall with and "
            "without the health prober (measuring good-client service "
            "during the pulse with ejection vs without)."
        ),
    )
    _add_scale_arguments(brownout)
    brownout.add_argument("--shards", type=int, default=4,
                          help="fleet size (must be > 1)")
    brownout.add_argument("--policy", default="hash",
                          help="shard dispatch policy (hash, least-loaded, random)")
    brownout.add_argument("--admission", default="pooled",
                          help="admission mode (pooled, partitioned)")
    brownout.add_argument("--loss-p", type=float, default=0.6, metavar="P",
                          help="upload loss probability during the lossy pulse")
    brownout.add_argument("--stall-shard", type=int, default=0,
                          help="which shard stalls in the ejection arms")
    brownout.add_argument("--start-at", type=float, default=None, metavar="S",
                          help="pulse start (default: a third of the run)")
    brownout.add_argument("--end-at", type=float, default=None, metavar="S",
                          help="pulse end (default: two thirds of the run)")
    brownout.add_argument("--probe-interval", type=float, default=0.5, metavar="S",
                          help="health-prober sampling interval")

    fabric = subparsers.add_parser(
        "fabric",
        help="dispatch strategies across datacenter fabrics (star, leaf-spine, fat-tree)",
        description=(
            "Run the fabric-mega population on each requested fabric under "
            "each requested dispatch strategy and tabulate good-client "
            "service and per-shard payment imbalance.  Pass --kill-shard to "
            "compose a mid-run kill/heal pulse onto every cell."
        ),
    )
    _add_scale_arguments(fabric)
    fabric.add_argument("--shards", type=int, default=8,
                        help="fleet size behind the frontend")
    fabric.add_argument("--fabrics", default="star,leaf-spine,fat-tree",
                        metavar="F1,F2,...",
                        help="comma-separated fabrics (star, leaf-spine, fat-tree)")
    fabric.add_argument("--strategies", default=None, metavar="S1,S2,...",
                        help="comma-separated dispatch strategies "
                             "(default: every registered strategy)")
    fabric.add_argument("--oversubscription", type=float, default=4.0,
                        help="fabric core oversubscription ratio")
    fabric.add_argument("--cross-pairs", type=int, default=4,
                        help="bystander cross-traffic pairs on fabric topologies")
    fabric.add_argument("--probe", default="pins",
                        help="load signal for probe-driven strategies "
                             "(pins, contenders, sink-rate, none)")
    fabric.add_argument("--kill-shard", type=int, default=None,
                        help="compose a kill/heal pulse on this shard")
    fabric.add_argument("--kill-at", type=float, default=None, metavar="S",
                        help="kill time (default: a quarter of the run)")
    fabric.add_argument("--heal-at", type=float, default=None, metavar="S",
                        help="heal time (default: 60%% of the run)")

    capacity = subparsers.add_parser("capacity", help="section 7.1: thinner sink-rate analogue")
    capacity.add_argument("--measure-seconds", type=float, default=0.5)

    adaptive = subparsers.add_parser(
        "adaptive",
        help="attack-triggered engagement: good-client service vs watcher cadence",
        description=(
            "Run the adaptive-pulse workload (steady good demand, one "
            "full-rate attack pulse) under the adaptive defense at several "
            "load-watcher cadences, plus always-on and undefended "
            "baselines, and report engagement lag, engaged time, and the "
            "good clients' fraction served."
        ),
    )
    _add_scale_arguments(adaptive)
    adaptive.add_argument("--intervals", default="0.5,1,2,4", metavar="S1,S2,...",
                          help="comma-separated watcher check intervals (seconds)")

    scenarios = subparsers.add_parser(
        "scenarios", help="list the named scenarios in the registry"
    )
    scenarios.add_argument(
        "--doc",
        action="store_true",
        help="emit the full markdown scenario gallery (docs/SCENARIOS.md)",
    )

    subparsers.add_parser(
        "defenses",
        help="list the registered defenses with their parameters",
        description=(
            "List every defense in the registry (the vocabulary of "
            "--defense, ScenarioSpec.defense, and DefenseSpec.name) with "
            "its one-line description and the factory parameters a "
            "DefenseSpec can set."
        ),
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the pinned perf suite and track it in BENCH_speakup.json",
        description=(
            f"Run the pinned benchmark suite ({len(BENCH_CASES)} cases: "
            f"{', '.join(case.name for case in BENCH_CASES)}), print "
            "events/sec plus the hot-path counters, and append a dated entry "
            "to the tracked results file so the performance trajectory "
            "accumulates across commits."
        ),
    )
    bench.add_argument("--quick", action="store_true",
                       help="reduced scales (CI smoke; entries are tagged 'quick')")
    bench.add_argument("--label", default="",
                       help="free-form label stored with the entry")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="results file (default: ./BENCH_speakup.json)")
    bench.add_argument("--check", action="store_true",
                       help="compare against the last committed entry of the same "
                            "mode instead of appending; exit 3 on regression")
    bench.add_argument("--tolerance", type=float, default=None,
                       help="allowed regression for --check (default 0.30)")
    bench.add_argument("--check-signal", choices=["all", "work"], default="all",
                       help="--check signals: 'all' (events/sec + work ratio) or "
                            "'work' (machine-independent flows-touched-per-event "
                            "only; use when the committed baseline was recorded "
                            "on a different machine, e.g. in CI)")
    bench.add_argument("--no-save", action="store_true",
                       help="print the measurements without touching the file")
    bench.add_argument("--profile", action="store_true",
                       help="run the suite under cProfile and write the top-40 "
                            "cumulative stats next to the results file")
    bench.add_argument("--fresh-out", default=None, metavar="FILE",
                       help="also write just this run's entry to FILE "
                            "(e.g. a CI artifact), in any mode")

    sweep = subparsers.add_parser(
        "sweep",
        help="expand a parameter grid over a named scenario and run it",
        description=(
            "Expand a parameter grid (and seed replicates) over a named scenario "
            "and run every point, serially or across worker processes. "
            "--set passes arguments to the scenario factory; --grid varies spec "
            "fields (dotted paths such as capacity_rps, defense, or "
            "groups.1.window) over comma-separated values."
        ),
    )
    sweep.add_argument("--scenario", default="lan-baseline",
                       help="registry name (see 'speakup-repro scenarios')")
    sweep.add_argument("--set", dest="settings", action="append", default=[],
                       metavar="KEY=VALUE", help="scenario factory argument (repeatable)")
    sweep.add_argument("--grid", dest="grids", action="append", default=[],
                       metavar="PATH=V1,V2,...",
                       help="sweep a spec field over values (repeatable)")
    sweep.add_argument("--replicates", type=int, default=None,
                       help="seed replicates per grid point (derived substreams)")
    sweep.add_argument("--seeds", default=None, metavar="S1,S2,...",
                       help="explicit root seeds (alternative to --replicates)")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = serial; results are identical)")
    sweep.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON results store to FILE")

    campaign = subparsers.add_parser(
        "campaign",
        help="checkpointed out-of-core sweeps: run, resume, status, merge",
        description=(
            "A campaign is a sweep executed by worker processes that stream "
            "records to per-worker JSONL spools with checkpoint manifests. "
            "Kill it mid-run, 'campaign resume' re-executes only the missing "
            "points, and 'campaign merge' writes a results document "
            "byte-identical to an uninterrupted 'sweep --out' run."
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    campaign_run = campaign_sub.add_parser(
        "run", help="initialise a campaign directory and execute every point"
    )
    campaign_run.add_argument("--scenario", default="lan-baseline",
                              help="registry name (see 'speakup-repro scenarios')")
    campaign_run.add_argument("--set", dest="settings", action="append", default=[],
                              metavar="KEY=VALUE",
                              help="scenario factory argument (repeatable)")
    campaign_run.add_argument("--grid", dest="grids", action="append", default=[],
                              metavar="PATH=V1,V2,...",
                              help="sweep a spec field over values (repeatable)")
    campaign_run.add_argument("--replicates", type=int, default=None,
                              help="seed replicates per grid point")
    campaign_run.add_argument("--seeds", default=None, metavar="S1,S2,...",
                              help="explicit root seeds")
    campaign_run.add_argument("--dir", dest="directory", required=True,
                              metavar="DIR", help="campaign directory (created)")
    campaign_run.add_argument("--jobs", type=int, default=1,
                              help="concurrent worker processes")
    campaign_run.add_argument("--workers", type=int, default=None,
                              help="spool count, fixed at plan time "
                                   "(default: --jobs); resume never re-shards")
    campaign_run.add_argument("--checkpoint-every", type=int, default=8,
                              metavar="N", help="fsync + manifest every N records")
    campaign_run.add_argument("--fail-after", type=int, default=None, metavar="N",
                              help="test hook: crash one worker after N records "
                                   "(torn spool line, exit mid-write)")
    campaign_run.add_argument("--fail-worker", type=int, default=0,
                              help="which worker the --fail-after hook crashes")

    campaign_resume = campaign_sub.add_parser(
        "resume", help="repair torn spools and execute only the missing points"
    )
    campaign_resume.add_argument("--dir", dest="directory", required=True,
                                 metavar="DIR", help="existing campaign directory")
    campaign_resume.add_argument("--jobs", type=int, default=1,
                                 help="concurrent worker processes")

    campaign_status_p = campaign_sub.add_parser(
        "status", help="report per-worker progress without executing anything"
    )
    campaign_status_p.add_argument("--dir", dest="directory", required=True,
                                   metavar="DIR", help="campaign directory")

    campaign_merge = campaign_sub.add_parser(
        "merge", help="stream-merge the spools into one results document"
    )
    campaign_merge.add_argument("--dir", dest="directory", required=True,
                                metavar="DIR", help="campaign directory")
    campaign_merge.add_argument("--out", required=True, metavar="FILE",
                                help="results file (readable by load_results/plot)")

    return parser


def _load_fault_plan(path: str):
    """Load a JSON fault plan, mapping every failure to a one-line error."""
    import json

    from repro.faults.spec import FaultPlan

    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ReproError(f"--fault-plan: cannot read {path!r}: {error}")
    except json.JSONDecodeError as error:
        raise ReproError(f"--fault-plan: {path!r} is not valid JSON: {error}")
    try:
        return FaultPlan.from_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(f"--fault-plan: malformed plan in {path!r}: {error}")


def _parse_value(text: str) -> Any:
    """Interpret a CLI value as int, float, bool, or string (in that order)."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            continue
    return text


def _parse_pair(entry: str, option: str) -> tuple:
    key, separator, value = entry.partition("=")
    if not separator or not key or not value:
        raise ReproError(f"{option} expects KEY=VALUE, got {entry!r}")
    return key, value


def _build_sweep(args: argparse.Namespace) -> Sweep:
    """Expand --scenario/--set/--grid/--seeds/--replicates into a Sweep."""
    overrides = {}
    for entry in args.settings:
        key, value = _parse_pair(entry, "--set")
        overrides[key] = _parse_value(value)
    spec = build_scenario(args.scenario, **overrides)

    axes = {}
    for entry in args.grids:
        path, values = _parse_pair(entry, "--grid")
        axes[path] = tuple(_parse_value(value) for value in values.split(","))

    seeds = None
    if args.seeds is not None:
        try:
            seeds = tuple(int(seed) for seed in args.seeds.split(","))
        except ValueError:
            raise ReproError(f"--seeds expects comma-separated integers, got {args.seeds!r}")
    return Sweep(spec, axes=axes, seeds=seeds, replicates=args.replicates)


def _run_sweep(args: argparse.Namespace) -> int:
    sweep = _build_sweep(args)
    axes = sweep.axes
    runner = SweepRunner(jobs=args.jobs)
    records = runner.run(sweep)
    if args.out:
        save_results(records, args.out)

    axis_paths = [path for path in axes]
    rows = []
    for record in records:
        point = ", ".join(f"{path}={record.overrides[path]}" for path in axis_paths)
        rows.append((
            point or "-",
            record.seed,
            record.result.good_allocation,
            record.result.bad_allocation,
            record.result.good_fraction_served,
        ))
    print(format_table(
        headers=["point", "seed", "good_alloc", "bad_alloc", "good_served_frac"],
        rows=rows,
        title=(
            f"Sweep over {args.scenario!r}: {len(records)} runs"
            + (f" -> {args.out}" if args.out else "")
        ),
    ))
    return 0


def _print_campaign_status(status) -> int:
    """Tabulate a CampaignStatus; exit 0 when complete, 4 when points remain."""
    rows = [
        (
            worker.worker,
            worker.done,
            worker.assigned,
            "torn tail" if worker.torn else ("complete" if worker.complete else "behind"),
        )
        for worker in status.workers
    ]
    print(format_table(
        headers=["worker", "done", "assigned", "state"],
        rows=rows,
        title=(
            f"Campaign {status.directory}: {status.done}/{status.points} points"
            + ("" if status.complete else f" ({status.missing} missing)")
        ),
    ))
    if status.complete:
        return 0
    print("campaign: incomplete; run 'campaign resume' to finish it",
          file=sys.stderr)
    return 4


def _run_campaign(args: argparse.Namespace) -> int:
    from repro.campaigns import CampaignRunner, CampaignStore, campaign_status

    if args.campaign_command == "run":
        runner = CampaignRunner(jobs=args.jobs)
        status = runner.run(
            _build_sweep(args),
            args.directory,
            workers=args.workers,
            checkpoint_every=args.checkpoint_every,
            fail_after=args.fail_after,
            fail_worker=args.fail_worker,
        )
        return _print_campaign_status(status)
    if args.campaign_command == "resume":
        status = CampaignRunner(jobs=args.jobs).resume(args.directory)
        return _print_campaign_status(status)
    if args.campaign_command == "status":
        return _print_campaign_status(campaign_status(args.directory))
    # merge
    written = CampaignStore(args.directory).merge(args.out)
    print(f"campaign: merged {written} records -> {args.out}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``speakup-repro`` console script.

    Returns 0 on success and 2 on a configuration error (bad argument
    values, unknown scenarios, ...), printing a one-line message rather
    than a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except ReproError as error:
        print(f"speakup-repro: error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout disappeared mid-print (e.g. piping into `head`): exit
        # quietly like a well-behaved filter, pointing stdout at devnull so
        # the interpreter's shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OSError as error:
        # E.g. --out pointing into a directory that does not exist.
        print(f"speakup-repro: error: {error}", file=sys.stderr)
        return 2


def _run_bench(args: argparse.Namespace) -> int:
    from repro.perf import bench as perf

    out = args.out or perf.BENCH_FILENAME
    tolerance = perf.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    mode = "quick" if args.quick else "full"
    baseline = None
    if args.check:
        # Fail before the (potentially minutes-long) suite runs, not after.
        baseline = perf.latest_entry(perf.load_document(out), mode)
        if baseline is None:
            raise ReproError(
                f"no committed {mode!r} baseline entry in {out!r} to check against"
            )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    measurements = perf.run_bench(
        quick=args.quick,
        progress=lambda name: print(f"bench: running {name} ...", file=sys.stderr),
    )
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        buffer = io.StringIO()
        pstats.Stats(profiler, stream=buffer).sort_stats("cumulative").print_stats(40)
        profile_path = os.path.splitext(out)[0] + ".profile.txt"
        with open(profile_path, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
        print(f"bench: wrote cProfile top-40 (cumulative) to {profile_path}",
              file=sys.stderr)
    print(format_table(
        headers=["case", "clients", "sim_s", "wall_s", "events", "events/s",
                 "waterfills", "flows/call", "cache_hits", "scan/auction"],
        rows=perf.format_measurements(measurements),
        title=f"Pinned perf suite ({'quick' if args.quick else 'full'} mode)",
    ))

    # One entry for the run, shared by --fresh-out and the tracked file so
    # the artifact and the appended entry carry the same timestamp.
    entry = perf.make_entry(measurements, label=args.label, quick=args.quick)
    if args.fresh_out:
        perf.save_document(
            args.fresh_out, {"version": perf.BENCH_VERSION, "entries": [entry]}
        )

    if args.check:
        # Measurement-plane gauges: surfaced with the check, never gated.
        for line in perf.format_gauges(measurements):
            print(f"bench: gauges: {line}")
        problems = perf.check_regression(
            measurements, baseline, tolerance=tolerance, signals=args.check_signal
        )
        if problems:
            for problem in problems:
                print(f"bench: REGRESSION: {problem}", file=sys.stderr)
            return 3
        print(f"bench: no regression vs entry {baseline.get('date', '?')} "
              f"(tolerance {tolerance:.0%}, signals: {args.check_signal})")
        return 0

    if not args.no_save:
        perf.append_entry(out, entry)
        print(f"bench: appended entry {entry['date']} to {out}")
    return 0


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "scenarios":
        if args.doc:
            from repro.scenarios.registry import scenario_markdown

            print(scenario_markdown(), end="")
            return 0
        print(format_table(
            headers=["scenario", "description"],
            rows=[(name, scenario_description(name)) for name in scenario_names()],
            title="Named scenarios (use with 'speakup-repro sweep --scenario NAME')",
        ))
        return 0

    if args.command == "defenses":
        from repro.defenses import registry as defense_registry

        def _format_parameters(name: str) -> str:
            pairs = defense_registry.parameters(name)
            if not pairs:
                return "-"
            return ", ".join(
                f"{parameter}={default!r}" for parameter, default in pairs
            )

        print(format_table(
            headers=["defense", "description", "parameters (DefenseSpec kwargs)"],
            rows=[
                (name, defense_registry.create(name).describe(), _format_parameters(name))
                for name in defense_registry.names()
            ],
            title=(
                "Registered defenses (use with --defense, ScenarioSpec.defense, "
                "or DefenseSpec)"
            ),
        ))
        return 0

    if args.command == "adaptive":
        from repro.experiments.adaptive import adaptive_engagement, format_adaptive

        try:
            intervals = tuple(float(value) for value in args.intervals.split(","))
        except ValueError:
            raise ReproError(
                f"--intervals expects comma-separated seconds, got {args.intervals!r}"
            )
        print(format_adaptive(adaptive_engagement(_scale_from(args), intervals)))
        return 0

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "campaign":
        return _run_campaign(args)

    if args.command == "bench":
        return _run_bench(args)

    if args.command == "demo":
        result = quick_demo(
            good_clients=args.good,
            bad_clients=args.bad,
            capacity_rps=args.capacity,
            duration=args.duration,
            defense=args.defense,
            seed=args.seed,
        )
        print(format_table(
            headers=["metric", "value"],
            rows=[(key, value) for key, value in result.as_dict().items()],
            title=f"Demo: {args.good} good + {args.bad} bad clients, defense={args.defense}",
        ))
        return 0

    if args.command == "capacity":
        results = thinner_sink_capacity(duration_seconds=args.measure_seconds)
        print(format_table(
            headers=["chunk_bytes", "Mbits_per_s", "chunks_per_s"],
            rows=[(r.chunk_bytes, r.mbits_per_second, r.chunks_per_second) for r in results],
            title="Section 7.1 analogue: payment accounting sink rate (Python hot path)",
        ))
        return 0

    if args.command == "fleet":
        from repro.experiments.fleet import fleet_provisioning_curve, format_fleet

        try:
            shard_counts = tuple(int(n) for n in args.shards.split(","))
        except ValueError:
            raise ReproError(
                f"--shards expects comma-separated integers, got {args.shards!r}"
            )
        rows = fleet_provisioning_curve(
            _scale_from(args),
            shard_counts=shard_counts,
            shard_policy=args.policy,
            admission_mode=args.admission,
        )
        print(format_fleet(rows))
        return 0

    if args.command == "failover":
        from repro.experiments.failover import failover_pulse, format_failover

        plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
        outcome = failover_pulse(
            _scale_from(args),
            shards=args.shards,
            shard_policy=args.policy,
            admission_mode=args.admission,
            kill_shard=args.kill_shard,
            kill_at_s=args.kill_at,
            heal_at_s=args.heal_at,
            repin_ttl_s=args.repin_ttl,
            fault_plan=plan,
        )
        print(format_failover(outcome))
        return 0

    if args.command == "brownout":
        from repro.experiments.brownout import brownout_comparison, format_brownout

        outcome = brownout_comparison(
            _scale_from(args),
            shards=args.shards,
            shard_policy=args.policy,
            admission_mode=args.admission,
            loss_p=args.loss_p,
            stall_shard=args.stall_shard,
            start_at_s=args.start_at,
            end_at_s=args.end_at,
            probe_interval_s=args.probe_interval,
        )
        print(format_brownout(outcome))
        return 0

    if args.command == "fabric":
        from repro.core.routing import ROUTER_STRATEGY_NAMES
        from repro.experiments.fabric import fabric_strategy_comparison, format_fabric

        fabrics = tuple(name.strip() for name in args.fabrics.split(",") if name.strip())
        if args.strategies is None:
            strategies = ROUTER_STRATEGY_NAMES
        else:
            strategies = tuple(
                name.strip() for name in args.strategies.split(",") if name.strip()
            )
        rows = fabric_strategy_comparison(
            _scale_from(args),
            fabrics=fabrics,
            strategies=strategies,
            shards=args.shards,
            oversubscription=args.oversubscription,
            cross_traffic_pairs=args.cross_pairs,
            probe=args.probe,
            kill_shard=args.kill_shard,
            kill_at_s=args.kill_at,
            heal_at_s=args.heal_at,
        )
        print(format_fabric(rows))
        return 0

    scale = _scale_from(args)
    if args.command == "figure2":
        print(format_figure2(figure2_allocation(scale)))
    elif args.command == "figure3":
        print(format_figure3(figure3_provisioning(scale)))
    elif args.command == "costs":
        print(format_costs(figure4_5_costs(scale)))
    elif args.command == "figure6":
        print(format_categories(
            figure6_bandwidth_heterogeneity(scale), "bandwidth_Mbit",
            "Figure 6: allocation across bandwidth categories (all good clients)",
        ))
    elif args.command == "figure7":
        for client_class in ("good", "bad"):
            print(format_categories(
                figure7_rtt_heterogeneity(scale, client_class=client_class), "rtt_ms",
                f"Figure 7: allocation across RTT categories (all {client_class} clients)",
            ))
    elif args.command == "figure8":
        print(format_bottleneck(figure8_shared_bottleneck(scale)))
    elif args.command == "figure9":
        print(format_cross_traffic(figure9_cross_traffic(scale)))
    elif args.command == "advantage":
        outcome = empirical_adversarial_advantage(scale)
        print(format_table(
            headers=["metric", "value"],
            rows=[
                ("ideal capacity c_id (req/s)", outcome.ideal_capacity_rps),
                ("measured capacity (req/s)", outcome.measured_capacity_rps),
                ("adversarial advantage", outcome.advantage),
                ("served fraction at c_id", outcome.served_fraction_at_ideal),
            ],
            title="Section 7.4: empirical adversarial advantage (paper: 15%)",
        ))
    elif args.command == "windows":
        print(format_window_sweep(window_sweep(scale)))
    else:  # pragma: no cover - argparse enforces choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
