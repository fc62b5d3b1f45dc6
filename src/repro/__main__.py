"""Command-line entry: regenerate the paper's tables and figures.

Usage::

    python -m repro                     # everything (Figure 10/11 dominate)
    python -m repro fig1 fig8 tab2      # a subset
    python -m repro fig9 fig10 -j 8     # fan sweep points over 8 processes
    python -m repro --no-cache fig10    # force fresh simulation
    python -m repro fig8 --export-trace traces/   # Perfetto-loadable JSON

Results are cached on disk (``.repro-cache/`` by default, override with
``$REPRO_CACHE_DIR``) keyed by code version, configuration hash and sweep
point, so re-rendering an exhibit is free once its runs exist.

The ``validate`` subcommand runs the invariant-checking schedule fuzzer
instead of an exhibit (see :mod:`repro.validate`)::

    python -m repro validate                        # 100 seeds x 3 workloads
    python -m repro validate --seeds 25 --jobs 4    # quicker, parallel
    python -m repro validate --workloads jacobi --fail-fast --json out.json

The ``faults`` subcommand runs seeded fault-injection campaigns with the
go-back-N reliable transport armed (see :mod:`repro.faults`)::

    python -m repro faults                          # 25 seeds x 3 workloads
    python -m repro faults --seeds 10 --jobs 2      # CI smoke
    python -m repro faults --workloads allreduce --fail-fast --json out.json
    python -m repro faults --degraded               # goodput/p99 vs loss rate

The ``jobs`` subcommand is the resumable face of the same campaigns
(``validate``, ``faults``, ``topo``, ``congestion``): it journals every
completed point into a job store (``.repro-jobs/`` by default, override
with ``$REPRO_JOBS_DIR``), streams per-point progress, and survives
SIGINT/SIGTERM -- a preempted job resumes from the journal, re-running
only the points that never finished, and prints the same report, JSON
file and exit code as its submission (see :mod:`repro.service`)::

    python -m repro jobs submit validate --seeds 500 --jobs 8
    python -m repro jobs status                     # every stored job
    python -m repro jobs status <job-id>
    python -m repro jobs resume <job-id> --jobs 8 --json out.json

Every campaign subcommand shares the service flags ``--jobs``,
``--listen`` (open the job to ``python -m repro worker serve``),
``--fail-fast``, ``--cache-dir`` and ``--json``.

The ``congestion`` subcommand runs the under-load study: background
traffic (:mod:`repro.traffic`) fills finite switch queues
(:mod:`repro.net.queues`) while a foreground stream is timed per ARQ
transport and initiation strategy, with the packet-conservation and
exactly-once monitors armed at every point::

    python -m repro congestion                      # full acceptance grid
    python -m repro congestion --loads 0.5 --jobs 4
    python -m repro congestion --disciplines red-ecn --transports selective-repeat
    python -m repro jobs submit congestion --loads 0.2 0.8 --json out.json

The ``stats`` subcommand runs a workload with a
:class:`repro.metrics.MetricsRegistry` attached and prints the
per-component hardware breakdown -- FIFO depths, CU occupancy, per-link
bytes, latency histograms (see :mod:`repro.metrics`)::

    python -m repro stats                           # microbench, gputn
    python -m repro stats jacobi allreduce --strategy gds
    python -m repro stats degraded --json stats.json
    python -m repro stats microbench --export-trace traces/

The ``bench`` subcommand times the simulator itself -- raw engine event
throughput plus the standard workloads -- and writes ``BENCH_core.json``
(see :mod:`repro.bench`)::

    python -m repro bench                           # all workloads, 3 repeats
    python -m repro bench --repeat 1 --json         # CI smoke + report file
    python -m repro bench --workloads engine jacobi --json bench.json
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.analysis import (
    figure1_report,
    figure8_report,
    figure9_report,
    figure10_report,
    figure11_report,
    table1_report,
    table2_report,
    table3_report,
)
from repro.runtime import ResultCache

_EXHIBITS = {
    "tab1": ("Table 1", table1_report),
    "tab2": ("Table 2", table2_report),
    "tab3": ("Table 3", table3_report),
    "fig1": ("Figure 1", figure1_report),
    "fig8": ("Figure 8", figure8_report),
    "fig9": ("Figure 9", figure9_report),
    "fig10": ("Figure 10", figure10_report),
    "fig11": ("Figure 11", figure11_report),
}

#: Exhibits that run simulation sweeps (and so accept jobs / cache).
_SWEEPING = {"fig1", "fig9", "fig10", "fig11"}
#: Exhibits whose tracer timelines can be exported.
_TRACEABLE = {"fig8"}


# --------------------------------------------------------------- shared args
def add_jobs_arg(parser: argparse.ArgumentParser,
                 help: str = "worker processes (results identical to -j 1)"
                 ) -> None:
    """The one ``--jobs`` flag every sweeping subcommand shares."""
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help=help)


def check_jobs_arg(parser: argparse.ArgumentParser,
                   args: argparse.Namespace) -> None:
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")


def add_service_args(parser: argparse.ArgumentParser, noun: str, *,
                     submit: bool = True) -> None:
    """The service flags of every campaign subcommand and of ``jobs
    resume`` (which has no ``--fail-fast`` or ``--cache-dir``: a resumed
    job keeps the cache it was submitted with)."""
    add_jobs_arg(parser, help="local worker processes; 0 = remote-only, "
                              "with --listen (results identical to -j 1)")
    parser.add_argument("--listen", metavar="[HOST:]PORT", default=None,
                        help="open the job to remote workers at this "
                             "address (0 = ephemeral port); join with "
                             "`python -m repro worker serve --connect "
                             "HOST:PORT`")
    if submit:
        parser.add_argument("--fail-fast", action="store_true",
                            help=f"stop dispatching new {noun} after the "
                                 f"first failing one (in-flight {noun} "
                                 "still finish)")
        parser.add_argument("--cache-dir", metavar="DIR", default=None,
                            help=f"reuse {noun[:-1]} records across "
                                 "campaigns via a ResultCache at DIR "
                                 "(hit/miss tally lands in the summary and "
                                 "the --json report)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the full campaign report as JSON")


def check_service_args(parser: argparse.ArgumentParser,
                       args: argparse.Namespace) -> None:
    if args.jobs < 0:
        parser.error(f"--jobs must be >= 0, got {args.jobs}")
    if args.jobs == 0 and args.listen is None:
        parser.error("--jobs 0 is remote-only; it needs --listen so "
                     "workers can join")


def check_topology_specs(parser: argparse.ArgumentParser, specs,
                         node_counts) -> None:
    """Fail fast (exit 2, grammar in the message) on any bad topology
    spec or spec/size mismatch -- shared by ``topo`` and ``congestion``
    so neither campaign dies mid-sweep with a raw traceback."""
    from repro.net import make_topology

    for spec in specs:
        for n in node_counts:
            try:
                make_topology(spec, n)
            except ValueError as err:
                parser.error(f"topology {spec!r} at {n} nodes: {err}")


def _source_tag(event) -> str:
    return "" if event.source == "run" else f" [{event.source}]"


# ------------------------------------------------------------------- studies
class _Study:
    """One campaign subcommand.

    :func:`_study_main` owns the service flags, the preemption exit, the
    JSON, cache and tally lines and the exit code.  A study supplies its
    axis flags (named after its driver's parameters) and their checks,
    its progress line and its table.
    """

    #: Module holding the study's ``driver`` function and ``report`` class.
    module = driver = report = ""
    #: ``JobSpec.experiment`` of the study's jobs (``jobs resume`` finds
    #: the study by it).
    experiment = ""
    #: What the summary lines call one point, and a passing one.
    noun, verdict = "points", "clean"
    description = ""

    def load(self, name: str):
        import importlib

        return getattr(importlib.import_module(self.module), name)

    def check(self, parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> None:
        pass

    def shortcut(self, args: argparse.Namespace):
        """An exit code when the flags ask for something other than the
        campaign, else ``None``."""
        return None

    def tally(self, report) -> int:
        failed = len(report.failures)
        print(f"\n{report.total - failed}/{report.total} {self.noun} "
              f"{self.verdict}" + (f", {failed} FAILED" if failed else ""))
        return 0 if report.ok else 1


class _SeededStudy(_Study):
    """``validate`` and ``faults``: seeded cases of named workloads."""

    noun = "cases"

    def __init__(self, kind: str, module: str, driver: str, report: str,
                 workloads: str, seeds_default: int, description: str):
        self.experiment = kind
        self.module, self.driver, self.report = module, driver, report
        self.workloads = workloads
        self.seeds_default = seeds_default
        self.description = description

    def add_args(self, parser: argparse.ArgumentParser) -> None:
        workloads = list(self.load(self.workloads))
        parser.add_argument("--seeds", type=int, default=self.seeds_default,
                            metavar="N", help="cases per workload (default: "
                                              f"{self.seeds_default})")
        parser.add_argument("--seed-start", type=int, default=0, metavar="S",
                            help="first seed of the range (default: 0)")
        parser.add_argument("--workloads", nargs="+", choices=workloads,
                            default=workloads, metavar="W",
                            help=f"subset of {workloads} (default: all)")
        if self.experiment == "faults":
            parser.add_argument("--degraded", action="store_true",
                                help="instead of a campaign, run the "
                                     "degraded-mode study: goodput and "
                                     "p50/p99 latency per strategy across "
                                     "loss rates")

    def check(self, parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> None:
        if args.seeds < 1:
            parser.error(f"--seeds must be >= 1, got {args.seeds}")

    def shortcut(self, args: argparse.Namespace):
        if getattr(args, "degraded", False):
            from repro.apps.degraded import degraded_report

            degraded_report(jobs=args.jobs)
            return 0
        return None

    def progress(self, event) -> None:
        m = event.record.metrics
        print(f"[{event.done}/{event.total}] {m['workload']} "
              f"seed={m['seed']} {'ok' if m['ok'] else 'FAIL'}"
              f"{_source_tag(event)}", flush=True)

    def render(self, report) -> None:
        kind = self.experiment
        for workload, (passed, total) in sorted(report.by_workload().items()):
            marker = "ok  " if passed == total else "FAIL"
            print(f"{marker} {workload:<12} {passed}/{total} cases clean")
        if kind == "faults" and report.gave_up:
            print(f"note: {len(report.gave_up)} case(s) exhausted the retry "
                  "budget and died cleanly with TransportError (still a "
                  "pass)")
        scenario_key = "knobs" if kind == "validate" else "faults"
        for record in report.failures:
            m = record.metrics
            print(f"\nFAIL {m['workload']} seed={m['seed']} "
                  f"params={m['inner_params']} {scenario_key}="
                  f"{m[scenario_key]}")
            if m["violation"]:
                v = m["violation"]
                print(f"  [{v['invariant']}] {v['message']}")
                for line in v.get("context", ()):
                    print(f"    {line}")
            if m["crash"]:
                print(f"  crash: {m['crash']}")
            print(f"  replay: python -m repro {kind} --workloads "
                  f"{m['workload']} --seeds 1 --seed-start {m['seed']}")


def _strategies(report):
    """Strategies in the order the campaign's points list them."""
    return list(dict.fromkeys(r.params["strategy"] for r in report.records))


class _TopoStudy(_Study):
    module = "repro.apps.topo_scale"
    driver, report = "run_topo_campaign", "TopoScaleReport"
    experiment = "collective-zoo"
    verdict = "verified"
    description = ("Scale-out study: run the collective schedule zoo "
                   "across datacenter topologies and node counts, "
                   "verifying every point against the NumPy schedule "
                   "oracle and reporting GPU-TN speedup over GDS/HDN.")

    def add_args(self, parser: argparse.ArgumentParser) -> None:
        from repro.apps.topo_scale import (TOPO_SCHEDULES, TOPO_STRATEGIES,
                                           TOPO_TOPOLOGIES)
        from repro.collectives.algorithms import SCHEDULE_BUILDERS

        parser.add_argument("--topologies", nargs="+", metavar="T",
                            default=list(TOPO_TOPOLOGIES),
                            help="topology spec strings, e.g. star "
                                 "fat-tree:k=4 torus:8x8 dragonfly "
                                 f"(default: {list(TOPO_TOPOLOGIES)})")
        parser.add_argument("--schedules", nargs="+", metavar="S",
                            choices=sorted(SCHEDULE_BUILDERS),
                            default=list(TOPO_SCHEDULES),
                            help=f"subset of {sorted(SCHEDULE_BUILDERS)} "
                                 "(default: all)")
        parser.add_argument("--strategies", nargs="+", metavar="B",
                            choices=["cpu", "hdn", "gds", "gputn"],
                            default=list(TOPO_STRATEGIES),
                            help="backends to compare (default: gputn gds "
                                 "hdn)")
        parser.add_argument("--nodes", nargs="+", type=int, default=[16, 64],
                            dest="node_counts", metavar="N",
                            help="node counts (default: 16 64)")
        parser.add_argument("--nbytes", type=int, default=64 * 1024,
                            metavar="B",
                            help="payload bytes, padded to whole float32 "
                                 "chunks (default: 65536)")
        parser.add_argument("--seed", type=int, default=11,
                            help="data seed (default: 11)")

    def check(self, parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> None:
        if any(n < 2 for n in args.node_counts):
            parser.error("--nodes entries must be >= 2")
        check_topology_specs(parser, args.topologies, args.node_counts)

    def progress(self, event) -> None:
        p, m = event.record.params, event.record.metrics
        print(f"[{event.done}/{event.total}] {p['topology']} {p['schedule']} "
              f"{p['strategy']} n={p['n_nodes']} {m['total_ns']}ns "
              f"{'ok' if m['correct'] else 'FAIL'}{_source_tag(event)}",
              flush=True)

    def render(self, report) -> None:
        strategies = _strategies(report)
        cases = report.by_case()
        speedups = report.speedups()
        print(f"{'topology':<16} {'schedule':<20} {'n':>4}  "
              + "".join(f"{s:>12}" for s in strategies)
              + "  gputn speedup")
        for key in sorted(cases):
            topo, sched, n = key
            times = cases[key]
            cols = "".join(f"{times.get(s, '-'):>12}" for s in strategies)
            sp = speedups.get(key, {})
            sp_txt = " ".join(f"{s}:{v:.2f}x" for s, v in sorted(sp.items()))
            print(f"{topo:<16} {sched:<20} {n:>4}  {cols}  {sp_txt}")
        for r in report.failures:
            p = r.params
            print(f"\nFAIL {p['topology']} {p['schedule']} {p['strategy']} "
                  f"n={p['n_nodes']}: result diverged from the NumPy oracle")


class _CongestionStudy(_Study):
    module = "repro.apps.congestion"
    driver, report = "run_congestion_campaign", "CongestionReport"
    experiment = "congestion"
    description = ("Under-load study: sweep background load x switch-queue "
                   "discipline x ARQ transport x initiation strategy on a "
                   "congested fat tree, reporting foreground goodput and "
                   "p50/p99 latency with the packet-conservation and "
                   "exactly-once monitors armed at every point.")

    def add_args(self, parser: argparse.ArgumentParser) -> None:
        from repro.apps.congestion import (CONGESTION_DISCIPLINES,
                                           CONGESTION_LOADS,
                                           CONGESTION_STRATEGIES,
                                           CONGESTION_TRANSPORTS)

        parser.add_argument("--loads", nargs="+", type=float, metavar="L",
                            default=list(CONGESTION_LOADS),
                            help="background load per node as a fraction "
                                 "of link rate (default: "
                                 f"{list(CONGESTION_LOADS)})")
        parser.add_argument("--disciplines", nargs="+", metavar="D",
                            choices=["drop-tail", "red", "red-ecn", "none"],
                            default=list(CONGESTION_DISCIPLINES),
                            help="switch-queue disciplines (default: "
                                 f"{list(CONGESTION_DISCIPLINES)})")
        parser.add_argument("--transports", nargs="+", metavar="T",
                            choices=["go-back-n", "selective-repeat"],
                            default=list(CONGESTION_TRANSPORTS),
                            help="ARQ engines (selective-repeat pairs with "
                                 "AIMD pacing; default: "
                                 f"{list(CONGESTION_TRANSPORTS)})")
        parser.add_argument("--strategies", nargs="+", metavar="B",
                            choices=["hdn", "gds", "gputn"],
                            default=list(CONGESTION_STRATEGIES),
                            help="initiation strategies to compare "
                                 f"(default: {list(CONGESTION_STRATEGIES)})")
        parser.add_argument("--topology", default="fat-tree:k=4",
                            metavar="SPEC",
                            help="topology spec string (default: "
                                 "fat-tree:k=4)")
        parser.add_argument("--nodes", type=int, default=16, dest="n_nodes",
                            metavar="N", help="cluster size (default: 16)")
        parser.add_argument("--messages", type=int, default=32, metavar="M",
                            help="foreground messages per point (default: "
                                 "32)")
        parser.add_argument("--nbytes", type=int, default=1024, metavar="B",
                            help="foreground message size (default: 1024)")
        parser.add_argument("--bg-horizon-ns", type=int, default=120_000,
                            metavar="NS",
                            help="background-traffic generation horizon "
                                 "(default: 120000)")
        parser.add_argument("--seed", type=int, default=0,
                            help="traffic/RED seed (default: 0)")

    def check(self, parser: argparse.ArgumentParser,
              args: argparse.Namespace) -> None:
        if args.n_nodes < 2:
            parser.error(f"--nodes must be >= 2, got {args.n_nodes}")
        if args.messages < 1:
            parser.error(f"--messages must be >= 1, got {args.messages}")
        if any(load < 0 for load in args.loads):
            parser.error("--loads entries must be >= 0")
        check_topology_specs(parser, [args.topology], [args.n_nodes])

    def progress(self, event) -> None:
        p, m = event.record.params, event.record.metrics
        print(f"[{event.done}/{event.total}] load={p['load']} "
              f"{p['discipline']} {p['transport']} {p['strategy']} "
              f"p99={m['p99_latency_ns']}ns {'ok' if m['ok'] else 'FAIL'}"
              f"{_source_tag(event)}", flush=True)

    def render(self, report) -> None:
        strategies = _strategies(report)
        cases = report.by_case()
        print(f"{'load':>5} {'discipline':<11} {'transport':<17}  "
              + "".join(f"{s + ' p99':>13}" for s in strategies)
              + "  goodput(B/us)")
        for key in sorted(cases):
            load, disc, transport = key
            per_strategy = cases[key]
            cols = "".join(
                f"{per_strategy[s]['p99_latency_ns'] if s in per_strategy else '-':>13}"
                for s in strategies)
            good = " ".join(
                f"{s}:{m['goodput_bytes_per_us']}"
                for s, m in sorted(per_strategy.items()))
            print(f"{load:>5} {disc:<11} {transport:<17}  {cols}  {good}")
        for r in report.failures:
            p, m = r.params, r.metrics
            why = ("gave up" if m["gave_up"] else
                   "; ".join(v["invariant"] for v in m["violations"])
                   or f"delivered {m['delivered']}/{m['requested']}")
            print(f"\nFAIL load={p['load']} {p['discipline']} "
                  f"{p['transport']} {p['strategy']}: {why}")


class _PlainJob(_Study):
    """What ``jobs resume`` does for a job no study owns (a bench run or
    a plain sweep): run it and count its points."""

    module, report = "repro.service", "CampaignReport"

    def __init__(self, total: int):
        self.total = total

    def progress(self, event) -> None:
        print(f"[{event.done}/{event.total}] {event.record.experiment}"
              f"[{event.index}] done{_source_tag(event)}", flush=True)

    def render(self, report) -> None:
        pass

    def tally(self, report) -> int:
        print(f"{report.total}/{self.total} points complete")
        return 0


#: Campaign subcommand -> study.
_STUDIES = {
    "validate": _SeededStudy(
        "validate", "repro.validate.fuzz", "run_campaign", "FuzzReport",
        "FUZZ_WORKLOADS", 100,
        "Fuzz event schedules and timing knobs over the paper's "
        "workloads with every DESIGN.md §6 invariant monitor armed.  "
        "Any failure replays from its (workload, seed) pair alone."),
    "faults": _SeededStudy(
        "faults", "repro.faults.campaign", "run_faults_campaign",
        "FaultsReport", "FAULT_WORKLOADS", 25,
        "Run seeded fault-injection campaigns: per-seed "
        "drop/corruption/jitter/flap/stall scenarios on the fabric, the "
        "go-back-N reliable transport armed on every NIC, and all "
        "invariant monitors (including reliable-delivery) watching.  "
        "Any failure replays from its (workload, seed) pair alone."),
    "topo": _TopoStudy(),
    "congestion": _CongestionStudy(),
}


def _finish(study: _Study, run, json_path=None) -> int:
    """Run a campaign (``run()`` returns its report) and print it."""
    from repro.service import JobPreempted

    try:
        report = run()
    except JobPreempted as preempt:
        print(f"\npreempted at {preempt.done}/{preempt.total} {study.noun}; "
              f"resume with: python -m repro jobs resume {preempt.job_id}",
              flush=True)
        return 130
    study.render(report)
    if json_path:
        import json

        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"\nreport written to {json_path}")
    if report.cache_stats is not None:
        print(f"\ncache: {report.cache_stats['hits']} hits, "
              f"{report.cache_stats['misses']} misses")
    return study.tally(report)


_STORE_HELP = "job store root (default: .repro-jobs, or $REPRO_JOBS_DIR)"


def _study_main(name: str, argv, echo: bool = False, submit: bool = False,
                store_dir=None) -> int:
    """Run study ``name`` from its flags; ``submit`` runs it as a
    journaled job in the ``store_dir`` job store (``jobs submit``)."""
    study = _STUDIES[name]
    prog = "python -m repro jobs submit" if submit else "python -m repro"
    parser = argparse.ArgumentParser(prog=f"{prog} {name}",
                                     description=study.description)
    study.add_args(parser)
    add_service_args(parser, study.noun)
    if submit:
        # `jobs submit` has read --store already; declaring it again
        # lists it in the study's help.
        parser.add_argument("--store", dest="job_store", metavar="DIR",
                            default=store_dir, help=_STORE_HELP)
    args = parser.parse_args(argv)
    check_service_args(parser, args)
    study.check(parser, args)
    code = study.shortcut(args)
    if code is not None:
        return code
    # The axis flags are named after the driver's parameters.
    driver = study.load(study.driver)
    params = inspect.signature(driver).parameters
    axes = {k: v for k, v in vars(args).items() if k in params}
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    store = None
    if submit:
        from repro.service import JobStore

        store = JobStore(args.job_store)
    return _finish(study, lambda: driver(
        **axes, cache=cache, store=store,
        progress=study.progress if echo else None), args.json)


# ---------------------------------------------------------------------- jobs
def _jobs_main(argv) -> int:
    from repro.service import Job, JobStore, run_job

    commands = ("submit", "status", "list", "resume", "cancel")
    if not argv or argv[0] not in commands:
        print(f"usage: python -m repro jobs {{{','.join(commands)}}} ...\n"
              f"  submit {{{','.join(_STUDIES)}}} [--store DIR] "
              "[campaign args]\n"
              "  status [JOB_ID] [--store DIR] [--json]\n"
              "  resume JOB_ID [--store DIR] [-j N] [--listen ADDR] "
              "[--json FILE]\n"
              "  cancel JOB_ID [--store DIR]",
              file=sys.stderr)
        return 2
    command, rest = argv[0], argv[1:]

    if command == "cancel":
        parser = argparse.ArgumentParser(
            prog="python -m repro jobs cancel",
            description="Journal a cancel request: a running job stops "
                        "dispatching new points within one poll interval "
                        "(in-flight points finish and stay journaled); a "
                        "job that is not running is marked cancelled.")
        parser.add_argument("job_id")
        parser.add_argument("--store", metavar="DIR", default=None)
        args = parser.parse_args(rest)
        store = JobStore(args.store)
        try:
            status = store.request_cancel(args.job_id)
        except KeyError as missing:
            print(missing.args[0], file=sys.stderr)
            return 1
        print(f"job {args.job_id} {status}")
        return 0

    if command == "submit":
        # Once a study is named, -h/--help belongs to the study's parser,
        # which lists its axis and service flags.
        parser = argparse.ArgumentParser(
            prog="python -m repro jobs submit",
            description="Submit a journaled campaign job and run it; every "
                        "completed case lands in the job store, so a killed "
                        "or preempted campaign resumes from where it "
                        "stopped.",
            add_help=not _STUDIES.keys() & set(rest))
        parser.add_argument("kind", choices=list(_STUDIES))
        parser.add_argument("--store", metavar="DIR", default=None,
                            help=_STORE_HELP)
        args, campaign_argv = parser.parse_known_args(rest)
        return _study_main(args.kind, campaign_argv, echo=True, submit=True,
                           store_dir=args.store)

    if command in ("status", "list"):
        parser = argparse.ArgumentParser(
            prog=f"python -m repro jobs {command}",
            description="Show stored jobs (or one job's detail).")
        parser.add_argument("job_id", nargs="?", default=None)
        parser.add_argument("--store", metavar="DIR", default=None)
        parser.add_argument("--json", action="store_true",
                            help="machine-readable output")
        args = parser.parse_args(rest)
        store = JobStore(args.store)
        job_ids = [args.job_id] if args.job_id else store.jobs()
        try:
            rows = [Job.load(store, job_id).status() for job_id in job_ids]
        except KeyError as missing:
            print(missing.args[0], file=sys.stderr)
            return 1
        if args.json:
            import json

            print(json.dumps(rows, indent=2, sort_keys=True))
        elif not rows:
            print(f"no jobs in {store.root}")
        else:
            for row in rows:
                sources = row.get("sources") or {}
                breakdown = ", ".join(
                    f"{sources[k]} {label}"
                    for k, label in (("run", "recomputed"),
                                     ("cache", "cached"),
                                     ("journal", "journaled"))
                    if sources.get(k))
                print(f"{row['job_id']}  {row['status']:<10} "
                      f"{row.get('journaled', 0)}/{row['total']} journaled  "
                      f"{row['experiment']}"
                      + (f"  [{breakdown}]" if breakdown else ""))
        return 0

    # resume
    parser = argparse.ArgumentParser(
        prog="python -m repro jobs resume",
        description="Continue a stored job: journaled points replay for "
                    "free, only the holes execute, and the job's study "
                    "prints the same report (and --json file and exit "
                    "code) as its submission.")
    parser.add_argument("job_id")
    parser.add_argument("--store", metavar="DIR", default=None)
    add_service_args(parser, "points", submit=False)
    args = parser.parse_args(rest)
    check_service_args(parser, args)
    store = JobStore(args.store)
    try:
        job = Job.load(store, args.job_id)
    except KeyError as missing:
        print(missing.args[0], file=sys.stderr)
        return 1
    study = next((s for s in _STUDIES.values()
                  if s.experiment == job.spec.experiment), None)
    if study is None:
        if args.json:
            parser.error(f"job {job.id} ({job.spec.experiment}) is not a "
                         f"campaign of {list(_STUDIES)}; it has no report "
                         "for --json")
        study = _PlainJob(len(job.spec.points))

    def run():
        report = run_job(job, report=study.load(study.report), jobs=args.jobs,
                         progress=study.progress, listen=args.listen)
        print(f"\njob {job.id} {job.status()['status']}: "
              f"{job.stats['journal']} journaled, {job.stats['cache']} "
              f"cached, {job.stats['run']} ran")
        return report
    return _finish(study, run, args.json)


# --------------------------------------------------------------------- worker
def _worker_cli(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description="Serve this machine's cycles to a listening job: "
                    "connect to a dispatcher (a campaign started with "
                    "--listen), handshake, and run (index, point) tasks "
                    "until the job finishes.  Stale workers -- code or "
                    "protocol version mismatch -- are rejected "
                    "deterministically at the handshake.")
    parser.add_argument("verb", choices=["serve"])
    parser.add_argument("--connect", metavar="HOST:PORT", required=True,
                        help="dispatcher address printed by the submitting "
                             "process")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="shared-filesystem job store: when the job's "
                             "spec is present here, the payload is loaded "
                             "from disk instead of shipped over the wire")
    parser.add_argument("--retry", type=float, default=30.0, metavar="S",
                        help="keep retrying the connection for S seconds "
                             "when the dispatcher is unreachable "
                             "(default: 30)")
    parser.add_argument("--once", action="store_true",
                        help="serve one connection then exit instead of "
                             "reconnecting until the job's final stop")
    args = parser.parse_args(argv)
    if args.retry < 0:
        parser.error(f"--retry must be >= 0, got {args.retry}")
    from repro.service.remote import serve_worker

    def log(message: str) -> None:
        print(f"[worker] {message}", flush=True)

    return serve_worker(args.connect, store=args.store, retry_s=args.retry,
                        once=args.once, log=log)


def _stats_workloads():
    """Workload name -> (experiment factory, stats-sized param overlay).

    Overlays shrink the heavyweight defaults (e.g. the 8 MiB Figure 10
    allreduce) to something a smoke run finishes in seconds; ``strategy``
    is merged in from the command line.
    """
    from repro.apps.degraded import DegradedExperiment
    from repro.apps.jacobi import JacobiExperiment
    from repro.apps.microbench import MicrobenchExperiment
    from repro.collectives import AllreduceExperiment

    return {
        "microbench": (MicrobenchExperiment, {}),
        "jacobi": (JacobiExperiment, {}),
        "allreduce": (AllreduceExperiment, {"nbytes": 256 * 1024}),
        "degraded": (DegradedExperiment, {"loss": 0.02}),
    }


def _print_stats(name: str, telemetry) -> None:
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
    for key, value in sorted(telemetry.get("counters", {}).items()):
        print(f"  counter    {key:<44} {value}")
    for key, g in sorted(telemetry.get("gauges", {}).items()):
        print(f"  gauge      {key:<44} last={g['value']} "
              f"min={g['min']} max={g['max']}")
    for key, h in sorted(telemetry.get("histograms", {}).items()):
        print(f"  histogram  {key:<44} n={h['count']} p50={h['p50']} "
              f"p99={h['p99']} max={h['max']}")
    for key, s in sorted(telemetry.get("series", {}).items()):
        print(f"  series     {key:<44} observed={s['observed']} "
              f"min={s['min']} max={s['max']} last={s['last']}")


def _bench_main(argv) -> int:
    from repro.bench import (DEFAULT_REPORT_PATH, WORKLOADS,
                             compare_to_baseline, run_bench)

    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Time the standard workloads (raw engine stress, "
                    "Figure 8 microbench, Jacobi, ring allreduce, "
                    "reliable transport) and report events/sec, wall "
                    "time (raw and corrected for host speed) and peak "
                    "RSS -- the measured standard engine optimizations "
                    "are held to.")
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                        default=list(WORKLOADS), metavar="W",
                        help=f"subset of {list(WORKLOADS)} (default: all)")
    parser.add_argument("--repeat", type=int, default=3, metavar="N",
                        help="timed runs per workload; best wall time is "
                             "reported (default: 3)")
    parser.add_argument("--json", metavar="FILE", nargs="?", default=None,
                        const=DEFAULT_REPORT_PATH,
                        help="write the report as JSON (default file: "
                             f"{DEFAULT_REPORT_PATH})")
    parser.add_argument("--baseline", metavar="FILE", default=None,
                        help="regression gate: exit 1 if any shared "
                             "workload's best wall time, corrected for "
                             "host speed, is more than --max-drop slower "
                             "than in this BENCH_core.json")
    parser.add_argument("--max-drop", type=float, default=0.20,
                        metavar="FRAC",
                        help="allowed fractional speed drop vs --baseline "
                             "(default: 0.20)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if not 0 < args.max_drop < 1:
        parser.error(f"--max-drop must be in (0, 1), got {args.max_drop}")
    baseline = None
    if args.baseline is not None:
        import json

        try:
            with open(args.baseline, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as err:
            parser.error(f"--baseline {args.baseline}: {err}")

    report = run_bench(workloads=args.workloads, repeat=args.repeat)
    if args.json:
        path = report.write(args.json)
        print(f"report written to {path}")
    if baseline is not None:
        failures = compare_to_baseline(report, baseline,
                                       max_drop=args.max_drop)
        if failures:
            for line in failures:
                print(f"REGRESSION {line}", file=sys.stderr)
            return 1
        print(f"baseline gate ok (allowed drop: {args.max_drop:.0%})")
    return 0


def _stats_main(argv) -> int:
    from repro.metrics import MetricsRegistry
    from repro.runtime import Observers
    from repro.runtime.traceexport import export_chrome_trace

    workloads = _stats_workloads()
    parser = argparse.ArgumentParser(
        prog="python -m repro stats",
        description="Run a workload with the repro.metrics observability "
                    "layer attached and print the per-component hardware "
                    "breakdown: doorbell-FIFO depth, CU occupancy, "
                    "per-link bytes, trigger-list activity and latency "
                    "histograms.")
    parser.add_argument("workloads", nargs="*", choices=[*workloads, []],
                        help=f"subset of {list(workloads)} "
                             "(default: microbench)")
    parser.add_argument("--strategy", default="gputn",
                        choices=["gputn", "gds", "hdn"],
                        help="initiation strategy (default: gputn)")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write params + metrics + telemetry per "
                             "workload as JSON")
    parser.add_argument("--export-trace", metavar="DIR", default=None,
                        help="run traced and write Perfetto JSON (spans "
                             "plus metric counter tracks) into DIR")
    args = parser.parse_args(argv)

    doc = {}
    for pick in (args.workloads or ["microbench"]):
        factory, overlay = workloads[pick]
        params = dict(overlay, strategy=args.strategy)
        registry = MetricsRegistry()
        execution = factory().execute(
            params, trace=True if args.export_trace else None,
            observers=Observers(metrics=registry))
        record = execution.record
        _print_stats(f"{pick} ({args.strategy})", record.telemetry)
        doc[pick] = {"params": record.params, "metrics": record.metrics,
                     "telemetry": record.telemetry}
        if args.export_trace:
            path = export_chrome_trace(
                execution.cluster.tracer,
                f"{args.export_trace}/{pick}-{args.strategy}.json",
                metrics=registry)
            print(f"  trace written to {path}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"\nstats written to {args.json}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] in (["validate"], ["faults"]):
        return _study_main(argv[0], argv[1:])
    if argv[:1] in (["topo"], ["congestion"]):
        return _study_main(argv[0], argv[1:], echo=True)
    if argv[:1] == ["jobs"]:
        return _jobs_main(argv[1:])
    if argv[:1] == ["worker"]:
        return _worker_cli(argv[1:])
    if argv[:1] == ["stats"]:
        return _stats_main(argv[1:])
    if argv[:1] == ["bench"]:
        return _bench_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate exhibits from 'GPU Triggered Networking for "
                    "Intra-Kernel Communications' (SC17).")
    parser.add_argument("exhibits", nargs="*", choices=[*_EXHIBITS, []],
                        help=f"subset to run (default: all of {list(_EXHIBITS)})")
    add_jobs_arg(parser, help="fan sweep points out over N worker processes "
                              "(results are bit-identical to -j 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the on-disk result cache")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="result cache location (default: .repro-cache, "
                             "or $REPRO_CACHE_DIR)")
    parser.add_argument("--export-trace", metavar="DIR", default=None,
                        help="write Chrome trace-event JSON for traceable "
                             "exhibits (fig8) into DIR")
    args = parser.parse_args(argv)
    check_jobs_arg(parser, args)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    picks = args.exhibits or list(_EXHIBITS)
    if args.export_trace and not _TRACEABLE & set(picks):
        print(f"warning: --export-trace has no effect; none of {picks} is "
              f"traceable (traceable: {sorted(_TRACEABLE)})", file=sys.stderr)
    for key in picks:
        name, fn = _EXHIBITS[key]
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        kwargs = {}
        if key in _SWEEPING:
            kwargs["jobs"] = args.jobs
            kwargs["cache"] = cache
        if key in _TRACEABLE and args.export_trace:
            kwargs["export_dir"] = args.export_trace
        fn(**kwargs)
    if cache is not None and (cache.hits or cache.misses):
        # stderr: exhibit stdout must stay byte-identical across cached
        # and uncached reruns.
        print(f"cache: {cache.hits} hits, {cache.misses} misses",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
