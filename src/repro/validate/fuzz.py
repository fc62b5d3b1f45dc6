"""Deterministic schedule fuzzing over the paper's workloads.

The paper's relaxed-synchronization claim (§3.2) is an *ordering*
property: it must hold for every legal interleaving of CPU registration,
GPU trigger writes and NIC processing, not just the one the default
timing constants produce.  The fuzzer explores that space directly:

* every seed maps -- via :class:`~repro.sim.rng.RandomStreams`, so the
  mapping is process- and platform-stable -- to one **knob vector**
  (doorbell/command/DMA/completion latencies, link/switch latencies,
  kernel launch/teardown costs, CPU-post-vs-GPU-trigger delay) plus a
  **tie-break seed** that perturbs the ordering of same-time,
  same-priority events inside the engine;
* the workload (microbench ping, Jacobi halo exchange, ring Allreduce)
  runs under that schedule with every :mod:`repro.validate.monitors`
  invariant monitor armed;
* the outcome is a normal :class:`~repro.runtime.record.RunRecord`, so
  campaigns fan out over the existing :class:`~repro.runtime.sweep.Sweep`
  process pool (``--jobs``) and any failure is replayable from its
  ``(workload, seed)`` point alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.runtime.experiment import Experiment
from repro.service import campaign
from repro.sim.rng import RandomStreams
from repro.validate.monitors import attach_monitors
from repro.validate.violations import InvariantViolation

__all__ = [
    "FUZZ_WORKLOADS",
    "FuzzCase",
    "FuzzReport",
    "ValidateExperiment",
    "apply_knobs",
    "fuzz_case",
    "run_campaign",
]

#: Workloads a fuzz campaign can drive, in default order.
FUZZ_WORKLOADS: Tuple[str, ...] = ("microbench", "jacobi", "allreduce")


@dataclass(frozen=True)
class FuzzCase:
    """Everything one seed determines: the replay unit of a campaign."""

    workload: str
    seed: int
    inner_params: Dict[str, Any]
    knobs: Dict[str, int]
    tiebreak_seed: int


def _workload_experiment(workload: str) -> Experiment:
    # Imported lazily: the apps import repro.runtime which must not
    # circularly import repro.validate at module load.
    if workload == "microbench":
        from repro.apps.microbench import MicrobenchExperiment
        return MicrobenchExperiment()
    if workload == "jacobi":
        from repro.apps.jacobi import JacobiExperiment
        return JacobiExperiment()
    if workload == "allreduce":
        from repro.collectives import AllreduceExperiment
        return AllreduceExperiment()
    raise KeyError(f"unknown fuzz workload {workload!r}; "
                   f"choose from {list(FUZZ_WORKLOADS)}")


def fuzz_case(workload: str, seed: int) -> FuzzCase:
    """The deterministic ``seed -> (knob vector, workload params)`` map."""
    _workload_experiment(workload)  # validate the name early
    rng = RandomStreams(seed).stream(f"validate.{workload}")
    knobs = {
        "doorbell_mmio_ns": int(rng.integers(25, 400)),
        "command_process_ns": int(rng.integers(20, 300)),
        "dma_setup_ns": int(rng.integers(20, 300)),
        "completion_write_ns": int(rng.integers(20, 300)),
        "link_latency_ns": int(rng.integers(20, 300)),
        "switch_latency_ns": int(rng.integers(20, 300)),
        "launch_ns": int(rng.integers(200, 4000)),
        "teardown_ns": int(rng.integers(200, 4000)),
    }
    tiebreak_seed = int(rng.integers(0, 2**31))

    if workload == "microbench":
        # GPU-TN is over-weighted: its trigger path is what §3.2 is about.
        strategy = str(rng.choice(["cpu", "hdn", "gds", "gputn", "gputn"]))
        inner: Dict[str, Any] = {
            "strategy": strategy,
            "nbytes": int(rng.choice([1, 32, 64, 256, 1024, 4096])),
            "overlap_post": False,
            "post_delay_ns": 0,
        }
        if strategy == "gputn":
            # The CPU-post-vs-GPU-trigger race: post after launch, with a
            # fuzzed delay, exercising the placeholder path of §3.2.
            inner["overlap_post"] = bool(rng.integers(0, 2))
            if inner["overlap_post"]:
                inner["post_delay_ns"] = int(rng.integers(0, 4000))
    elif workload == "jacobi":
        px, py = (int(v) for v in rng.choice([(2, 1), (1, 2), (2, 2)]))
        inner = {
            "strategy": str(rng.choice(["cpu", "hdn", "gds", "gputn",
                                        "gputn-overlap", "gputn-persistent"])),
            "n": int(rng.choice([8, 16, 24])),
            "px": px, "py": py,
            # iters >= 3 reaches the GPU-TN re-arm window's free path.
            "iters": int(rng.integers(1, 5)),
            "seed": int(rng.integers(0, 1000)),
        }
    else:  # allreduce
        inner = {
            "strategy": str(rng.choice(["cpu", "hdn", "gds", "gputn"])),
            "n_nodes": int(rng.integers(2, 5)),
            "nbytes": int(rng.choice([256, 1024, 4096, 16384])),
            "seed": int(rng.integers(0, 1000)),
        }
    return FuzzCase(workload=workload, seed=seed, inner_params=inner,
                    knobs=knobs, tiebreak_seed=tiebreak_seed)


def apply_knobs(config: SystemConfig, knobs: Dict[str, int]) -> SystemConfig:
    """Overlay one knob vector onto a base :class:`SystemConfig`."""
    return config.with_(
        nic=replace(config.nic,
                    doorbell_mmio_ns=knobs["doorbell_mmio_ns"],
                    command_process_ns=knobs["command_process_ns"],
                    dma_setup_ns=knobs["dma_setup_ns"],
                    completion_write_ns=knobs["completion_write_ns"]),
        network=replace(config.network,
                        link_latency_ns=knobs["link_latency_ns"],
                        switch_latency_ns=knobs["switch_latency_ns"]),
        kernel=replace(config.kernel,
                       launch_ns=knobs["launch_ns"],
                       teardown_ns=knobs["teardown_ns"]),
    )


class ValidateExperiment(Experiment):
    """One fuzz case as a runtime experiment.

    Parameters are just ``{"workload", "seed"}`` -- everything else is
    derived deterministically by :func:`fuzz_case` -- so campaigns are
    ordinary :class:`~repro.runtime.sweep.Sweep` grids and parallel runs
    are byte-identical to serial ones.
    """

    name = "validate"
    defaults = {"workload": "microbench", "seed": 0}

    def configure(self, params: Dict[str, Any],
                  config: SystemConfig) -> SystemConfig:
        case = fuzz_case(params["workload"], params["seed"])
        return apply_knobs(config, case.knobs)

    def trace_default(self, params: Dict[str, Any]) -> bool:
        # Violations snapshot the tracer tail as context; the fuzz
        # workloads are small enough that tracing is cheap.
        return True

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool):
        case = fuzz_case(params["workload"], params["seed"])
        inner = _workload_experiment(case.workload)
        cluster = inner.build_cluster(case.inner_params, config, trace)
        cluster.sim.seed_tiebreaks(case.tiebreak_seed)
        return cluster

    def setup(self, cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        case = fuzz_case(params["workload"], params["seed"])
        inner = _workload_experiment(case.workload)
        monitors = attach_monitors(cluster)
        inner_ctx = inner.setup(cluster, case.inner_params)
        # The base template's post-run process check is bypassed ("procs"
        # stays empty): a failed flow must become a structured case
        # failure in the campaign report, not a crashed worker.
        return {"case": case, "inner": inner, "inner_ctx": inner_ctx,
                "monitors": monitors, "procs": []}

    def drive(self, cluster, ctx: Dict[str, Any],
              params: Dict[str, Any]) -> None:
        try:
            cluster.run()
            for monitor in ctx["monitors"]:
                monitor.finalize()
        except InvariantViolation as violation:
            ctx["violation"] = violation
        except Exception as exc:  # a crash is a finding too, with a replay seed
            ctx["crash"] = repr(exc)

    def finish(self, cluster, ctx: Dict[str, Any], params: Dict[str, Any]):
        case: FuzzCase = ctx["case"]
        violation: Optional[InvariantViolation] = ctx.get("violation")
        crash: Optional[str] = ctx.get("crash")
        metrics: Dict[str, Any] = {
            "workload": case.workload,
            "seed": case.seed,
            "inner_params": dict(case.inner_params),
            "knobs": dict(case.knobs),
            "tiebreak_seed": case.tiebreak_seed,
            "sim_end_ns": cluster.sim.now,
            "violation": violation.to_dict() if violation else None,
            "crash": crash,
            "app_ok": False,
        }
        procs = ctx["inner_ctx"].get("procs", ())
        if violation is None and crash is None:
            failed = [p for p in procs if p.processed and not p.ok]
            unfinished = [p for p in procs if not p.processed]
            if failed:
                metrics["crash"] = crash = repr(failed[0].value)
            elif unfinished:
                metrics["crash"] = crash = (
                    f"{len(unfinished)} flow(s) never finished (deadlock?)")
            else:
                inner_metrics, _ = ctx["inner"].finish(
                    cluster, ctx["inner_ctx"], case.inner_params)
                metrics["app_ok"] = _app_ok(inner_metrics)
        hazards = cluster.total_hazards()
        metrics["ok"] = bool(violation is None and crash is None
                             and metrics["app_ok"] and hazards == 0)
        return metrics, violation

    def execute(self, params=None, config=None, trace=None, *,
                observers=None):
        # Fuzz records must stay lean: a campaign is hundreds of runs, so
        # drop the per-run span table the tracer accumulated (the tracer
        # itself stays on for violation context).
        execution = super().execute(params, config, trace,
                                    observers=observers)
        execution.record.spans = ()
        return execution


def _app_ok(inner_metrics: Dict[str, Any]) -> bool:
    """Application-level correctness, from whichever flag the workload
    reports (payload pattern, Allreduce data check, grid digest)."""
    for key in ("payload_ok", "correct"):
        if key in inner_metrics:
            return bool(inner_metrics[key])
    return "grid_sha256" in inner_metrics


class FuzzReport(campaign.WorkloadReport):
    """Outcome of one fuzz campaign: per-case records plus rollups."""

    def to_dict(self) -> Dict[str, Any]:
        """JSON report: summary plus one row per case (spans excluded)."""
        return {
            "ok": self.ok,
            "total": self.total,
            "cache": self.cache_stats,
            "by_workload": {w: {"passed": p, "total": t}
                            for w, (p, t) in sorted(self.by_workload().items())},
            "cases": [{
                "workload": r.metrics["workload"],
                "seed": r.metrics["seed"],
                "ok": r.metrics["ok"],
                "strategy": r.metrics["inner_params"].get("strategy"),
                "hazards": r.hazards,
                "violation": r.metrics["violation"],
                "crash": r.metrics["crash"],
                "knobs": r.metrics["knobs"],
            } for r in self.records],
        }


def run_campaign(workloads: Sequence[str] = FUZZ_WORKLOADS,
                 seeds: int = 100, seed_start: int = 0, jobs: int = 1,
                 config: Optional[SystemConfig] = None,
                 fail_fast: bool = False, cache: Optional[Any] = None,
                 store: Optional[Any] = None,
                 progress: Optional[Any] = None,
                 listen: Optional[Any] = None) -> FuzzReport:
    """Run ``seeds`` fuzz cases per workload, all monitors armed, as one
    :func:`repro.service.run_campaign` (journaled via ``store``, cached
    via ``cache``, streamed through ``progress``, cancelled on the first
    failing case with ``fail_fast``, open to remote workers via
    ``listen``)."""
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    points = [{"workload": w, "seed": s}
              for w in workloads
              for s in range(seed_start, seed_start + seeds)]
    return campaign.run_campaign(
        ValidateExperiment(), points, report=FuzzReport, config=config,
        jobs=jobs, cache=cache, store=store, progress=progress,
        listen=listen, fail_fast=fail_fast)
