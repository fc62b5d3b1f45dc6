"""Seeded fault campaigns over the paper's workloads (``repro faults``).

A campaign answers one question: does the GPU-TN protocol keep its
exactly-once trigger/delivery semantics when the network misbehaves?
Each seed maps -- deterministically, via
:class:`~repro.sim.rng.RandomStreams` -- to one **fault scenario** (drop
and corruption probabilities up to 5%, head jitter, an optional link-flap
outage or NIC rx stall) plus a reliability parameterization (go-back-N
window, retransmit timeout, retry budget).  The workload runs with the
reliable transport armed on every NIC, the fault plan installed on the
fabric, and every invariant monitor watching -- including
:class:`~repro.validate.monitors.ReliableDeliveryMonitor`, which holds
the transport to exactly-once, exactly-in-order acceptance per flow.

Outcomes are ordinary :class:`~repro.runtime.record.RunRecord` rows, so
campaigns fan out over the :class:`~repro.runtime.sweep.Sweep` process
pool and any failure replays from its ``(workload, seed)`` point alone.
A run ends in one of four ways:

* **clean** -- the app finished, its payload checks pass, monitors quiet;
* **gave up** -- the retry budget died on some flow and every affected
  handle failed with a structured
  :class:`~repro.nic.transport.TransportError` (expected under extreme
  scenarios; still a pass: nothing hung, nothing delivered twice);
* **violation** -- a monitor caught an invariant break (always a failure);
* **deadlock/crash** -- the run hit its time limit with flows neither
  finished nor dead, or raised something unstructured (always a failure).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import (FaultConfig, LinkFlap, NicStall, ReliabilityConfig,
                          SystemConfig)
from repro.nic.transport import TransportError
from repro.runtime.experiment import Experiment
from repro.runtime.record import RunRecord
from repro.service import campaign
from repro.sim.rng import RandomStreams
from repro.validate.monitors import (ReliableDeliveryMonitor, attach_monitors,
                                     default_monitors)
from repro.validate.violations import InvariantViolation

__all__ = [
    "FAULT_WORKLOADS",
    "FaultCase",
    "FaultsExperiment",
    "FaultsReport",
    "fault_case",
    "run_faults_campaign",
]

#: Workloads a fault campaign can drive, in default order.
FAULT_WORKLOADS: Tuple[str, ...] = ("microbench", "jacobi", "allreduce")

#: Simulated-time ceiling per case: far beyond any recovery or give-up
#: horizon (budget-exhaustion with the campaign's knobs is < 2 ms), so
#: hitting it means some flow truly wedged.
CASE_LIMIT_NS = 5_000_000


@dataclass(frozen=True)
class FaultCase:
    """Everything one seed determines: the replay unit of a campaign."""

    workload: str
    seed: int
    inner_params: Dict[str, Any]
    faults: FaultConfig
    reliability: ReliabilityConfig
    limit_ns: int = CASE_LIMIT_NS


def _workload_experiment(workload: str) -> Experiment:
    if workload == "microbench":
        from repro.apps.microbench import MicrobenchExperiment
        return MicrobenchExperiment()
    if workload == "jacobi":
        from repro.apps.jacobi import JacobiExperiment
        return JacobiExperiment()
    if workload == "allreduce":
        from repro.collectives import AllreduceExperiment
        return AllreduceExperiment()
    raise KeyError(f"unknown fault workload {workload!r}; "
                   f"choose from {list(FAULT_WORKLOADS)}")


def fault_case(workload: str, seed: int) -> FaultCase:
    """The deterministic ``seed -> (scenario, workload params)`` map."""
    _workload_experiment(workload)  # validate the name early
    rng = RandomStreams(seed).stream(f"faults.case.{workload}")

    # Loss scenario: rates up to the 5% acceptance ceiling; roughly one
    # case in four additionally arms a deterministic link-flap outage,
    # one in four an rx-side NIC stall.
    faults_kw: Dict[str, Any] = {
        "drop_prob": float(rng.choice([0.0, 0.005, 0.01, 0.02, 0.05])),
        "corrupt_prob": float(rng.choice([0.0, 0.005, 0.01, 0.02])),
        "jitter_ns": int(rng.choice([0, 200, 1000])),
    }
    if int(rng.integers(0, 4)) == 0:
        down_at = int(rng.integers(2_000, 20_000))
        faults_kw["flaps"] = (LinkFlap(
            node=f"node{int(rng.integers(0, 2))}", down_at=down_at,
            up_at=down_at + int(rng.integers(5_000, 50_000))),)
    if int(rng.integers(0, 4)) == 0:
        start = int(rng.integers(2_000, 20_000))
        faults_kw["stalls"] = (NicStall(
            node=f"node{int(rng.integers(0, 2))}", start=start,
            end=start + int(rng.integers(2_000, 10_000))),)

    reliability = ReliabilityConfig(
        window=int(rng.choice([2, 4, 8])),
        retransmit_timeout_ns=int(rng.integers(10_000, 40_000)),
        max_retries=6,
    )

    if workload == "microbench":
        inner: Dict[str, Any] = {
            # GPU-TN over-weighted: its trigger path is what must stay
            # exactly-once under retransmission.
            "strategy": str(rng.choice(["cpu", "hdn", "gds", "gputn",
                                        "gputn"])),
            "nbytes": int(rng.choice([32, 256, 1024])),
            "overlap_post": False,
            "post_delay_ns": 0,
        }
    elif workload == "jacobi":
        px, py = (int(v) for v in rng.choice([(2, 1), (1, 2)]))
        inner = {
            "strategy": str(rng.choice(["cpu", "hdn", "gds", "gputn"])),
            "n": 8, "px": px, "py": py, "iters": 1,
            "seed": int(rng.integers(0, 1000)),
        }
    else:  # allreduce
        inner = {
            "strategy": str(rng.choice(["cpu", "hdn", "gds", "gputn"])),
            "n_nodes": int(rng.integers(2, 4)),
            "nbytes": int(rng.choice([256, 1024])),
            "seed": int(rng.integers(0, 1000)),
        }
    return FaultCase(workload=workload, seed=seed, inner_params=inner,
                     faults=FaultConfig(**faults_kw), reliability=reliability)


class FaultsExperiment(Experiment):
    """One fault case as a runtime experiment.

    Parameters are just ``{"workload", "seed"}`` -- the whole scenario is
    derived by :func:`fault_case` -- so campaigns are ordinary sweep
    grids and parallel runs are byte-identical to serial ones.
    """

    name = "faults"
    defaults = {"workload": "microbench", "seed": 0}

    def trace_default(self, params: Dict[str, Any]) -> bool:
        # Violations snapshot the tracer tail; drop/retransmit/nack rows
        # also feed the Perfetto export.  Fault workloads are small.
        return True

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool):
        case = fault_case(params["workload"], params["seed"])
        inner = _workload_experiment(case.workload)
        cluster = inner.build_cluster(case.inner_params, config, trace)
        cluster.enable_reliability(case.reliability)
        cluster.attach_faults(case.faults, rng=case.seed)
        return cluster

    def setup(self, cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        case = fault_case(params["workload"], params["seed"])
        inner = _workload_experiment(case.workload)
        monitors = attach_monitors(
            cluster, default_monitors() + [ReliableDeliveryMonitor()])
        inner_ctx = inner.setup(cluster, case.inner_params)
        # The base template's post-run process check is bypassed ("procs"
        # stays empty): a TransportError-failed flow is a structured
        # campaign outcome, not a crashed worker.
        return {"case": case, "inner": inner, "inner_ctx": inner_ctx,
                "monitors": monitors, "procs": []}

    def drive(self, cluster, ctx: Dict[str, Any],
              params: Dict[str, Any]) -> None:
        case: FaultCase = ctx["case"]
        try:
            cluster.run(until=case.limit_ns)
            # With give-ups, poll loops on starved receivers legitimately
            # spin to the limit; in-flight data on a *live* flow at the
            # limit, though, means recovery wedged -- record it and skip
            # finalize (its incomplete-delivery check would only shadow
            # the real finding).
            unsettled = [
                (nic.node, peer, flow)
                for nic in (n.nic for n in cluster.nodes)
                if nic.transport is not None
                for peer, flow in nic.transport.flows().items()
                if flow["in_flight"] and not flow["dead"]
            ]
            if unsettled:
                ctx["unsettled"] = unsettled
                return
            for monitor in ctx["monitors"]:
                monitor.finalize()
        except InvariantViolation as violation:
            ctx["violation"] = violation
        except Exception as exc:  # a crash is a finding too, with a replay seed
            ctx["crash"] = repr(exc)

    def finish(self, cluster, ctx: Dict[str, Any], params: Dict[str, Any]):
        case: FaultCase = ctx["case"]
        violation: Optional[InvariantViolation] = ctx.get("violation")
        crash: Optional[str] = ctx.get("crash")
        procs = ctx["inner_ctx"].get("procs", ())
        failed = [p for p in procs if p.processed and not p.ok]
        unfinished = [p for p in procs if not p.processed]
        transport_errors = [p.value for p in failed
                            if isinstance(p.value, TransportError)]
        gave_up = bool(transport_errors) or any(
            flow["dead"]
            for nic in (n.nic for n in cluster.nodes)
            if nic.transport is not None
            for flow in nic.transport.flows().values())

        metrics: Dict[str, Any] = {
            "workload": case.workload,
            "seed": case.seed,
            "inner_params": dict(case.inner_params),
            "faults": dataclasses.asdict(case.faults),
            "reliability": dataclasses.asdict(case.reliability),
            "sim_end_ns": cluster.sim.now,
            "violation": violation.to_dict() if violation else None,
            "crash": crash,
            "gave_up": gave_up,
            "transport_errors": [e.to_dict() for e in transport_errors],
            "app_ok": False,
        }
        if violation is None and crash is None:
            if ctx.get("unsettled"):
                node, peer, flow = ctx["unsettled"][0]
                metrics["crash"] = crash = (
                    f"flow {node}->{peer} still has {flow['in_flight']} "
                    f"message(s) in flight at t={case.limit_ns} (recovery "
                    "wedged?)")
            elif gave_up:
                # Degraded-but-sound: the stuck flows died loudly with
                # TransportError; receivers starved of their payload may
                # legitimately still be polling at the limit.
                pass
            elif failed:
                metrics["crash"] = crash = repr(failed[0].value)
            elif unfinished:
                metrics["crash"] = crash = (
                    f"{len(unfinished)} flow(s) never finished (deadlock?)")
            else:
                inner_metrics, _ = ctx["inner"].finish(
                    cluster, ctx["inner_ctx"], case.inner_params)
                metrics["app_ok"] = _app_ok(inner_metrics)
        hazards = cluster.total_hazards()
        metrics["ok"] = bool(
            violation is None and metrics["crash"] is None and hazards == 0
            and (metrics["app_ok"] or gave_up))
        return metrics, violation

    def execute(self, params=None, config=None, trace=None, *,
                observers=None):
        # Campaign records must stay lean: drop the per-run span table
        # (the tracer itself stays on for violation context and the
        # drop/retransmit trace points).
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


class FaultsReport(campaign.WorkloadReport):
    """Outcome of one fault campaign: per-case records plus rollups."""

    @property
    def gave_up(self) -> List[RunRecord]:
        return [r for r in self.records if r.metrics["gave_up"]]

    def to_dict(self) -> Dict[str, Any]:
        """JSON report: summary plus one row per case (spans excluded)."""
        return {
            "ok": self.ok,
            "total": self.total,
            "cache": self.cache_stats,
            "gave_up": len(self.gave_up),
            "by_workload": {w: {"passed": p, "total": t}
                            for w, (p, t) in sorted(self.by_workload().items())},
            "cases": [{
                "workload": r.metrics["workload"],
                "seed": r.metrics["seed"],
                "ok": r.metrics["ok"],
                "strategy": r.metrics["inner_params"].get("strategy"),
                "gave_up": r.metrics["gave_up"],
                "faults": r.metrics["faults"],
                "violation": r.metrics["violation"],
                "crash": r.metrics["crash"],
                "transport": dict(r.transport),
            } for r in self.records],
        }


def run_faults_campaign(workloads: Sequence[str] = FAULT_WORKLOADS,
                        seeds: int = 25, seed_start: int = 0, jobs: int = 1,
                        config: Optional[SystemConfig] = None,
                        fail_fast: bool = False, cache: Optional[Any] = None,
                        store: Optional[Any] = None,
                        progress: Optional[Any] = None,
                        listen: Optional[Any] = None) -> FaultsReport:
    """Run ``seeds`` fault cases per workload, all monitors armed, as one
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
        FaultsExperiment(), points, report=FaultsReport, config=config,
        jobs=jobs, cache=cache, store=store, progress=progress,
        listen=listen, fail_fast=fail_fast)
