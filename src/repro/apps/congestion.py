"""Under-load study: GPU-TN vs host-driven strategies on a congested fabric.

The paper -- and every study in this repo so far -- measures on an idle
or *lossy* network; real deployments lose the latency war to *load*:
background flows filling switch queues, incast bursts overrunning the
last hop, and the transport's own recovery traffic.  This study is the
comparison the paper never ran: a 16-node fat tree, seeded background
traffic (:mod:`repro.traffic`) at a swept load level, finite switch
queues with a swept discipline (:mod:`repro.net.queues`), a swept ARQ
engine (:mod:`repro.nic.transport`), and the Section 5.2 foreground
message stream timed under all of it.

Each point reports foreground **goodput** and **p50/p99 latency** plus
queue-depth/drop/mark and background-delivery counters, and hard-fails
if either correctness monitor trips:

* :class:`~repro.validate.monitors.PacketConservationMonitor` -- no
  packet leak: injected == scheduled-for-delivery + fault drops + queue
  drops, and all transport state drained at end of run;
* :class:`~repro.validate.monitors.ReliableDeliveryMonitor` -- every
  flow accepted exactly-once, exactly-in-order, to the highest sequence
  sent.

Campaign axes (``repro congestion``): load level x queue discipline
(drop-tail vs RED+ECN) x transport (go-back-N vs selective-repeat with
AIMD pacing) x strategy (hdn / gds / gputn), run as one service-layer
:class:`repro.service.Job` (journaled, resumable, cached, parallel).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.config import KB, QueueConfig, ReliabilityConfig, SystemConfig
from repro.runtime import Experiment
from repro.service import campaign
from repro.strategies.flows import message_stream
from repro.validate.monitors import (PacketConservationMonitor,
                                     ReliableDeliveryMonitor)
from repro.validate.violations import InvariantViolation

__all__ = ["CONGESTION_DISCIPLINES", "CONGESTION_LOADS",
           "CONGESTION_STRATEGIES", "CONGESTION_TRANSPORTS",
           "CongestionExperiment", "CongestionReport",
           "run_congestion_campaign"]

#: Default campaign axes (ISSUE 8 acceptance grid).
CONGESTION_LOADS: Tuple[float, ...] = (0.2, 0.5, 0.8)
CONGESTION_DISCIPLINES: Tuple[str, ...] = ("drop-tail", "red-ecn")
CONGESTION_TRANSPORTS: Tuple[str, ...] = ("go-back-n", "selective-repeat")
CONGESTION_STRATEGIES: Tuple[str, ...] = ("hdn", "gds", "gputn")

#: Simulated-time ceiling per point; generous past any drain horizon.
_LIMIT_NS = 50_000_000

_PATTERN = 0xA7
_BASE_WIRE_TAG = 0x700
_BASE_TRIG_TAG = 0x61

#: Background-traffic message size: big enough that a handful of
#: concurrent flows builds real queue depth, small enough to drain.
_BG_NBYTES = 4 * KB


def _queue_config(discipline: str) -> Optional[QueueConfig]:
    """Map a study discipline axis value onto a :class:`QueueConfig`."""
    if discipline == "none":
        return None
    if discipline == "drop-tail":
        return QueueConfig(discipline="drop-tail", capacity_bytes=32 * KB)
    if discipline == "red":
        return QueueConfig(discipline="red", capacity_bytes=32 * KB,
                           red_min_bytes=8 * KB, red_max_bytes=24 * KB)
    if discipline == "red-ecn":
        return QueueConfig(discipline="red", ecn=True, capacity_bytes=32 * KB,
                           red_min_bytes=8 * KB, red_max_bytes=24 * KB)
    raise ValueError(f"unknown queue discipline {discipline!r}; choose from "
                     "['drop-tail', 'red', 'red-ecn', 'none']")


def _reliability_config(transport: str) -> ReliabilityConfig:
    """Map a study transport axis value onto a :class:`ReliabilityConfig`.

    ``selective-repeat`` always runs with AIMD pacing armed -- the point
    of the axis is "congestion-controlled transport vs the PR-3 engine".
    """
    if transport == "go-back-n":
        return ReliabilityConfig()
    if transport == "selective-repeat":
        return ReliabilityConfig(mode="selective-repeat", pacing=True,
                                 cwnd_floor=1)
    raise ValueError(f"unknown transport {transport!r}; choose from "
                     "['go-back-n', 'selective-repeat']")


class CongestionExperiment(Experiment):
    """One (strategy, transport, discipline, load) point under load.

    A foreground stream of ``messages`` transfers runs node0 ->
    node(n-1) -- the longest path through the fat tree -- while every
    node offers Poisson background traffic at ``load`` x link rate
    (``load=0`` disables background entirely).  Both correctness
    monitors are armed; violations land in the metrics (``ok=False``),
    never crash the sweep.
    """

    name = "congestion"
    defaults = {"strategy": "gputn", "transport": "go-back-n",
                "discipline": "drop-tail", "load": 0.0,
                "topology": "fat-tree:k=4", "n_nodes": 16,
                "nbytes": 1024, "messages": 32,
                "bg_horizon_ns": 120_000, "seed": 0}

    def configure(self, params: Dict[str, Any],
                  config: SystemConfig) -> SystemConfig:
        from dataclasses import replace

        spec = params["topology"]
        if spec == config.network.topology:
            return config
        return config.with_(network=replace(config.network, topology=spec))

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        cluster = Cluster(n_nodes=int(params["n_nodes"]), config=config,
                          trace=trace)
        cluster.enable_reliability(_reliability_config(params["transport"]))
        qc = _queue_config(params["discipline"])
        if qc is not None:
            cluster.enable_queues(qc)
        return cluster

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        monitors = [PacketConservationMonitor(), ReliableDeliveryMonitor()]
        for monitor in monitors:
            monitor.attach(cluster)
        background = None
        load = float(params["load"])
        if load > 0.0:
            from repro.sim.rng import RandomStreams
            from repro.traffic import PoissonTraffic, attach_traffic

            # Offered load per node as a fraction of link rate: a message
            # occupies ser(nbytes) on its first link, so mean gap =
            # ser / load keeps each source's offered rate at `load`.
            ser = cluster.config.network.serialization_ns(_BG_NBYTES)
            pattern = PoissonTraffic(
                mean_gap_ns=max(1, int(ser / load)), nbytes=_BG_NBYTES)
            background = attach_traffic(
                cluster, pattern, horizon_ns=int(params["bg_horizon_ns"]),
                streams=RandomStreams(int(params["seed"])))
        outcome: Dict[str, Any] = {"latencies": [], "delivered": 0,
                                   "gave_up": False, "span_ns": 0}
        driver = cluster.spawn(
            message_stream(cluster, cluster[-1], params["strategy"],
                           int(params["nbytes"]), int(params["messages"]),
                           outcome, prefix="cong", pattern=_PATTERN,
                           wire_tag_base=_BASE_WIRE_TAG,
                           trig_tag_base=_BASE_TRIG_TAG),
            name="congestion-stream")
        return {"procs": [driver], "outcome": outcome,
                "monitors": monitors, "background": background}

    def drive(self, cluster: Cluster, ctx: Dict[str, Any],
              params: Dict[str, Any]) -> None:
        cluster.run(until=_LIMIT_NS)

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        outcome = ctx["outcome"]
        violations: List[Dict[str, Any]] = []
        for monitor in ctx["monitors"]:
            try:
                monitor.finalize()
            except InvariantViolation as violation:
                violations.append(violation.to_dict())
        latencies = outcome["latencies"]
        goodput = (outcome["delivered"] * int(params["nbytes"])
                   / outcome["span_ns"] if outcome["span_ns"] else 0.0)
        queues = cluster.fabric.queues
        background = ctx["background"]
        metrics: Dict[str, Any] = {
            "strategy": params["strategy"],
            "transport": params["transport"],
            "discipline": params["discipline"],
            "load": params["load"],
            "delivered": outcome["delivered"],
            "requested": params["messages"],
            "gave_up": outcome["gave_up"],
            "span_ns": outcome["span_ns"],
            "goodput_bytes_per_us": round(goodput * 1_000, 3),
            "p50_latency_ns": int(np.percentile(latencies, 50)) if latencies else None,
            "p99_latency_ns": int(np.percentile(latencies, 99)) if latencies else None,
            "max_latency_ns": max(latencies) if latencies else None,
            "queue": dict(queues.stats) if queues is not None else None,
            "background": dict(background.stats) if background is not None else None,
            "violations": violations,
            "ok": (not violations and not outcome["gave_up"]
                   and outcome["delivered"] == int(params["messages"])),
        }
        return metrics, dict(outcome)


class CongestionReport(campaign.CampaignReport):
    """All RunRecords of one congestion campaign plus summary accessors."""

    def by_case(self) -> Dict[Tuple[float, str, str], Dict[str, Any]]:
        """(load, discipline, transport) -> {strategy: metrics}."""
        out: Dict[Tuple[float, str, str], Dict[str, Any]] = {}
        for r in self.records:
            p = r.params
            key = (p["load"], p["discipline"], p["transport"])
            out.setdefault(key, {})[p["strategy"]] = r.metrics
        return out

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"total": self.total, "ok": self.ok,
                               "cases": []}
        for (load, disc, transport), per_strategy in sorted(self.by_case().items()):
            doc["cases"].append({
                "load": load, "discipline": disc, "transport": transport,
                "strategies": {
                    s: {"goodput_bytes_per_us": m["goodput_bytes_per_us"],
                        "p50_latency_ns": m["p50_latency_ns"],
                        "p99_latency_ns": m["p99_latency_ns"],
                        "delivered": m["delivered"],
                        "ok": m["ok"]}
                    for s, m in sorted(per_strategy.items())},
            })
        if self.cache_stats is not None:
            doc["cache"] = dict(self.cache_stats)
        return doc


def run_congestion_campaign(loads: Sequence[float] = CONGESTION_LOADS,
                            disciplines: Sequence[str] = CONGESTION_DISCIPLINES,
                            transports: Sequence[str] = CONGESTION_TRANSPORTS,
                            strategies: Sequence[str] = CONGESTION_STRATEGIES,
                            topology: str = "fat-tree:k=4", n_nodes: int = 16,
                            messages: int = 32, nbytes: int = 1024,
                            bg_horizon_ns: int = 120_000, seed: int = 0,
                            jobs: int = 1,
                            config: Optional[SystemConfig] = None,
                            fail_fast: bool = False,
                            cache: Optional[Any] = None,
                            store: Optional[Any] = None,
                            progress: Optional[Any] = None,
                            listen: Optional[Any] = None
                            ) -> CongestionReport:
    """The full load x discipline x transport x strategy grid as one
    :func:`repro.service.run_campaign` (journaled via ``store``, cached
    via ``cache``, streamed through ``progress``, cancelled on the first
    monitor violation or give-up with ``fail_fast``, open to remote
    workers via ``listen``)."""
    points = [{"strategy": s, "transport": t, "discipline": d, "load": load,
               "topology": topology, "n_nodes": n_nodes, "messages": messages,
               "nbytes": nbytes, "bg_horizon_ns": bg_horizon_ns, "seed": seed}
              for load in loads
              for d in disciplines
              for t in transports
              for s in strategies]
    if not points:
        raise ValueError("empty campaign: no load/discipline/transport axis")
    return campaign.run_campaign(
        CongestionExperiment(), points, report=CongestionReport,
        config=config, jobs=jobs, cache=cache, store=store,
        progress=progress, listen=listen, fail_fast=fail_fast)
