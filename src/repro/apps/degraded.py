"""Degraded-mode study: strategy throughput and tail latency under loss.

The paper evaluates a lossless fabric; this study asks what its Figure 8
comparison looks like when the network drops packets and the go-back-N
reliable transport (:mod:`repro.nic.transport`) has to recover.  A
two-node cluster streams ``messages`` back-to-back one-way transfers for
one strategy with a seeded drop rate armed on the fabric, and reports

* **goodput** -- application payload bytes over the stream's wall time
  (retransmissions and ACKs burn bandwidth but deliver nothing new);
* **p50/p99 latency** -- per-message initiation-to-target-observed time.
  Loss shows up almost entirely in the tail: one retransmit timeout is
  ~10x a clean delivery.

Each message reuses the Section 5.2 microbenchmark flows
(:mod:`repro.strategies.flows`), so GPU-TN / GDS / HDN keep exactly the
initiation paths the paper compares; a run where the retry budget dies
ends early with the structured ``gave_up`` outcome instead of hanging.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.config import FaultConfig, ReliabilityConfig, SystemConfig
from repro.runtime import Experiment, ResultCache, Sweep
from repro.strategies.flows import message_stream

__all__ = ["DEGRADED_LOSS_RATES", "DegradedExperiment", "degraded_report",
           "run_degraded_sweep"]

#: Loss-rate axis of the study (per-transmission drop probability).
DEGRADED_LOSS_RATES: Tuple[float, ...] = (0.0, 0.01, 0.02, 0.05)

#: Simulated-time ceiling per run; far beyond any recovery horizon.
_LIMIT_NS = 50_000_000

_PATTERN = 0xC3
_BASE_WIRE_TAG = 0x600
_BASE_TRIG_TAG = 0x51


class DegradedExperiment(Experiment):
    """A two-node message stream for one (strategy, loss rate) point.

    Parameters: ``strategy``, ``loss`` (drop probability), ``nbytes``,
    ``messages`` and ``seed`` (fault-plan stream).  The reliable
    transport is armed at every point -- including ``loss=0``, so the
    baseline pays the same ACK overhead the lossy points do.
    """

    name = "degraded"
    defaults = {"strategy": "gputn", "loss": 0.0, "nbytes": 1024,
                "messages": 64, "seed": 0}

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        cluster = Cluster(n_nodes=2, config=config, trace=trace)
        cluster.enable_reliability(ReliabilityConfig())
        if params["loss"]:
            # Offset the plan seed by the loss rate so adjacent sweep
            # points draw decorrelated uniforms (same-seed streams would
            # make 1% and 2% drop the exact same messages).
            cluster.attach_faults(FaultConfig(drop_prob=float(params["loss"])),
                                  rng=int(params["seed"])
                                  + int(float(params["loss"]) * 10_000))
        return cluster

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        outcome: Dict[str, Any] = {"latencies": [], "delivered": 0,
                                   "gave_up": False, "span_ns": 0}
        driver = cluster.spawn(
            message_stream(cluster, cluster[1], params["strategy"],
                           int(params["nbytes"]), int(params["messages"]),
                           outcome, prefix="deg", pattern=_PATTERN,
                           wire_tag_base=_BASE_WIRE_TAG,
                           trig_tag_base=_BASE_TRIG_TAG),
            name="degraded-stream")
        return {"procs": [driver], "outcome": outcome}

    def drive(self, cluster: Cluster, ctx: Dict[str, Any],
              params: Dict[str, Any]) -> None:
        cluster.run(until=_LIMIT_NS)

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        outcome = ctx["outcome"]
        latencies = outcome["latencies"]
        goodput = (outcome["delivered"] * int(params["nbytes"])
                   / outcome["span_ns"] if outcome["span_ns"] else 0.0)
        metrics: Dict[str, Any] = {
            "strategy": params["strategy"],
            "loss": params["loss"],
            "delivered": outcome["delivered"],
            "requested": params["messages"],
            "gave_up": outcome["gave_up"],
            "span_ns": outcome["span_ns"],
            "goodput_bytes_per_us": round(goodput * 1_000, 3),
            "p50_latency_ns": int(np.percentile(latencies, 50)) if latencies else None,
            "p99_latency_ns": int(np.percentile(latencies, 99)) if latencies else None,
            "max_latency_ns": max(latencies) if latencies else None,
        }
        return metrics, dict(outcome)


def run_degraded_sweep(strategies: Sequence[str] = ("gputn", "gds", "hdn"),
                       losses: Sequence[float] = DEGRADED_LOSS_RATES,
                       messages: int = 64, nbytes: int = 1024, seed: int = 0,
                       jobs: int = 1, cache: Optional[ResultCache] = None,
                       config: Optional[SystemConfig] = None):
    """The full (strategy x loss) grid as RunRecords."""
    points = [{"strategy": s, "loss": loss, "messages": messages,
               "nbytes": nbytes, "seed": seed}
              for s in strategies for loss in losses]
    return Sweep(DegradedExperiment(), points=points).run(
        config=config, jobs=jobs, cache=cache)


def degraded_report(jobs: int = 1, cache: Optional[ResultCache] = None,
                    config: Optional[SystemConfig] = None) -> List[str]:
    """Render the study as text rows (also printed): per loss rate, each
    strategy's goodput and latency percentiles."""
    records = run_degraded_sweep(jobs=jobs, cache=cache, config=config)
    rows = [f"{'loss':>6}  {'strategy':<6} {'delivered':>9} "
            f"{'goodput B/us':>12} {'p50 us':>8} {'p99 us':>8}"]
    for r in records:
        m = r.metrics
        # `is not None`, not truthiness: a legitimate 0 ns percentile
        # must print as 0.00, not "-".
        p50 = (f"{m['p50_latency_ns'] / 1000:.2f}"
               if m["p50_latency_ns"] is not None else "-")
        p99 = (f"{m['p99_latency_ns'] / 1000:.2f}"
               if m["p99_latency_ns"] is not None else "-")
        note = "  (gave up)" if m["gave_up"] else ""
        rows.append(f"{m['loss']:>6.2%}  {m['strategy']:<6} "
                    f"{m['delivered']:>4}/{m['requested']:<4} "
                    f"{m['goodput_bytes_per_us']:>12.3f} {p50:>8} {p99:>8}"
                    f"{note}")
    for row in rows:
        print(row)
    return rows
