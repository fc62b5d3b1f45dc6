"""Scale-out study: collective schedules x topologies x backends.

The paper stops at 2-8 nodes on a star.  This study pushes the GPU-TN vs
GDS/HDN comparison to 16-256 simulated nodes on datacenter fabrics
(fat-tree / dragonfly / torus), across the schedule zoo, through the
PR-6 service layer: the whole grid is one content-addressed
:class:`repro.service.Job`, so it journals, resumes after preemption,
parallelizes over a process pool, and caches per-point RunRecords.
Every point re-verifies its data against the NumPy schedule oracle --
a sweep that "completes" has also proven every collective correct.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.collectives.engine import CollectiveExperiment
from repro.config import SystemConfig
from repro.service import campaign

__all__ = ["TOPO_SCHEDULES", "TOPO_STRATEGIES", "TOPO_TOPOLOGIES",
           "TopoScaleReport", "run_topo_campaign"]

#: The study's default axes.  Torus auto-factorizes the node count (primes
#: degrade to a ring); fat-tree/dragonfly auto-size to fit.
TOPO_TOPOLOGIES = ("fat-tree", "dragonfly", "torus")
TOPO_SCHEDULES = ("ring", "recursive-doubling", "halving-doubling",
                  "allgather", "reduce-scatter", "alltoall")
TOPO_STRATEGIES = ("gputn", "gds", "hdn")


class TopoScaleReport(campaign.CampaignReport):
    """All RunRecords of one scale campaign plus summary accessors."""

    ok_key = "correct"

    def by_case(self) -> Dict[Tuple[str, str, int], Dict[str, int]]:
        """(topology, schedule, n_nodes) -> {strategy: total_ns}."""
        out: Dict[Tuple[str, str, int], Dict[str, int]] = {}
        for r in self.records:
            p = r.params
            key = (p["topology"], p["schedule"], p["n_nodes"])
            out.setdefault(key, {})[p["strategy"]] = r.metrics["total_ns"]
        return out

    def speedups(self) -> Dict[Tuple[str, str, int], Dict[str, float]]:
        """GPU-TN speedup vs each host-driven strategy, per case."""
        out = {}
        for key, times in self.by_case().items():
            gputn = times.get("gputn")
            if gputn:
                out[key] = {s: t / gputn for s, t in times.items()
                            if s != "gputn"}
        return out

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"total": self.total, "ok": self.ok,
                               "cases": []}
        for (topo, sched, n), times in sorted(self.by_case().items()):
            doc["cases"].append({"topology": topo, "schedule": sched,
                                 "n_nodes": n, "total_ns": times})
        if self.cache_stats is not None:
            doc["cache"] = dict(self.cache_stats)
        return doc


def run_topo_campaign(topologies: Sequence[str] = TOPO_TOPOLOGIES,
                      schedules: Sequence[str] = TOPO_SCHEDULES,
                      strategies: Sequence[str] = TOPO_STRATEGIES,
                      node_counts: Sequence[int] = (16, 64),
                      nbytes: int = 64 * 1024, seed: int = 11, jobs: int = 1,
                      config: Optional[SystemConfig] = None,
                      fail_fast: bool = False, cache: Optional[Any] = None,
                      store: Optional[Any] = None,
                      progress: Optional[Any] = None,
                      listen: Optional[Any] = None) -> TopoScaleReport:
    """Run the scale grid as one :func:`repro.service.run_campaign`
    (journaled via ``store``, cached via ``cache``, streamed through
    ``progress``, cancelled on the first oracle mismatch with
    ``fail_fast``, open to remote workers via ``listen``)."""
    points = [{"topology": t, "schedule": sch, "strategy": strat,
               "n_nodes": n, "nbytes": nbytes, "seed": seed}
              for t in topologies
              for sch in schedules
              for n in node_counts
              for strat in strategies]
    if not points:
        raise ValueError("empty campaign: no topology/schedule/strategy axis")
    return campaign.run_campaign(
        CollectiveExperiment(), points, report=TopoScaleReport,
        config=config, jobs=jobs, cache=cache, store=store,
        progress=progress, listen=listen, fail_fast=fail_fast)
