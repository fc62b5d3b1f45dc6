"""The Section 5.4.1 Allreduce strong-scaling study (Figure 10).

A thin application layer over :mod:`repro.collectives`: fixes the 8 MB
single-precision payload, sweeps node counts, and reports speedup against
the CPU-only configuration as the paper does.  The sweep itself runs on
:class:`repro.runtime.Sweep`, so it parallelizes across a process pool
(``jobs``) and caches results on disk (``cache``) like every other
exhibit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.collectives import AllreduceExperiment, CollectiveResult
from repro.config import MB, SystemConfig, default_config
from repro.runtime import ResultCache, Sweep
from repro.strategies import EVALUATED_STRATEGIES

__all__ = ["ScalingStudy", "run_allreduce", "strong_scaling_study"]

PAYLOAD_8MB = 8 * MB


def run_allreduce(config: Optional[SystemConfig] = None, strategy: str = "gputn",
                  n_nodes: int = 8, nbytes: int = PAYLOAD_8MB) -> CollectiveResult:
    """One ring Allreduce under one strategy (verifies the data)."""
    return AllreduceExperiment().execute(
        {"strategy": strategy, "n_nodes": n_nodes, "nbytes": nbytes},
        config=config).raw


@dataclass
class ScalingStudy:
    """Figure 10's dataset: per-strategy times over a node sweep."""

    nbytes: int
    node_counts: List[int]
    total_ns: Dict[str, List[int]] = field(default_factory=dict)

    def speedup_vs_cpu(self, strategy: str) -> List[float]:
        return [c / t for c, t in zip(self.total_ns["cpu"],
                                      self.total_ns[strategy])]

    def crossover_node_count(self, strategy: str) -> Optional[int]:
        """First node count where the strategy drops below the CPU."""
        for p, s in zip(self.node_counts, self.speedup_vs_cpu(strategy)):
            if s < 1.0:
                return p
        return None


def strong_scaling_study(config: Optional[SystemConfig] = None,
                         node_counts: Sequence[int] = (2, 5, 8, 11, 14, 17,
                                                       20, 23, 26, 29, 32),
                         nbytes: int = PAYLOAD_8MB,
                         strategies: Sequence[str] = EVALUATED_STRATEGIES,
                         jobs: int = 1,
                         cache: Optional[ResultCache] = None) -> ScalingStudy:
    """Run the full Figure 10 sweep, verifying every result's data."""
    config = config or default_config()
    sweep = Sweep(AllreduceExperiment(),
                  grid={"strategy": list(strategies),
                        "n_nodes": list(node_counts)},
                  base={"nbytes": nbytes})
    records = sweep.run(config=config, jobs=jobs, cache=cache)

    study = ScalingStudy(nbytes=nbytes, node_counts=list(node_counts))
    for strategy in strategies:
        study.total_ns[strategy] = []
    for record in records:
        strategy, p = record.params["strategy"], record.params["n_nodes"]
        if not record.metrics["correct"]:
            raise AssertionError(f"wrong allreduce data: {strategy} P={p}")
        study.total_ns[strategy].append(record.metrics["total_ns"])
    return study
