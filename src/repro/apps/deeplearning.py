"""Deep-learning Allreduce projection (paper Section 5.4.2, Table 3, Figure 11).

The paper ran six Microsoft Cognitive Toolkit (CNTK) workloads on the
Stampede supercomputer, measured "the frequency, time, and data size of
the various Allreduce calls", and *projected* application-level speedup
by substituting simulated Allreduce times -- valid because synchronous
SGD leaves no computation/communication overlap to model.

We cannot run CNTK on Stampede, so we substitute a **synthetic trace
generator** (documented in DESIGN.md): each workload is characterized by

* the published Table 3 columns (%blocked on Allreduce, #reductions), and
* a gradient-tensor size profile drawn from the workload's architecture
  class (AlexNet's conv+FC tensors, LSTM gate matrices, the small CIFAR
  convnet, ...).

The projection then matches the paper's arithmetic exactly::

    speedup(s) = 1 / ( (1 - B) + B * T_s / T_ref )

where ``B`` is the blocked fraction under the measured (CPU Allreduce)
configuration, ``T_s`` the simulated per-epoch Allreduce time under
strategy ``s`` and ``T_ref`` under the measured configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.collectives import AllreduceExperiment
from repro.config import KB, MB, SystemConfig, default_config
from repro.runtime import ResultCache, Sweep
from repro.sim.rng import RandomStreams
from repro.strategies import EVALUATED_STRATEGIES

__all__ = [
    "DLProjection",
    "WORKLOADS",
    "WorkloadSpec",
    "project_deep_learning",
    "table3_rows",
]

_DEFAULT_NODES = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table 3 row plus a synthetic gradient-size profile.

    ``size_profile`` maps an Allreduce payload size (bytes) to its share
    of the workload's reduction calls.
    """

    name: str
    domain: str
    pct_blocked: float          # fraction of run time blocked on Allreduce
    n_reductions: int           # total reduction calls (Table 3)
    size_profile: Tuple[Tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.pct_blocked < 1.0:
            raise ValueError(f"{self.name}: %blocked must be in (0,1)")
        if self.n_reductions <= 0:
            raise ValueError(f"{self.name}: need positive reduction count")
        total = sum(w for _, w in self.size_profile)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: size profile weights sum to {total}")

    def sample_sizes(self, n: int, rng: np.random.Generator) -> np.ndarray:
        sizes = np.array([s for s, _ in self.size_profile])
        weights = np.array([w for _, w in self.size_profile])
        return rng.choice(sizes, size=n, p=weights)


#: Table 3 of the paper, with synthetic size profiles per architecture
#: class (parameter-tensor sizes in bytes; weights = share of calls).
WORKLOADS: Dict[str, WorkloadSpec] = {
    "alexnet": WorkloadSpec(
        name="AlexNet", domain="Classification",
        pct_blocked=0.14, n_reductions=4672,
        # Classic AlexNet tensors: conv layers are small, fc6/fc7 huge.
        size_profile=(
            (128 * KB, 0.25), (1 * MB, 0.25), (3 * MB, 0.25),
            (16 * MB, 0.125), (64 * MB, 0.125),
        ),
    ),
    "an4-lstm": WorkloadSpec(
        name="AN4 LSTM", domain="Speech",
        pct_blocked=0.50, n_reductions=131192,
        # LSTM gate matrices: many small-to-medium reductions.
        size_profile=(
            (64 * KB, 0.40), (256 * KB, 0.30), (1 * MB, 0.20), (4 * MB, 0.10),
        ),
    ),
    "cifar": WorkloadSpec(
        name="CIFAR", domain="Classification",
        pct_blocked=0.04, n_reductions=939820,
        size_profile=(
            (16 * KB, 0.40), (64 * KB, 0.30), (256 * KB, 0.20), (1 * MB, 0.10),
        ),
    ),
    "large-synth": WorkloadSpec(
        name="Large Synth", domain="Synthetic",
        pct_blocked=0.28, n_reductions=52800,
        size_profile=((8 * MB, 0.50), (16 * MB, 0.30), (32 * MB, 0.20)),
    ),
    "mnist-conv": WorkloadSpec(
        name="MNIST Conv", domain="Text Recognition",
        pct_blocked=0.12, n_reductions=900000,
        size_profile=(
            (32 * KB, 0.40), (128 * KB, 0.30), (512 * KB, 0.20), (2 * MB, 0.10),
        ),
    ),
    "mnist-hidden": WorkloadSpec(
        name="MNIST Hidden", domain="Text Recognition",
        pct_blocked=0.29, n_reductions=900000,
        size_profile=((1 * MB, 0.30), (2 * MB, 0.40), (4 * MB, 0.30)),
    ),
}


@dataclass
class DLProjection:
    """Projected speedups for one workload (Figure 11 bars)."""

    workload: str
    n_nodes: int
    #: simulated mean Allreduce call time per strategy (ns)
    allreduce_ns: Dict[str, float] = field(default_factory=dict)
    #: application-level speedup vs the measured (CPU Allreduce) config
    speedup: Dict[str, float] = field(default_factory=dict)

    def speedup_over(self, strategy: str, baseline: str) -> float:
        return self.speedup[strategy] / self.speedup[baseline]


class _AllreduceCostCache:
    """Memoizes simulated Allreduce times per (strategy, nodes, size).

    Built on :class:`~repro.collectives.AllreduceExperiment`:
    :meth:`prefetch` fans a batch of unseen combinations out over a
    process pool (optionally backed by the on-disk result cache), and
    :meth:`time_ns` serves misses one at a time.
    """

    def __init__(self, config: SystemConfig, jobs: int = 1,
                 result_cache: Optional[ResultCache] = None):
        self.config = config
        self.jobs = jobs
        self.result_cache = result_cache
        self._experiment = AllreduceExperiment()
        self._cache: Dict[Tuple[str, int, int], int] = {}

    def _ingest(self, key: Tuple[str, int, int], record) -> int:
        if not record.metrics["correct"]:
            raise AssertionError(f"allreduce produced wrong data for {key}")
        t = self._cache[key] = record.metrics["total_ns"]
        return t

    def prefetch(self, combos: Sequence[Tuple[str, int, int]]) -> None:
        """Simulate every un-memoized (strategy, nodes, size) combo, in
        parallel when ``jobs > 1``."""
        points = [{"strategy": s, "n_nodes": p, "nbytes": b}
                  for s, p, b in dict.fromkeys(combos)
                  if (s, p, b) not in self._cache]
        if not points:
            return
        records = Sweep(self._experiment, points=points).run(
            config=self.config, jobs=self.jobs, cache=self.result_cache)
        for point, record in zip(points, records):
            self._ingest((point["strategy"], point["n_nodes"],
                          point["nbytes"]), record)

    def time_ns(self, strategy: str, n_nodes: int, nbytes: int) -> int:
        key = (strategy, n_nodes, nbytes)
        t = self._cache.get(key)
        if t is None:
            records = Sweep(self._experiment, points=[
                {"strategy": strategy, "n_nodes": n_nodes, "nbytes": nbytes},
            ]).run(config=self.config, cache=self.result_cache)
            t = self._ingest(key, records[0])
        return t


def project_deep_learning(
    config: Optional[SystemConfig] = None,
    workloads: Optional[Sequence[str]] = None,
    n_nodes: int = _DEFAULT_NODES,
    strategies: Sequence[str] = EVALUATED_STRATEGIES,
    cache: Optional[_AllreduceCostCache] = None,
    jobs: int = 1,
    result_cache: Optional[ResultCache] = None,
) -> Dict[str, DLProjection]:
    """Figure 11: project app-level speedups on a cluster of ``n_nodes``."""
    config = config or default_config()
    cache = cache or _AllreduceCostCache(config, jobs=jobs,
                                         result_cache=result_cache)
    picks = list(workloads or WORKLOADS)
    cache.prefetch([
        (strategy, n_nodes, size)
        for key in picks
        for strategy in strategies
        for size, _ in WORKLOADS[key].size_profile
    ])
    out: Dict[str, DLProjection] = {}
    for key in picks:
        spec = WORKLOADS[key]
        proj = DLProjection(workload=spec.name, n_nodes=n_nodes)
        weights = {s: w for s, w in spec.size_profile}
        for strategy in strategies:
            mean = sum(w * cache.time_ns(strategy, n_nodes, size)
                       for size, w in weights.items())
            proj.allreduce_ns[strategy] = mean
        ref = proj.allreduce_ns["cpu"]
        b = spec.pct_blocked
        for strategy in strategies:
            ratio = proj.allreduce_ns[strategy] / ref
            proj.speedup[strategy] = 1.0 / ((1.0 - b) + b * ratio)
        out[key] = proj
    return out


def generate_trace(workload: str, n_calls: int = 1000,
                   seed: int = 0x5C17) -> np.ndarray:
    """A synthetic Allreduce-call trace (sizes in bytes) for one workload.

    Used by tests and the trace-driven examples; the projection itself
    uses the exact profile weights rather than a sampled trace.
    """
    spec = WORKLOADS[workload]
    rng = RandomStreams(seed).stream(f"dl-trace.{workload}")
    return spec.sample_sizes(n_calls, rng)


def table3_rows() -> List[Tuple[str, str, str, str]]:
    """Render the paper's Table 3 (name, domain, %blocked, reductions)."""
    return [
        (spec.name, spec.domain, f"{spec.pct_blocked:.0%}",
         f"{spec.n_reductions}")
        for spec in WORKLOADS.values()
    ]
