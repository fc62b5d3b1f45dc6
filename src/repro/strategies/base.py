"""Strategy taxonomy (paper Table 1).

Qualitative metadata for the five GPU networking classes the paper
compares.  The four *evaluated* strategies (CPU is the non-GPU sanity
baseline, outside the taxonomy) map to concrete flow implementations in
:mod:`repro.strategies.flows`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["EVALUATED_STRATEGIES", "ONE_SIDED_STRATEGIES", "STRATEGIES",
           "StrategyInfo", "strategy_info"]


@dataclass(frozen=True)
class StrategyInfo:
    """One row of paper Table 1."""

    key: str
    display_name: str
    gpu_triggered: bool
    intra_kernel: bool
    gpu_overhead: str
    cpu_overhead: str
    evaluated: bool
    references: Tuple[str, ...] = ()

    def table_row(self) -> Tuple[str, str, str, str, str]:
        return (
            self.display_name,
            "Yes" if self.gpu_triggered else "No",
            "Yes" if self.intra_kernel else "No",
            self.gpu_overhead,
            self.cpu_overhead,
        )


STRATEGIES: Dict[str, StrategyInfo] = {
    "hdn": StrategyInfo(
        key="hdn",
        display_name="Host-Driven Networking (HDN)",
        gpu_triggered=False,
        intra_kernel=False,
        gpu_overhead="Kernel Boundary",
        cpu_overhead="Network Stack",
        evaluated=True,
        references=("Zippy", "GPUDirect RDMA", "CUDASA"),
    ),
    "gpu-native": StrategyInfo(
        key="gpu-native",
        display_name="GPU Native Networking",
        gpu_triggered=True,
        intra_kernel=True,
        gpu_overhead="Network Stack",
        cpu_overhead="NA",
        evaluated=False,
        references=("GPUrdma", "GGAS", "Oden et al."),
    ),
    "gpu-host": StrategyInfo(
        key="gpu-host",
        display_name="GPU Host Networking",
        gpu_triggered=False,
        intra_kernel=True,
        gpu_overhead="CPU/GPU Queues",
        cpu_overhead="Service Threads, Network Stack",
        evaluated=False,
        references=("dCUDA", "GPUnet", "FLAT", "DCGN"),
    ),
    "gds": StrategyInfo(
        key="gds",
        display_name="GPU Direct Async (GDS)",
        gpu_triggered=True,
        intra_kernel=False,
        gpu_overhead="Kernel Boundary, Trigger",
        cpu_overhead="Partial Network Stack",
        evaluated=True,
        references=("GPUDirect Async",),
    ),
    "gputn": StrategyInfo(
        key="gputn",
        display_name="GPU Triggered Networking (GPU-TN)",
        gpu_triggered=True,
        intra_kernel=True,
        gpu_overhead="Trigger",
        cpu_overhead="Partial Network Stack",
        evaluated=True,
        references=("this paper",),
    ),
    # The non-GPU sanity baseline of Section 5.1 (outside Table 1).
    "cpu": StrategyInfo(
        key="cpu",
        display_name="CPU (no GPU acceleration)",
        gpu_triggered=False,
        intra_kernel=False,
        gpu_overhead="NA",
        cpu_overhead="Everything",
        evaluated=True,
    ),
}

#: The four configurations of paper Section 5.1, in presentation order.
EVALUATED_STRATEGIES: Tuple[str, ...] = ("cpu", "hdn", "gds", "gputn")

#: Flows that put straight into the target's buffer: their initiator
#: needs the target's remote address; the others send two-sided.
ONE_SIDED_STRATEGIES: Tuple[str, ...] = ("gds", "gputn", "gpu-host",
                                         "gpu-native")


def strategy_info(key: str) -> StrategyInfo:
    try:
        return STRATEGIES[key]
    except KeyError:
        raise KeyError(
            f"unknown strategy {key!r}; known: {sorted(STRATEGIES)}"
        ) from None
