"""GPU networking strategies.

:mod:`~repro.strategies.base` carries the qualitative taxonomy of paper
Table 1 (all five classes, including the two the paper discusses but does
not simulate); :mod:`~repro.strategies.flows` implements the four
*evaluated* strategies (CPU, HDN, GDS, GPU-TN) as compute-then-send
point-to-point flows -- the building block of the latency microbenchmark
(Figure 8) and the per-round structure of Jacobi and Allreduce.
"""

from repro.strategies.base import (
    EVALUATED_STRATEGIES,
    ONE_SIDED_STRATEGIES,
    STRATEGIES,
    StrategyInfo,
    strategy_info,
)
from repro.strategies.flows import FLOWS, FlowResult, get_flow

__all__ = [
    "EVALUATED_STRATEGIES",
    "FLOWS",
    "FlowResult",
    "ONE_SIDED_STRATEGIES",
    "STRATEGIES",
    "StrategyInfo",
    "get_flow",
    "strategy_info",
]
