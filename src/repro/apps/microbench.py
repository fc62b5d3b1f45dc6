"""The Section 5.2 latency microbenchmark (paper Figure 8).

A kernel on the *initiator* node produces one cache line that must land
at the *target* node; we measure the absolute-time decomposition of both
sides for each strategy.  The paper's headline numbers:

===========  ==========================  ========================
strategy     initiator spans (us)        target completion (us)
===========  ==========================  ========================
GPU-TN       1.50 / 0.49 / 1.49          2.71
GDS          1.50 / 0.43 / 1.51          3.76
HDN          1.50 / ~0.4 / 1.5 + send    4.21
===========  ==========================  ========================

i.e. GPU-TN ~25% faster than GDS and ~35% faster than HDN to target
completion, with the target receiving data *before* the initiator's
kernel finishes (intra-kernel initiation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.config import SystemConfig, default_config
from repro.runtime import Execution, Experiment
from repro.strategies import (EVALUATED_STRATEGIES, ONE_SIDED_STRATEGIES,
                              FlowResult, get_flow)

__all__ = [
    "MicrobenchExperiment",
    "MicrobenchResult",
    "execute_all_strategies",
    "run_all_strategies",
    "run_microbenchmark",
]

_CACHE_LINE = 64


@dataclass
class MicrobenchResult:
    """Timing decomposition of one microbenchmark execution."""

    strategy: str
    nbytes: int
    initiator: FlowResult
    #: absolute time the target observed the payload (its app-level "done")
    target_completion_ns: int
    #: labeled spans per node: {(node, phase): (start, end)}
    spans: Dict[Tuple[str, str], Tuple[int, int]] = field(default_factory=dict)
    #: verified payload correctness
    payload_ok: bool = True
    memory_hazards: int = 0

    @property
    def kernel_exec_ns(self) -> Optional[int]:
        span = self.spans.get(("initiator", "kernel-exec"))
        return span[1] - span[0] if span else None

    @property
    def t0_ns(self) -> int:
        """The paper's Figure 8 time origin: the hardware kernel launch
        begins (for the CPU flow, when its compute begins)."""
        span = self.spans.get(("initiator", "kernel-launch"))
        if span is not None:
            return span[0]
        span = self.spans.get(("initiator", "cpu-compute"))
        return span[0] if span is not None else 0

    @property
    def normalized_target_completion_ns(self) -> int:
        """Target completion measured from :attr:`t0_ns` -- directly
        comparable to the paper's Figure 8 bars (host-side registration
        work before the launch is off the measured critical path)."""
        return self.target_completion_ns - self.t0_ns

    def speedup_vs(self, other: "MicrobenchResult") -> float:
        """How much faster this strategy reached target completion."""
        return (other.normalized_target_completion_ns
                / self.normalized_target_completion_ns)


class MicrobenchExperiment(Experiment):
    """The two-node ping as a runtime experiment.

    Parameters: ``strategy``, ``nbytes``, plus the GPU-TN-only knobs
    ``overlap_post`` / ``post_delay_ns``.  Always traces by default -- the
    whole point of this experiment is the span decomposition.
    """

    name = "microbench"
    defaults = {"strategy": "gputn", "nbytes": _CACHE_LINE,
                "overlap_post": False, "post_delay_ns": 0}

    _PATTERN = 0xC3
    _WIRE_TAG = 0x42

    def trace_default(self, params: Dict[str, Any]) -> bool:
        return True

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        return Cluster(n_nodes=2, config=config, trace=trace)

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        strategy, nbytes = params["strategy"], params["nbytes"]
        initiator, target = cluster[0], cluster[1]
        send_buf = initiator.host.alloc(nbytes, name="send")
        recv_buf = target.host.alloc(nbytes, name="recv")

        init_fn, target_fn = get_flow(strategy)
        kwargs = {}
        if strategy == "gputn":
            kwargs["overlap_post"] = params["overlap_post"]
            kwargs["post_delay_ns"] = params["post_delay_ns"]
        one_sided = strategy in ONE_SIDED_STRATEGIES
        remote_addr = recv_buf.addr() if one_sided else None

        target_proc = cluster.spawn(
            target_fn(target, recv_buf, nbytes, self._WIRE_TAG), name="target")
        init_proc = cluster.spawn(
            init_fn(initiator, target.name, send_buf, nbytes, remote_addr,
                    self._WIRE_TAG, pattern=self._PATTERN, **kwargs),
            name="initiator")
        # Initiator first: its failure is the one to surface, as before.
        return {"procs": [init_proc, target_proc], "recv_buf": recv_buf,
                "init_proc": init_proc, "target_proc": target_proc}

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]):
        nbytes = params["nbytes"]
        recv = ctx["recv_buf"].view(np.uint8)[:nbytes]
        payload_ok = bool((recv == self._PATTERN).all())
        result = MicrobenchResult(
            strategy=params["strategy"],
            nbytes=nbytes,
            initiator=ctx["init_proc"].value,
            target_completion_ns=ctx["target_proc"].value,
            payload_ok=payload_ok,
            memory_hazards=cluster.total_hazards(),
        )
        _collect_spans(cluster, cluster[0].name, cluster[1].name, result)
        metrics = {
            "target_completion_ns": result.target_completion_ns,
            "normalized_target_completion_ns":
                result.normalized_target_completion_ns,
            "t0_ns": result.t0_ns,
            "payload_ok": payload_ok,
            "network_posted": result.initiator.network_posted,
        }
        return metrics, result


def run_microbenchmark(config: Optional[SystemConfig] = None,
                       strategy: str = "gputn", nbytes: int = _CACHE_LINE,
                       overlap_post: bool = False,
                       post_delay_ns: int = 0) -> MicrobenchResult:
    """Run the two-node ping for one strategy and decompose its latency."""
    return MicrobenchExperiment().execute(
        {"strategy": strategy, "nbytes": nbytes, "overlap_post": overlap_post,
         "post_delay_ns": post_delay_ns},
        config=config,
    ).raw


def _collect_spans(cluster: Cluster, init_name: str, target_name: str,
                   result: MicrobenchResult) -> None:
    label = {init_name: "initiator", target_name: "target"}
    for span in cluster.tracer.spans:
        if span.end is None or span.node not in label:
            continue
        key = (label[span.node], span.phase)
        # Keep the widest span per phase (kernels/sends may nest probes).
        prev = result.spans.get(key)
        if prev is None or (span.end - span.start) > (prev[1] - prev[0]):
            result.spans[key] = (span.start, span.end)


def execute_all_strategies(config: Optional[SystemConfig] = None,
                           nbytes: int = _CACHE_LINE) -> Dict[str, Execution]:
    """Figure 8's full comparison with live clusters kept around, so the
    caller can export each strategy's tracer (``--export-trace``)."""
    experiment = MicrobenchExperiment()
    return {s: experiment.execute({"strategy": s, "nbytes": nbytes},
                                  config=config)
            for s in EVALUATED_STRATEGIES}


def run_all_strategies(config: Optional[SystemConfig] = None,
                       nbytes: int = _CACHE_LINE) -> Dict[str, MicrobenchResult]:
    """Figure 8's full comparison (cpu baseline included for reference)."""
    return {s: e.raw for s, e in execute_all_strategies(config, nbytes).items()}


def decomposition_rows(results: Dict[str, MicrobenchResult]) -> List[str]:
    """Render Figure 8 as text rows on one absolute time scale (us)."""
    rows: List[str] = []
    for strategy in ("gputn", "gds", "hdn"):
        r = results.get(strategy)
        if r is None:
            continue
        parts = []
        for phase in ("kernel-launch", "kernel-exec", "kernel-teardown"):
            span = r.spans.get(("initiator", phase))
            if span:
                parts.append(f"{phase.split('-')[1]}={(span[1] - span[0]) / 1000:.2f}us")
        posted = r.initiator.network_posted
        rows.append(
            f"{strategy.upper():>6}  initiator: {' '.join(parts)}"
            f"{'' if posted is None else f' post@{posted / 1000:.2f}us'}"
        )
        rows.append(
            f"{'':>6}  target complete @ {r.target_completion_ns / 1000:.2f}us"
        )
    return rows
