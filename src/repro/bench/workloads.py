"""The benchmark workloads: callables returning processed-event counts.

Each workload is a zero-argument callable that builds everything it
needs, runs to completion, and returns the number of simulation events
processed -- the numerator of the events/sec figure.  Wall time is
measured *around* the call by :mod:`repro.bench.harness`, so workloads
must not do heavyweight setup lazily inside cached module state (every
call pays full construction, deliberately: that is what a sweep pays).

Compatibility: these functions run unmodified against older checkouts
(no ``call_later``, no ``events_processed``) so one harness can measure
both sides of an engine change.
"""

from __future__ import annotations

from typing import Callable, Dict

__all__ = ["WORKLOADS", "engine_stress"]


def _events_of(sim) -> int:
    """Processed-event count with a fallback for older engines that only
    expose the scheduling sequence counter."""
    return int(getattr(sim, "events_processed", None) or sim._seq)


# --------------------------------------------------------------- raw engine
def engine_stress(n_rounds: int = 200_000) -> int:
    """Pure engine throughput: fan-out callback chains plus one pump
    process, no hardware models on the path.

    This is the number the ISSUE's 1.3x acceptance gate is measured on:
    heap push/pop, callback dispatch and the allocation path, nothing
    else.  Counts its *own* callback invocations so the figure is
    comparable across engines that count processed events differently.
    """
    from repro.sim.engine import Simulator

    sim = Simulator()
    counter = [0]
    post = getattr(sim, "call_later", None)
    if post is None:  # pre-freelist engine: same semantics, slower path
        def post(delay, fn, *args):
            sim.schedule(delay, fn, *args)

    fan = 4

    def tick(depth: int) -> None:
        counter[0] += 1
        if depth > 0:
            for i in range(fan):
                post(i + 1, tick, depth - 1)

    def pump():
        while counter[0] < n_rounds:
            post(1, tick, 2)
            yield sim.timeout(3)

    sim.spawn(pump())
    sim.run()
    return counter[0]


# ------------------------------------------------------------- full system
def fig8_microbench() -> int:
    """The paper's Figure 8 two-node ping (GPU-TN strategy), untraced."""
    from repro.apps.microbench import MicrobenchExperiment

    execution = MicrobenchExperiment().execute({"strategy": "gputn"},
                                               trace=False)
    return _events_of(execution.cluster.sim)


def jacobi_small() -> int:
    """One iteration of the 2x2-rank Jacobi halo exchange (128x128)."""
    from repro.apps.jacobi import JacobiExperiment

    execution = JacobiExperiment().execute(
        {"strategy": "gputn", "n": 128, "px": 2, "py": 2, "iters": 1,
         "seed": 7})
    return _events_of(execution.cluster.sim)


def ring_allreduce() -> int:
    """A 4-node 256 KiB ring allreduce (the ``repro stats`` smoke size)."""
    from repro.collectives import AllreduceExperiment

    execution = AllreduceExperiment().execute(
        {"strategy": "gputn", "nbytes": 256 * 1024})
    return _events_of(execution.cluster.sim)


def transport_recovery() -> int:
    """One loaded congestion-study point: GPU-TN foreground over
    selective repeat with AIMD pacing, load 0.8, RED+ECN queues on the
    16-node fat tree.  No fault plan is armed, so the only loss is queue
    drops: of 2,373 data sends, 7 fast retransmits, 1 timeout and 1
    retransmit.  It times the loaded reliable path -- send, SACK, ECN
    window cuts (360), switch queues -- not loss recovery."""
    from repro.apps.congestion import CongestionExperiment

    execution = CongestionExperiment().execute(
        {"strategy": "gputn", "transport": "selective-repeat",
         "discipline": "red-ecn", "load": 0.8, "messages": 16,
         "bg_horizon_ns": 60_000}, trace=False)
    return _events_of(execution.cluster.sim)


#: name -> zero-argument callable returning the event count.
WORKLOADS: Dict[str, Callable[[], int]] = {
    "engine": engine_stress,
    "microbench": fig8_microbench,
    "jacobi": jacobi_small,
    "allreduce": ring_allreduce,
    "transport": transport_recovery,
}
