"""Performance harness for the simulator itself (``repro bench``).

The reproduction's headline numbers are *simulated* nanoseconds, but the
cost of producing them is *wall-clock* seconds of discrete-event
simulation.  This package times the standard workloads -- the Figure 8
microbenchmark, a small Jacobi solve, a ring allreduce, and a raw-engine
event stress loop -- and reports events/sec, wall time and peak RSS, so
engine optimizations are held to a measured standard
(``BENCH_core.json`` at the repo root, committed at ``repeat >= 3`` with
every raw sample recorded; CI re-times at 3 repeats and fails when a
workload's best wall time, corrected for host speed by a pure-Python
reference timed in the same run, is >20% slower than the committed file's
via :func:`compare_to_baseline`).

The harness intentionally depends only on long-stable simulator surface
(falling back from :meth:`~repro.sim.Simulator.call_later` to
:meth:`~repro.sim.Simulator.schedule`, and from ``events_processed`` to
the scheduling counter), so the *same* harness can be run against older
checkouts to produce comparable baselines.
"""

from repro.bench.harness import (
    DEFAULT_REPORT_PATH,
    REFERENCE_S,
    WORKLOADS,
    BenchReport,
    WorkloadResult,
    compare_to_baseline,
    reference_seconds,
    run_bench,
)

__all__ = [
    "DEFAULT_REPORT_PATH",
    "REFERENCE_S",
    "WORKLOADS",
    "BenchReport",
    "WorkloadResult",
    "compare_to_baseline",
    "reference_seconds",
    "run_bench",
]
