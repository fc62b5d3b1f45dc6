"""Measurement core: time workloads, aggregate, serialize.

Methodology
-----------

* Each workload runs ``repeat`` times; the *best* (minimum) wall time is
  reported, per standard microbenchmarking practice -- noise from the OS
  only ever makes a run slower, so the minimum is the best estimate of
  the true cost.  All raw per-run timings are kept in the report.  A
  run makes as many calls of the workload as last :data:`MIN_RUN_S`
  (sized by an untimed call after a warm-up call) and reports the time
  per call.
* Wall time is :func:`time.perf_counter` around a run's workload calls
  (construction included -- that is what a sweep pays per point).
* Host speed: a shared machine runs the same code up to twice as fast
  at one moment as at another.  Each timed run is bracketed by two runs
  of :func:`reference_seconds`, a fixed piece of pure-Python work that
  shares no code with the simulator, and is also reported *corrected*:
  scaled to the time it would have taken at the speed at which the
  reference takes :data:`REFERENCE_S`.  The regression gate compares
  corrected best times, so a slower or busier host does not read as a
  slower simulator, and a change that pops fewer events is not read as
  a slowdown because its events/sec fell.
* ``gc.collect()`` runs before every timed run so one workload's garbage
  is not billed to the next.
* Peak RSS is ``ru_maxrss`` (process-lifetime high-water mark, so it is
  reported once for the whole bench, not per workload).
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.bench.workloads import WORKLOADS

__all__ = ["DEFAULT_REPORT_PATH", "REFERENCE_S", "WORKLOADS", "BenchReport",
           "WorkloadResult", "compare_to_baseline", "measure_workload",
           "reference_seconds", "run_bench"]

#: Where ``repro bench --json`` writes by default (repo-root convention).
DEFAULT_REPORT_PATH = "BENCH_core.json"

#: Schema version of the JSON report (bump on breaking layout changes).
SCHEMA_VERSION = 1

#: Corrected wall times are reported at the host speed at which
#: :func:`reference_seconds` takes this long.
REFERENCE_S = 0.1

#: A timed run repeats a workload's call until it lasts at least this
#: long: a millisecond call timed alone reads the scheduler's noise, not
#: the simulator.  Wall times are reported per call.
MIN_RUN_S = 0.2


class _Slot:
    __slots__ = ("key", "uses")

    def __init__(self, key: int):
        self.key = key
        self.uses = 0

    def use(self) -> int:
        self.uses += 1
        return (self.key ^ self.uses) & 3


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work -- dict probes,
    small-object allocation, method calls, string formatting and a
    binary heap, the operations the simulator spends its time in -- that
    shares no code with the simulator.  The cyclic collector is off
    while it runs, so it does not depend on what the workloads left on
    the heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        slots: Dict[int, _Slot] = {}
        heap: List[Tuple[int, int]] = []
        acc = 0
        for i in range(80_000):
            slot = slots.get(i & 511)
            if slot is None:
                slot = slots[i & 511] = _Slot(i)
            acc += slot.use() + len(f"{i:x}")
            heapq.heappush(heap, ((i * 40503) & 4095, i))
            if len(heap) > 48:
                acc ^= heapq.heappop(heap)[1]
        return time.perf_counter() - t0
    finally:
        gc.enable()


@dataclass
class WorkloadResult:
    """Timing for one workload across all repeats."""

    name: str
    events: int
    best_wall_s: float
    wall_s: List[float] = field(default_factory=list)
    #: Reference-work times bracketing the runs: ``ref_s[i]`` before run
    #: ``i``, ``ref_s[i + 1]`` after it (empty for a journal written
    #: before host-speed correction).
    ref_s: List[float] = field(default_factory=list)
    #: Workload calls per timed run (``wall_s`` is per call).
    loops: int = 1

    @property
    def events_per_sec(self) -> float:
        return self.events / self.best_wall_s if self.best_wall_s > 0 else 0.0

    @property
    def corrected_wall_s(self) -> List[float]:
        """Each run's wall time at the reference host speed."""
        if len(self.ref_s) != len(self.wall_s) + 1:
            return []
        return [w * REFERENCE_S / ((self.ref_s[i] + self.ref_s[i + 1]) / 2)
                for i, w in enumerate(self.wall_s)]

    @property
    def best_corrected_s(self) -> Optional[float]:
        corrected = self.corrected_wall_s
        return min(corrected) if corrected else None

    def to_dict(self) -> Dict[str, object]:
        best = self.best_corrected_s
        return {
            "events": self.events,
            "best_wall_s": round(self.best_wall_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
            "wall_s": [round(w, 6) for w in self.wall_s],
            "ref_s": [round(r, 6) for r in self.ref_s],
            "loops": self.loops,
            "best_corrected_s": round(best, 6) if best is not None else None,
        }


@dataclass
class BenchReport:
    """One full bench run: per-workload results plus environment."""

    repeat: int
    results: List[WorkloadResult] = field(default_factory=list)
    peak_rss_kb: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_by": "repro bench",
            "repeat": self.repeat,
            "python": platform.python_version(),
            "platform": sys.platform,
            "peak_rss_kb": self.peak_rss_kb,
            "workloads": {r.name: r.to_dict() for r in self.results},
        }

    def write(self, path: str = DEFAULT_REPORT_PATH) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _peak_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    return int(rss // 1024) if sys.platform == "darwin" else int(rss)


def measure_workload(name: str, repeat: int):
    """Time one workload ``repeat`` times; returns a ``RunRecord``.

    This is the service layer's ``"bench"`` runner kernel (the record
    shape is what the job journal persists): ``metrics["events"]`` is
    the event count of the last call, ``metrics["wall_s"]`` every run's
    raw wall time per call, ``metrics["loops"]`` the calls per run and
    ``metrics["ref_s"]`` the reference-work times that bracket the runs
    (see :class:`WorkloadResult`).  Timings are never
    cached -- they are measurements of this machine, not of the
    simulation.
    """
    from repro.runtime.record import RunRecord

    fn = WORKLOADS[name]
    # One untimed call pays first-use costs (imports, lazy tables); a
    # second sizes the timed runs.
    fn()
    t0 = time.perf_counter()
    fn()
    loops = max(1, math.ceil(MIN_RUN_S / max(time.perf_counter() - t0, 1e-6)))
    events = 0
    walls: List[float] = []
    refs = [reference_seconds()]
    for _ in range(repeat):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(loops):
            events = fn()
        walls.append((time.perf_counter() - t0) / loops)
        refs.append(reference_seconds())
    return RunRecord(experiment="bench",
                     params={"workload": name, "repeat": repeat},
                     config_fingerprint="bench",
                     metrics={"events": int(events), "wall_s": walls,
                              "ref_s": refs, "loops": loops})


def compare_to_baseline(report: BenchReport, baseline: Dict[str, object],
                        max_drop: float = 0.20) -> List[str]:
    """Regression gate: slowdowns beyond ``max_drop`` vs ``baseline``.

    ``baseline`` is a parsed BENCH_core.json document.  Returns one
    human-readable line per workload whose best wall time *at reference
    host speed* (``best_corrected_s``) ran more than ``max_drop`` slower
    than the baseline's, i.e. whose speed ``1 / best_corrected_s`` fell
    by more than ``max_drop`` -- empty means the gate passes.  The gate
    reads time, not events/sec: a change that pops fewer events for the
    same work is not a slowdown.  Workloads present on only one side,
    or without corrected times on either side, are ignored: the gate
    guards the perf trajectory, not the workload roster.  Single-repeat
    runs are noisy (the committed methodology is repeat >= 3, see
    DESIGN.md §10); the gate still works on them, just expect flakes.
    """
    if not 0 < max_drop < 1:
        raise ValueError(f"max_drop must be in (0, 1), got {max_drop}")
    base_workloads = baseline.get("workloads", {})
    failures: List[str] = []
    for result in report.results:
        base = base_workloads.get(result.name) or {}
        base_s = base.get("best_corrected_s")
        best = result.best_corrected_s
        if not base_s or best is None:
            continue
        drop = 1.0 - float(base_s) / best
        if drop > max_drop:
            failures.append(
                f"{result.name}: best {best:.4f} s at reference speed is "
                f"{100 * drop:.1f}% slower than baseline {float(base_s):.4f} s "
                f"(allowed drop: {100 * max_drop:.0f}%)")
    return failures


def run_bench(workloads: Optional[Iterable[str]] = None, repeat: int = 3,
              quiet: bool = False, store=None) -> BenchReport:
    """Run the selected ``workloads`` (default: all) ``repeat`` times each.

    A thin client of :mod:`repro.service`: the bench is one job with one
    point per workload, always executed inline (timings must not pay
    fork overhead).  Pass ``store`` (a JobStore or path) to journal it;
    an interrupted bench then resumes with the already-measured
    workloads replayed from the journal instead of re-timed.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    picks = list(workloads) if workloads is not None else list(WORKLOADS)
    unknown = [w for w in picks if w not in WORKLOADS]
    if unknown:
        raise ValueError(
            f"unknown workload(s) {unknown}; available: {list(WORKLOADS)}")
    from repro.service.job import Job

    report = BenchReport(repeat=repeat)

    def on_point(event) -> None:
        m = event.record.metrics
        result = WorkloadResult(name=event.record.params["workload"],
                                events=int(m["events"]),
                                best_wall_s=min(m["wall_s"]),
                                wall_s=list(m["wall_s"]),
                                ref_s=list(m.get("ref_s", ())),
                                loops=int(m.get("loops", 1)))
        report.results.append(result)
        if not quiet:
            replayed = " (journal)" if event.source == "journal" else ""
            best = result.best_corrected_s
            corrected = f"{best:.3f}s" if best is not None else "-"
            print(f"{result.name:<12} events={result.events:>9,} "
                  f"best={result.best_wall_s:.3f}s "
                  f"at-ref={corrected:>7} "
                  f"rate={result.events_per_sec:>12,.0f} ev/s{replayed}")

    Job.from_bench(picks, repeat=repeat, store=store).run(
        jobs=1, progress=on_point)
    report.peak_rss_kb = _peak_rss_kb()
    if not quiet and report.peak_rss_kb is not None:
        print(f"peak rss    {report.peak_rss_kb:,} KiB")
    return report
