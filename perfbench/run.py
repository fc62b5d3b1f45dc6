"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload congestion-cold --seed 1 \
        --seconds 35 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics with unpatched
code, in wall time corrected for the host's speed drift
(:class:`HostSpeed`; the uncorrected figures are printed too).
``--trace 1`` alternates untraced and traced passes at ``jobs=1`` and
reports the per-layer metrics of :mod:`layers`.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give
the same numbers for people, plus the digest of the simulated results,
which must not change under a speed-only edit.

All state (result caches, job stores) lives in a per-run temporary
directory under ``.perfbench/`` and is removed on exit; traced runs also
leave their spans in ``.perfbench/spans/`` (gzipped JSON lines, one
line of span columns per traced pass).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import heapq
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

# Neither module imports ``repro`` at import time, so a checkout without
# ``src/`` still reaches the check in main().
import layers
from workloads import WORKLOADS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Set-up is repeated this many times per run and reported as a median.
SETUP_REPEATS = 3

#: The host speed end-to-end times are reported at: the speed at which
#: :func:`reference_seconds` takes this long.  See :class:`HostSpeed`.
REFERENCE_S = 0.2

END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_ratio", "_per_transmit")):
        return "ratio"
    return "count"


def import_seconds() -> float:
    """Wall time to import every ``repro`` module in a fresh interpreter
    (interpreter start-up excluded)."""
    code = ("import sys, time\n"
            f"sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]\n"
            "t = time.perf_counter()\n"
            "import layers\n"
            "layers.import_all_repro()\n"
            "print(time.perf_counter() - t)\n")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class _Entry:
    __slots__ = ("key", "hits")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0

    def touch(self) -> int:
        self.hits += 1
        return self.key & 7


def reference_seconds() -> float:
    """Wall time of a fixed piece of pure-Python work -- dict lookups,
    object allocation and method calls, a binary heap -- that shares no
    code with the program.  The cyclic garbage collector is off while it
    runs, so its time does not depend on how much the program left on
    the heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        heap: List[Tuple[int, int]] = []
        table: Dict[int, _Entry] = {}
        total = 0
        for i in range(150_000):
            entry = table.get(i & 1023)
            if entry is None:
                entry = table[i & 1023] = _Entry(i)
            total += entry.touch() + len(str(i)) + (i * i) % 7
            heapq.heappush(heap, (i * 7919 % 10007, i))
            if len(heap) > 64:
                total += heapq.heappop(heap)[1] & 3
        return time.perf_counter() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Corrects measured intervals for the drift of the host's speed.

    On a shared host the same code runs up to twice as fast at one time
    as at another (README, "Noise").  Each measured interval is bracketed
    by two runs of the reference work, and :meth:`scale` converts the
    interval to the time it would have taken at the speed at which the
    reference takes :data:`REFERENCE_S`.  The reference shares no code
    with the program, so a change to the program moves the corrected
    figures by the same factor as the raw ones.
    """

    def __init__(self) -> None:
        self.refs = [reference_seconds()]

    def scale(self) -> float:
        """Factor for the interval measured since the last call."""
        self.refs.append(reference_seconds())
        return REFERENCE_S / ((self.refs[-2] + self.refs[-1]) / 2)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its largest reaped child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


class Run:
    """One invocation: a workload, a seed, a scratch directory."""

    def __init__(self, workload: Any, tmp: Path, seconds: int):
        self.wl = workload
        self.tmp = tmp
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.digests: List[str] = []
        self._dirs = 0

    def scratch(self) -> Path:
        """A fresh, empty directory for one call's cache and job store."""
        self._dirs += 1
        path = self.tmp / f"call-{self._dirs}"
        path.mkdir()
        return path

    def setup(self, jobs: int, speed: HostSpeed
              ) -> Tuple[List[float], List[float], Any]:
        """Repeat set-up; returns the wall seconds of each, the same at
        reference speed, and the last prepared state."""
        raw, scaled, state = [], [], None
        for _ in range(SETUP_REPEATS):
            elapsed = import_seconds()
            t0 = time.perf_counter()
            self.wl.warmup()
            state = self.wl.prepare(self.scratch(), jobs)
            raw.append(elapsed + time.perf_counter() - t0)
            scaled.append(raw[-1] * speed.scale())
        return raw, scaled, state

    def timed_call(self, state: Any, jobs: int,
                   records: Callable[[], Any] = lambda: None
                   ) -> Tuple[float, Any]:
        """One timed call; the oracles run after the clock stops."""
        scratch = self.scratch()
        result = None
        t0 = time.perf_counter()
        try:
            result = self.wl.call(state, scratch, jobs)
        except Exception:  # a failed call counts its points as failed
            traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - t0
        outcome = self.wl.check(result, records())
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.results is not None:
            self.digests.append(digest(outcome.results))
        shutil.rmtree(scratch, ignore_errors=True)
        return elapsed, outcome

    def consistent(self) -> bool:
        """Every call produced the same simulated results."""
        return len(set(self.digests)) == 1


def end_to_end(run: Run, jobs: int) -> Tuple[Dict[str, float], bool]:
    originals = layers.snapshot(layers.targets())
    layers.assert_pristine(originals)
    speed = HostSpeed()
    raw_setup, setup, state = run.setup(jobs, speed)
    raw_rates, rates = [], []
    deadline = time.perf_counter() + run.seconds
    while True:
        layers.assert_pristine(originals)
        elapsed, _ = run.timed_call(state, jobs)
        raw_rates.append(run.wl.points / elapsed)
        rates.append(raw_rates[-1] / speed.scale())
        if time.perf_counter() >= deadline:
            break
    layers.assert_pristine(originals)
    print(f"calls {len(rates)}; points/s per call at reference speed: "
          + " ".join(f"{r:.3f}" for r in rates))
    print(f"reference work median {statistics.median(speed.refs):.4f} s "
          f"(reported at {REFERENCE_S} s); wall clock as measured: "
          f"points_per_s {statistics.median(raw_rates):.4f}, "
          f"setup_s {statistics.median(raw_setup):.4f}")
    return ({"points_per_s": statistics.median(rates),
             "setup_s": statistics.median(setup),
             "peak_rss_mb": peak_rss_mb()}, run.consistent())


def traced(run: Run, spans_path: Path) -> Tuple[Dict[str, float], bool]:
    targets = layers.targets()
    originals = layers.snapshot(targets)
    run.wl.warmup()
    state = run.wl.prepare(run.scratch(), 1)
    untraced_s, traced_s, passes, tracers = [], [], [], []
    deadline = time.perf_counter() + run.seconds
    while True:
        layers.assert_pristine(originals)
        elapsed, _ = run.timed_call(state, 1)
        untraced_s.append(elapsed)
        tracer = layers.Tracer()
        with tracer.installed(targets):
            elapsed, outcome = run.timed_call(state, 1, lambda: tracer.records)
        layers.assert_pristine(originals)
        traced_s.append(elapsed)
        passes.append(layers.layer_metrics(tracer, outcome.cache_stats))
        tracers.append(tracer)
        if time.perf_counter() >= deadline:
            break
    exact = all(p[name] == passes[0][name]
                for p in passes for name in layers.EXACT_METRICS)
    metrics = {name: statistics.median(p[name] for p in passes)
               for name in passes[0]}
    for name in layers.EXACT_METRICS:
        metrics[name] = passes[0][name]
    base = statistics.median(untraced_s)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_s) - base) / base)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", compresslevel=1) as fh:
        for index, tracer in enumerate(tracers):
            fh.write(json.dumps({"pass": index, **tracer.spans()}) + "\n")
    print(f"passes {len(passes)}; spans in {spans_path.relative_to(ROOT)}")
    return metrics, run.consistent() and exact


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    layers.import_all_repro()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    # Nothing the program writes by default may land in the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    os.environ["REPRO_JOBS_DIR"] = str(tmp / "default-jobs")
    try:
        workload = WORKLOADS[args.workload](args.seed)
        run = Run(workload, tmp, args.seconds)
        if args.trace:
            spans = WORK / "spans" / f"{workload.name}-seed{args.seed}.jsonl.gz"
            metrics, consistent = traced(run, spans)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            jobs = len(os.sched_getaffinity(0)) if workload.uses_workers else 1
            print(f"workload {workload.name}: {workload.points} points a "
                  f"call, jobs={jobs}")
            metrics, consistent = end_to_end(run, jobs)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    correct = run.failed == 0 and consistent and run.attempted > 0
    error_rate = run.failed / run.attempted if run.attempted else 1.0
    for name, value in metrics.items():
        print(f"{name:34s} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':34s} {error_rate:>16.6g} ratio "
          f"({run.failed}/{run.attempted} points)")
    print(f"digest {workload.name} "
          + (run.digests[0] if run.digests else "none")
          + ("" if consistent else " (NOT REPEATED)"))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
