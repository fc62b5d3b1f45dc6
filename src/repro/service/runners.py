"""Runners: how one job point becomes one :class:`RunRecord`.

A runner is the pluggable execution kernel of the service layer.  It is
deliberately split into a *state* built once per process and a per-point
``run``: the :class:`~repro.service.queue.WorkQueue` ships the pickled
payload to each worker exactly once -- at fork for local workers, in the
handshake welcome for remote ones -- and sends only ``(index, point)``
per task, so a 1024-point sweep pickles its experiment and config once
per worker instead of 1024 times.

Two runners exist:

* ``"sweep"`` -- runs an :class:`~repro.runtime.experiment.Experiment`
  at one parameter point.  Its working set names the job's
  :class:`~repro.runtime.cache.ResultCache`, which only the submitting
  process uses: :meth:`SweepRunner.lookup` probes it before dispatch and
  the :class:`~repro.service.job.Job` puts each executed record;
* ``"bench"`` -- times one :mod:`repro.bench` workload in-process
  (always executed inline, never forked: wall-clock timings must not pay
  pool overhead).

Runners are registered by name (:func:`register_runner`) so a journaled
job can be resumed -- or a remote worker recruited -- by a fresh process
that only knows the name.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.config import SystemConfig
from repro.runtime.cache import ResultCache
from repro.runtime.experiment import Experiment
from repro.runtime.record import RunRecord

__all__ = ["BenchRunner", "SweepRunner", "get_runner", "register_runner"]


# --------------------------------------------------------------------- sweep
@dataclass
class SweepState:
    """Per-process working set of a sweep job."""

    experiment: Experiment
    config: SystemConfig
    cache: Optional[ResultCache]


class SweepRunner:
    """Experiment-point execution."""

    name = "sweep"

    @staticmethod
    def payload_from_state(state: SweepState) -> bytes:
        # The cache root rides along so a stored job resumed by a fresh
        # process keeps the cache it was submitted with.
        cache_root = str(state.cache.root) if state.cache is not None else None
        return pickle.dumps((state.experiment, state.config, cache_root))

    @staticmethod
    def init(payload: bytes) -> SweepState:
        # Stored jobs from older releases carry a fourth element, a
        # checkpoint policy or ``None``; only the first three matter.
        doc = _LegacyPayloadUnpickler(io.BytesIO(payload)).load()
        experiment, config, cache_root = doc[:3]
        cache = ResultCache(cache_root) if cache_root is not None else None
        return SweepState(experiment=experiment, config=config, cache=cache)

    @staticmethod
    def lookup(state: SweepState, point: Dict[str, Any]) -> Optional[RunRecord]:
        """Parent-side cache probe (counts hits/misses on the caller's
        cache object, exactly like the pre-service ``Sweep.run``).

        Keys on the point's *effective* config fingerprint -- the one
        :meth:`Experiment.execute` stamps on the record it puts -- so an
        experiment whose ``configure()`` rewrites the config still hits.
        """
        if state.cache is None:
            return None
        params, _, config_fp = state.experiment.resolve_point(point,
                                                               state.config)
        return state.cache.get(state.experiment.name, params, config_fp)

    @staticmethod
    def run(state: SweepState, index: int,
            point: Dict[str, Any]) -> Tuple[RunRecord, str]:
        """Execute one point; returns ``(record, "run")``."""
        return state.experiment.run(point, state.config), "run"


class _Discarded:
    """Stand-in for a class that only old payloads reference."""


class _LegacyPayloadUnpickler(pickle.Unpickler):
    """Unpickles sweep payloads, including older ones whose fourth
    element is the policy object of the removed checkpoint package."""

    def find_class(self, module: str, name: str) -> Any:
        if module.split(".")[:2] == ["repro", "checkpoint"]:
            return _Discarded
        return super().find_class(module, name)


# --------------------------------------------------------------------- bench
class BenchRunner:
    """One :mod:`repro.bench` workload timed ``point["repeat"]`` times."""

    name = "bench"

    @staticmethod
    def payload_from_state(state: None) -> bytes:
        return b""

    @staticmethod
    def init(payload: bytes) -> None:
        return None

    @staticmethod
    def lookup(state: None, point: Dict[str, Any]) -> Optional[RunRecord]:
        return None  # timings are never cacheable

    @staticmethod
    def run(state: None, index: int,
            point: Dict[str, Any]) -> Tuple[RunRecord, str]:
        # Imported lazily: repro.bench.harness is a *client* of the
        # service layer, so the module-level dependency points the other
        # way and would be circular here.
        from repro.bench.harness import measure_workload
        return measure_workload(point["workload"], point["repeat"]), "run"


_RUNNERS = {SweepRunner.name: SweepRunner, BenchRunner.name: BenchRunner}


def get_runner(name: str):
    try:
        return _RUNNERS[name]
    except KeyError:
        raise KeyError(f"unknown job runner {name!r}; "
                       f"registered: {sorted(_RUNNERS)}") from None


def register_runner(runner):
    """Register a runner class under ``runner.name`` (usable as a
    decorator).  Local workers inherit registrations through fork;
    remote workers must import the registering module before serving
    (e.g. via ``PYTHONPATH``)."""
    _RUNNERS[runner.name] = runner
    return runner


# ------------------------------------------------------------ worker plumbing
def _portable_error(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a plain
    ``RuntimeError`` carrying its repr -- failures must always cross the
    process/socket boundary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc!r}")


def _worker_main(wid: int, runner_name: str, payload: bytes,
                 tasks: Any, results: Any) -> None:
    """Local worker-process loop: unpickle the working set once, then
    run ``(index, point)`` tasks until the ``None`` sentinel.

    Every outcome is reported on ``results`` in the dispatcher's unified
    item shape: ``("done", wid, (index, record, source))`` or
    ``("err", wid, (index_or_None, exc))`` -- ``index=None`` marks an
    init failure, which is fatal for the job (the payload is broken for
    every worker, not just this one).
    """
    try:
        runner = get_runner(runner_name)
        state = runner.init(payload)
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        results.put(("err", wid, (None, _portable_error(exc))))
        return
    while True:
        task = tasks.get()
        if task is None:
            return
        index, point = task
        try:
            record, source = runner.run(state, index, point)
        except Exception as exc:
            results.put(("err", wid, (index, _portable_error(exc))))
        else:
            results.put(("done", wid, (index, record, source)))
