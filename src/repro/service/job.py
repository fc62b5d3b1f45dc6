"""Jobs: submit a campaign, stream its progress, resume after a kill.

A :class:`Job` binds a :class:`~repro.service.spec.JobSpec` to an
optional :class:`~repro.service.store.JobStore` and runs it through the
:class:`~repro.service.queue.WorkQueue`:

* **ephemeral** (``store=None``) -- what ``Sweep.run`` uses: no disk
  state beyond the result cache, no signal handling, byte-identical to
  the pre-service synchronous sweep;
* **stored** -- the job directory journals every completed point, and
  SIGINT/SIGTERM trigger *cooperative preemption*: dispatch stops,
  in-flight points finish and are journaled, the job is marked
  ``preempted`` and :class:`JobPreempted` is raised with the resume
  handle.  Re-running the same job (``Job.load`` or resubmitting the
  identical spec) replays the journal and executes only the holes.

Point resolution order (per point, cheapest source wins):
journal -> result cache (parent-side get, counted on the caller's cache
object) -> execution.  Each executed record is journaled and then put
into the cache, both in the submitting process, so workers never touch
either.  Records always come back **in point order**, whatever order
workers finish in.
"""

from __future__ import annotations

import queue as _queue
import signal
import threading
import time
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.config import SystemConfig, default_config
from repro.runtime.cache import ResultCache
from repro.runtime.record import RunRecord, config_fingerprint
from repro.service.queue import WorkQueue
from repro.service.runners import SweepRunner, SweepState, get_runner
from repro.service.spec import JobSpec
from repro.service.store import JobStore, _maybe_store

__all__ = ["Job", "JobPreempted", "PointDone"]


@dataclass(frozen=True)
class PointDone:
    """Streamed once per resolved point, as soon as it resolves."""

    job_id: str
    index: int
    total: int
    #: Points resolved so far, this one included.
    done: int
    #: Where the record came from: ``"run"`` (computed), ``"cache"`` or
    #: ``"journal"``.
    source: str
    record: RunRecord


class JobPreempted(RuntimeError):
    """Raised when SIGINT/SIGTERM preempted a stored job; the journal
    holds everything completed, so the job resumes from where it stopped."""

    def __init__(self, job_id: str, done: int, total: int):
        super().__init__(
            f"job {job_id} preempted after {done}/{total} points; "
            f"resume with Job.load(store, {job_id!r}).run() or "
            f"`python -m repro jobs resume {job_id}`")
        self.job_id = job_id
        self.done = done
        self.total = total


Progress = Callable[[PointDone], None]


class Job:
    """One submitted campaign: spec + optional store + run state."""

    def __init__(self, spec: JobSpec, store: Union[JobStore, str, None] = None,
                 *, state: Any = None):
        self.spec = spec
        self.store = _maybe_store(store)
        self.id = spec.job_id()
        self._runner = get_runner(spec.runner)
        self._state = (state if state is not None
                       else self._runner.init(self._materialize_payload()))
        #: The result cache this job probes and fills (``None`` when it
        #: runs uncached).
        self.cache: Optional[ResultCache] = getattr(self._state, "cache", None)
        self._cancelled = False
        self._remote: Any = None
        self._cancel_checked_at = 0.0
        #: Source tally of the last run:
        #: {"journal": n, "cache": n, "run": n}.
        self.stats: Dict[str, int] = {}
        #: Dispatch tally of the last run (parallel/remote executions):
        #: {"local": n, "remote": n, "reissued": n}.
        self.queue_stats: Dict[str, int] = {}
        if self.store is not None:
            self._materialize_payload()
            self.store.create(self.spec)

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_sweep(cls, sweep: Any, config: Optional[SystemConfig] = None,
                   cache: Optional[ResultCache] = None,
                   store: Union[JobStore, str, None] = None) -> "Job":
        """Wrap a :class:`~repro.runtime.sweep.Sweep` as a job.

        The caller's ``cache`` object is used directly for every get
        (its hit/miss counters keep working) and every put.
        """
        config = config or default_config()
        store = _maybe_store(store)
        spec = JobSpec(
            runner=SweepRunner.name,
            experiment=sweep.experiment.name,
            points=tuple(sweep.sweep_points()),
            # The *base* config: it names the job.  Cache keys use each
            # point's effective config (Experiment.resolve_point).
            config_fingerprint=config_fingerprint(config),
            cache_root=str(cache.root) if cache is not None else None,
        )
        state = SweepState(experiment=sweep.experiment, config=config,
                           cache=cache)
        return cls(spec, store=store, state=state)

    @classmethod
    def from_bench(cls, workloads: Sequence[str], repeat: int,
                   store: Union[JobStore, str, None] = None) -> "Job":
        """Wrap a :mod:`repro.bench` run (one point per workload)."""
        spec = JobSpec(
            runner="bench",
            experiment="bench",
            points=tuple({"workload": w, "repeat": repeat} for w in workloads),
            config_fingerprint="bench",
            payload=b"",
        )
        return cls(spec, store=store)

    @classmethod
    def load(cls, store: Union[JobStore, str, None], job_id: str) -> "Job":
        """Rehydrate a stored job (e.g. to resume after a kill)."""
        store = _maybe_store(store) or JobStore()
        return cls(store.load(job_id), store=store)

    # ------------------------------------------------------------------ control
    def cancel(self) -> None:
        """Cooperatively stop: no new points dispatch, in-flight finish.

        Callable from a progress callback (fail-fast campaigns) or
        another thread.  The job's records list keeps ``None`` holes for
        the points that never ran.
        """
        self._cancelled = True

    def listen(self, address: Union[int, str, Tuple[str, int]] = 0
               ) -> Tuple[str, int]:
        """Open this job to remote workers; returns ``(host, port)``.

        ``address`` is a port (``0`` = ephemeral), ``"host:port"``, or a
        ``(host, port)`` tuple.  Workers join with ``python -m repro
        worker serve --connect HOST:PORT``; they are mixed with the
        local pool by the next :meth:`run`'s dispatcher.  The dispatcher
        is closed when the run finishes.
        """
        from repro.service.remote import RemoteDispatcher, _parse_hostport
        if self._remote is not None:
            return self._remote.address
        host, port = _parse_hostport(address, default_host="0.0.0.0")
        self._remote = RemoteDispatcher(
            host, port, job_id=self.id, runner_name=self.spec.runner,
            payload=self._materialize_payload())
        return self._remote.address

    def _cancel_poll(self, interval_s: float = 0.5) -> bool:
        """Throttled probe of the store's ``cancel.requested`` marker
        (the ``repro jobs cancel`` path); sticky once seen."""
        if self._cancelled or self.store is None:
            return self._cancelled
        now = time.monotonic()
        if now - self._cancel_checked_at < interval_s:
            return False
        self._cancel_checked_at = now
        if self.store.cancel_requested(self.id):
            self._cancelled = True
        return self._cancelled

    # --------------------------------------------------------------------- run
    def run(self, jobs: int = 1, progress: Optional[Progress] = None
            ) -> List[Optional[RunRecord]]:
        """Execute the job; returns records in point order.

        ``jobs`` local workers (``0`` = remote-only, needs a prior
        :meth:`listen`) plus any remote workers that join.  Every entry is a
        :class:`RunRecord` unless the job was cancelled mid-run (the
        unreached points stay ``None``).  Raises :class:`JobPreempted`
        if a stored job caught SIGINT/SIGTERM.
        """
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if jobs == 0 and self._remote is None:
            raise ValueError("jobs=0 is remote-only; call listen() first "
                             "so workers can join")
        self._cancelled = False
        self._cancel_checked_at = 0.0
        if self.store is not None:
            # A deliberate (re)run overrides any stale cancel marker.
            self.store.clear_cancel(self.id)
        points = self.spec.points
        total = len(points)
        records: List[Optional[RunRecord]] = [None] * total
        self.stats = {"journal": 0, "cache": 0, "run": 0}
        done = 0

        def emit(index: int, record: RunRecord, source: str) -> None:
            nonlocal done
            records[index] = record
            done += 1
            self.stats[source] += 1
            if source == "run":
                if self.store is not None:
                    self.store.append_point(self.id, index, record)
                if self.cache is not None:
                    self.cache.put(record)
            if progress is not None:
                progress(PointDone(job_id=self.id, index=index, total=total,
                                   done=done, source=source, record=record))

        # 1. Journal replay (stored jobs only): completed points are free.
        if self.store is not None:
            for index, record in sorted(self.store.completed(self.id).items()):
                if 0 <= index < total and records[index] is None:
                    emit(index, record, "journal")

        # 2. Result cache, probed in the submitting process.
        pending: List[int] = []
        for index, point in enumerate(points):
            if records[index] is not None:
                continue
            hit = self._runner.lookup(self._state, point)
            if hit is not None:
                emit(index, hit, "cache")
            else:
                pending.append(index)

        # 3. Execute the holes.
        preempted = threading.Event()
        restore = self._install_signal_handlers(preempted)
        if self.store is not None:
            self.store.set_meta(self.id, status="running", total=total,
                                done=done, experiment=self.spec.experiment)
        try:
            wq = WorkQueue(
                runner=self._runner, state=self._state,
                runner_name=self.spec.runner,
                payload=(self._materialize_payload()
                         if (jobs > 1 and len(pending) > 1)
                         or self._remote is not None else None),
                jobs=jobs, remote=self._remote)
            wq.execute(
                pending, points,
                on_done=emit,
                should_stop=lambda: (self._cancelled or preempted.is_set()
                                     or self._cancel_poll()))
            self.queue_stats = dict(wq.stats)
        except BaseException:
            self._set_status("failed", done, total)
            raise
        finally:
            restore()
            if self._remote is not None:
                self._remote.close(final=True)
                self._remote = None
        if preempted.is_set():
            self._set_status("preempted", done, total)
            raise JobPreempted(self.id, done, total)
        if self._cancelled:
            self._set_status("cancelled", done, total)
            return records
        self._set_status("done", done, total)
        return records

    def stream(self, jobs: int = 1) -> Iterator[PointDone]:
        """Iterator flavour of :meth:`run`: yields :class:`PointDone`
        events as points resolve (the run happens in a helper thread, so
        signal-based preemption is disabled; use :meth:`cancel`)."""
        events: _queue.Queue = _queue.Queue()
        outcome: Dict[str, Any] = {}

        def work() -> None:
            try:
                outcome["records"] = self.run(jobs=jobs, progress=events.put)
            except BaseException as exc:  # re-raised in the consumer
                outcome["error"] = exc
            finally:
                events.put(None)

        worker = threading.Thread(target=work, daemon=True)
        worker.start()
        while True:
            event = events.get()
            if event is None:
                break
            yield event
        worker.join()
        if "error" in outcome:
            raise outcome["error"]

    # ---------------------------------------------------------------- internals
    def records(self) -> List[Optional[RunRecord]]:
        """Journaled records (stored jobs), in point order, ``None`` holes."""
        out: List[Optional[RunRecord]] = [None] * len(self.spec.points)
        if self.store is not None:
            for index, record in self.store.completed(self.id).items():
                if 0 <= index < len(out):
                    out[index] = record
        return out

    def status(self) -> Dict[str, Any]:
        """Stored status plus live journal counts."""
        meta = dict(self.store.meta(self.id)) if self.store is not None else {}
        meta.setdefault("status", "ephemeral")
        meta["job_id"] = self.id
        meta["total"] = len(self.spec.points)
        meta["experiment"] = self.spec.experiment
        if self.store is not None:
            meta["journaled"] = len(self.store.completed(self.id))
            if self.store.cancel_requested(self.id):
                meta["cancel_requested"] = True
        return meta

    def _set_status(self, status: str, done: int, total: int) -> None:
        if self.store is not None:
            self.store.set_meta(self.id, status=status, done=done, total=total,
                                sources=dict(self.stats),
                                dispatch=dict(self.queue_stats))

    def _materialize_payload(self) -> bytes:
        if self.spec.payload is None:
            payload = self._runner.payload_from_state(self._state)
            self.spec = replace(self.spec, payload=payload)
        return self.spec.payload

    def _install_signal_handlers(self, preempted: threading.Event
                                 ) -> Callable[[], None]:
        """Arm cooperative preemption on SIGINT/SIGTERM for stored jobs.

        Ephemeral jobs keep default delivery (KeyboardInterrupt /
        termination), preserving pre-service ``Sweep.run`` behaviour.
        The handler restores the previous disposition as it fires, so a
        second signal interrupts hard.
        """
        if (self.store is None
                or threading.current_thread() is not threading.main_thread()):
            return lambda: None
        previous: Dict[int, Any] = {}

        def on_signal(signum: int, frame: Any) -> None:
            preempted.set()
            for sig, old in previous.items():
                signal.signal(sig, old)

        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, on_signal)

        def restore() -> None:
            for sig, old in previous.items():
                if signal.getsignal(sig) is on_signal:
                    signal.signal(sig, old)
        return restore
