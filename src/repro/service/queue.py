"""The work queue: shard pending points across local and remote workers.

:class:`WorkQueue` owns only *execution*; journaling, caching, progress
and preemption policy live in :class:`~repro.service.job.Job`, which
drives it through two callbacks:

* ``on_done(index, record, source)`` -- invoked in the submitting
  process for every finished point, in completion order; ``source`` is
  the runner's tag for how the point resolved (``"run"`` for the
  shipped runners);
* ``should_stop()`` -- polled between dispatches; once true, no new
  point is handed to a worker.  In-flight points still finish (and are
  reported through ``on_done``), which is what makes cancellation and
  preemption *cooperative*: nothing is lost, the job is simply cut short
  at a journaled boundary.

Execution is a single bounded-window dispatcher over a heterogeneous
worker set: per-point task endpoints that are either forked local
processes (:class:`_LocalWorker`) or TCP-connected remote workers
(:class:`~repro.service.remote.RemoteEndpoint`, adopted live from a
:class:`~repro.service.remote.RemoteDispatcher` as they connect).  The
window -- at most ``max(4, 2 * jobs)`` points outstanding across all
endpoints -- is what gives ``should_stop`` its bite *and* what bounds
submission memory: a cancel request stops the queue within one window,
not after the whole grid, and a million-point campaign never
materializes more than a window of in-flight work.

Fault model: endpoints die (a local worker SIGKILLed, a remote
connection dropped).  The dispatcher buries the endpoint, requeues its
in-flight point at the *front* of the todo deque, and reissues it to
the next free endpoint -- at most :data:`MAX_POINT_ATTEMPTS` times, so
a poison point that kills every worker it touches fails the job instead
of looping forever.  A completion that raced the death notice (record
already on the wire when the worker died) is deduplicated by index:
each point is reported through ``on_done`` exactly once.

Determinism: each point is an isolated, deterministic simulation, so
records are byte-identical regardless of worker count, worker locality,
completion order, or how many times a death forced a reissue; the Job
reassembles them by index into point order.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue as _queue
import threading
from typing import Any, Callable, Dict, Optional, Sequence

from collections import deque

from repro.runtime.record import RunRecord
from repro.service.runners import _worker_main

__all__ = ["WorkQueue", "MAX_POINT_ATTEMPTS"]

OnDone = Callable[[int, RunRecord, str], None]
ShouldStop = Callable[[], bool]

#: A point is reissued after an endpoint death at most this many times
#: before the job fails with a poison-point error.
MAX_POINT_ATTEMPTS = 3


# ------------------------------------------------------------- local endpoint
class _LocalWorker:
    """A forked worker process behind the endpoint interface.

    Same contract as :class:`repro.service.remote.RemoteEndpoint`:
    ``capacity`` concurrent tasks (always 1), ``send_task``, ``alive``,
    ``shutdown``.  Results land on the shared ``results`` queue in the
    unified item shape (see :func:`~repro.service.runners._worker_main`).
    """

    kind = "local"
    capacity = 1

    def __init__(self, wid: int, runner_name: str, payload: bytes,
                 results: multiprocessing.Queue):
        self.wid = wid
        self._tasks: multiprocessing.SimpleQueue = multiprocessing.SimpleQueue()
        self._proc = multiprocessing.Process(
            target=_worker_main,
            args=(wid, runner_name, payload, self._tasks, results),
            daemon=True)
        self._proc.start()
        self._sent_sentinel = False

    def alive(self) -> bool:
        return self._proc.is_alive()

    def send_task(self, index: int, point: Dict[str, Any]) -> None:
        self._tasks.put((index, point))

    def shutdown(self, final: bool = True) -> None:
        if not self._sent_sentinel:
            self._sent_sentinel = True
            try:
                self._tasks.put(None)
            except (OSError, ValueError):  # pragma: no cover - dead pipe
                pass
        self._proc.join(timeout=1.0)
        if self._proc.is_alive():  # pragma: no cover - wedged worker
            self._proc.terminate()
            self._proc.join(timeout=1.0)


# ------------------------------------------------------------------ the queue
class WorkQueue:
    """Executes ``(index, point)`` tasks for one job's runner.

    ``jobs`` local workers (``0`` = none: remote-only) are mixed with
    whatever remote endpoints the optional ``remote`` dispatcher has
    accepted, behind one bounded window of ``max(4, 2 * jobs)``
    in-flight points.  ``stats`` tallies, per execution,
    how many points each worker kind completed and how many were
    reissued after an endpoint death.
    """

    def __init__(self, runner: Any, state: Any, runner_name: str,
                 payload: Optional[bytes], jobs: int, *,
                 remote: Any = None):
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        if jobs == 0 and remote is None:
            raise ValueError("jobs=0 needs a remote dispatcher to supply "
                             "workers")
        self.runner = runner
        self.state = state
        self.runner_name = runner_name
        self.payload = payload
        self.jobs = jobs
        self.remote = remote
        self.stats: Dict[str, int] = {"local": 0, "remote": 0, "reissued": 0}

    # ------------------------------------------------------------------ entry
    def execute(self, pending: Sequence[int],
                points: Sequence[Dict[str, Any]],
                on_done: OnDone, should_stop: ShouldStop) -> None:
        """Run every pending point (unless stopped); see module doc."""
        if not pending:
            return
        if self.remote is None and (self.jobs == 1 or len(pending) == 1):
            self._execute_inline(pending, points, on_done, should_stop)
        else:
            self._execute_dispatch(pending, points, on_done, should_stop)

    # ----------------------------------------------------------------- inline
    def _execute_inline(self, pending: Sequence[int],
                        points: Sequence[Dict[str, Any]],
                        on_done: OnDone, should_stop: ShouldStop) -> None:
        """Serial path: runs in-process against the parent's own state,
        so bench timings pay no fork overhead."""
        for index in pending:
            if should_stop():
                return
            record, source = self.runner.run(self.state, index, points[index])
            self.stats["local"] += 1
            on_done(index, record, source)

    # --------------------------------------------------------------- dispatch
    def _execute_dispatch(self, pending: Sequence[int],
                          points: Sequence[Dict[str, Any]],
                          on_done: OnDone, should_stop: ShouldStop) -> None:
        if self.payload is None:
            raise ValueError("dispatch execution needs a materialized payload")
        window = max(4, 2 * self.jobs)

        results: _queue.Queue = _queue.Queue()
        todo: deque = deque(pending)
        emitted: set = set()           # indices already reported via on_done
        attempts: Dict[int, int] = {}  # index -> dispatch count
        inflight: Dict[int, int] = {}  # wid -> index
        endpoints: Dict[int, Any] = {}  # wid -> endpoint
        free: deque = deque()          # wids with spare capacity
        alloc_wid = itertools.count()
        error: Optional[BaseException] = None

        # Local workers report on an mp.Queue; a drainer thread funnels
        # their items into the same thread-safe queue remote endpoint
        # readers use, so the main loop has a single source of truth.
        # The drainer blocks until an item arrives and stops at the
        # ``None`` sentinel put once the local workers are reaped, so
        # ending the dispatch never waits out a poll interval.
        mp_results: multiprocessing.Queue = multiprocessing.Queue()

        def _drain() -> None:
            while (item := mp_results.get()) is not None:
                results.put(item)

        drainer = threading.Thread(target=_drain, daemon=True,
                                   name="workqueue-drain")
        drainer.start()

        for _ in range(min(self.jobs, len(pending))):
            wid = next(alloc_wid)
            endpoints[wid] = _LocalWorker(wid, self.runner_name, self.payload,
                                          mp_results)
            free.append(wid)

        def bury(wid: int) -> None:
            """Remove a dead endpoint; requeue its in-flight point."""
            nonlocal error
            endpoints.pop(wid, None)
            try:
                free.remove(wid)
            except ValueError:
                pass
            index = inflight.pop(wid, None)
            if index is None or index in emitted:
                return
            attempts[index] = attempts.get(index, 0) + 1
            if attempts[index] >= MAX_POINT_ATTEMPTS:
                if error is None:
                    error = RuntimeError(
                        f"point {index} killed {MAX_POINT_ATTEMPTS} workers; "
                        f"giving up (poison point)")
                return
            todo.appendleft(index)
            self.stats["reissued"] += 1

        try:
            while True:
                # Adopt remote workers that connected since last pass.
                if self.remote is not None:
                    for ep in self.remote.take_endpoints(
                            results, lambda: next(alloc_wid)):
                        endpoints[ep.wid] = ep
                        free.append(ep.wid)

                stopping = error is not None or should_stop()

                # Refill the dispatch window (unless stopping).
                while (todo and free and not stopping
                       and len(inflight) < window):
                    wid = free.popleft()
                    ep = endpoints.get(wid)
                    if ep is None or not ep.alive():
                        bury(wid)
                        continue
                    index = todo.popleft()
                    if index in emitted:
                        free.appendleft(wid)
                        continue
                    try:
                        ep.send_task(index, points[index])
                    except (OSError, ValueError, ConnectionError):
                        todo.appendleft(index)
                        bury(wid)
                        continue
                    inflight[wid] = index

                if not inflight and (stopping or not todo):
                    break
                if not inflight and not endpoints and self.remote is None:
                    raise RuntimeError(
                        "all workers died before the job finished")

                # The timeout keeps this loop responsive to should_stop()
                # flipped by a signal handler, to remote workers joining,
                # and to silent endpoint deaths (liveness poll below).
                try:
                    kind, wid, item = results.get(timeout=0.2)
                except _queue.Empty:
                    for wid in [w for w, ep in endpoints.items()
                                if not ep.alive()]:
                        bury(wid)
                    continue

                if kind == "done":
                    index, record, source = item
                    if inflight.get(wid) == index:
                        del inflight[wid]
                        if wid in endpoints and wid not in free:
                            free.append(wid)
                    if index in emitted:
                        continue  # death-race duplicate: deterministic, skip
                    emitted.add(index)
                    ep = endpoints.get(wid)
                    self.stats[ep.kind if ep is not None else "local"] += 1
                    on_done(index, record, source)
                elif kind == "err":
                    index, exc = item
                    if index is None:
                        # Init failure: the payload is broken for every
                        # worker -- fail fast.
                        if error is None:
                            error = exc
                        bury(wid)
                        continue
                    if inflight.get(wid) == index:
                        del inflight[wid]
                        if wid in endpoints and wid not in free:
                            free.append(wid)
                    if error is None:
                        error = exc
                elif kind == "dead":
                    bury(wid)
        finally:
            # Local workers are ours to reap; remote endpoints belong to
            # the dispatcher (the Job closes it -- possibly with
            # final=False on preemption so workers reconnect on resume).
            for ep in list(endpoints.values()):
                if ep.kind == "local":
                    ep.shutdown()
            mp_results.put(None)
            drainer.join(timeout=2.0)
            mp_results.cancel_join_thread()
            mp_results.close()

        if error is not None:
            raise error
