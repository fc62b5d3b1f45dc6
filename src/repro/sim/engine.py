"""Core event loop for the discrete-event simulator.

Time is an integer number of **nanoseconds**.  Integer time keeps event
ordering exact (no floating-point drift) which matters for the memory-model
and triggered-operation race tests: the paper's relaxed-synchronization
semantics (Section 3.2) are only meaningful if the simulator resolves
CPU-registration vs. GPU-trigger races deterministically.

The scheduler orders events by ``(time, priority, tiebreak, sequence)``
where ``sequence`` is a monotone insertion counter, so same-time events
fire in FIFO order.  ``priority`` is rarely needed but lets hardware
models (e.g. the NIC command processor) drain their queues before
same-tick user logic.  ``tiebreak`` is 0 in normal operation; the
:mod:`repro.validate` schedule fuzzer seeds it (:meth:`Simulator.
seed_tiebreaks`) to explore alternative legal orderings of same-time,
same-priority events, and invariant monitors observe every pop through
the ``step`` topic of the simulator's probe bus (:mod:`repro.sim.probes`).

Hot-path notes (DESIGN.md "Performance model of the simulator itself"):
the engine is the multiplier under every exhibit, fuzz campaign and fault
sweep, so :meth:`Simulator.run` drains the heap with locally bound
references and no per-event ``until`` re-check inside a same-tick run,
:meth:`Simulator.call_later` recycles fire-and-forget callback events
through a freelist instead of allocating a :class:`Timeout` + closure per
call, :meth:`Simulator.spin` runs each probe of a spin-wait as one such
callback instead of a process resume, and the probe path costs one
truthiness test when no monitor is attached.  None of this may reorder
events: every optimization preserves the ``(time, priority, tiebreak,
sequence)`` pop order of every event it keeps (pinned by golden
RunRecord fixtures and the determinism tests in
``tests/test_sim_engine.py``).  The one thing an optimization may drop
is a failed poll: a *watched* spin (:class:`SpinWatch`) sleeps until its
flag is written and then pops once, at the sequence key the ticking
loop's successful tick would have had.  With tie-breaks unseeded a
skipped tick is only a missing ``seq`` bump, and ``seq`` stays
monotone, so every other event keeps its relative order.  Pops that
would run no code -- a superseded :class:`Timer` arm, a delivery event
nobody waits on (:meth:`Simulator.skip_event`) -- are dropped too, but
their ``seq`` and tie-break draw are still taken, so every other event
keeps its exact key, seeded or not.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.sim.probes import Probes

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "SimulationError",
    "Simulator",
    "SpinWatch",
    "Timeout",
    "Timer",
    "WatchedEvent",
]

#: Default priority for scheduled events.  Lower fires first at equal time.
PRIORITY_NORMAL = 10
#: Priority used by hardware pipelines that must drain before user logic.
PRIORITY_URGENT = 0

#: Upper bound on the callback-event freelist (see Simulator.call_later).
#: Big enough that steady-state churn never allocates; small enough that a
#: burst of in-flight callbacks does not pin memory forever.
_POOL_MAX = 4096

#: Pops the wake-order log keeps while a watched spin sleeps (see
#: Simulator._log); the older half is dropped when it fills.
_LOG_MAX = 1 << 12
#: Deepest chain of same-instant order questions one wake may ask before
#: it refuses to guess (see _cmp_moment).
_MAX_DEPTH = 64
#: Priorities of the pseudo-pops Simulator._current_pop() reports when
#: no pop is logged (nothing due has popped yet) and after a run (all
#: that was due has).
_BEFORE_RUN = -1
_AFTER_RUN = 1 << 62

# Module-level bindings: one global load instead of a module-attribute
# lookup per scheduled event.
_heappush = heapq.heappush
_heappop = heapq.heappop
_log_time = itemgetter(0)


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel (not for modeled errors)."""


class Interrupt(Exception):
    """Thrown into a process that is interrupted.

    The ``cause`` attribute carries an arbitrary payload provided by the
    interrupter (e.g. the reason a persistent kernel was torn down).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot waitable occurrence.

    Lifecycle: *pending* -> *triggered* (value or exception set, scheduled on
    the event loop) -> *processed* (callbacks have run).  Processes wait on
    events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed",
                 "name", "_sched_seq")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: Insertion counter stamped by the scheduler -- the ground truth
        #: the FIFO-tie-break invariant monitor checks pop order against.
        self._sched_seq = 0

    @classmethod
    def settled(cls, sim: "Simulator", ok: bool, value: Any,
                processed: bool) -> "Event":
        """An event built after its outcome is known: triggered with
        ``value`` (an exception unless ``ok``) and never scheduled.

        Its builder owns its pop.  Before that pop has happened it passes
        ``processed=False`` and runs :meth:`_run_callbacks` at the pop,
        so waiters resume there; afterwards ``processed=True``, and a
        waiter resumes through a relay as on any processed event.
        """
        ev = cls(sim)
        ev._triggered = True
        ev._ok = ok
        ev._value = value
        ev._processed = processed
        return ev

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """True once the event has a value/exception (it may not have fired yet)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"value of untriggered event {self!r}")
        return self._value

    # ------------------------------------------------------------- triggering
    def succeed(self, value: Any = None, delay: int = 0, priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with ``value`` after ``delay`` ns."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        self.sim._schedule_event(self, delay, priority)
        return self

    def fail(self, exception: BaseException, delay: int = 0,
             priority: int = PRIORITY_NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters.

        Accepts the same ``priority`` as :meth:`succeed` so failure paths
        keep deterministic same-tick ordering relative to hardware-pipeline
        events.
        """
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("Event.fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._schedule_event(self, delay, priority)
        return self

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires ``delay`` ns after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None, priority: int = PRIORITY_NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay}")
        # The name stays static: rendering f"timeout({delay})" per event
        # was a measurable share of event-churn cost, and the delay is
        # visible in the repr through the dedicated slot anyway.
        super().__init__(sim, name="timeout")
        self.delay = int(delay)
        self._triggered = True
        self._value = value
        sim._schedule_event(self, self.delay, priority)


class _Call:
    """Event callback that calls ``fn(*args)`` and ignores the event;
    :meth:`Simulator.schedule` attaches one to the event it returns."""

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable[..., None], args: tuple):
        self.fn = fn
        self.args = args

    def __call__(self, _ev: "Event") -> None:
        self.fn(*self.args)


class _CallbackEvent(Event):
    """Internal fire-and-forget event used by :meth:`Simulator.call_later`.

    Instances are recycled through the simulator's freelist: after the
    callback runs, the event resets itself and returns to the pool, so
    steady-state callback scheduling allocates nothing.  Never handed out
    to callers -- external code cannot hold a reference, which is what
    makes recycling safe.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, sim: "Simulator"):
        super().__init__(sim, name="callback")
        self._fn: Optional[Callable[..., None]] = None
        self._args: tuple = ()
        # Permanently "triggered": pooled events are scheduled the moment
        # they leave the pool and external code never holds a reference,
        # so nothing can observe (or re-trigger) the pending state.
        # Setting it once here instead of on every recycle saves two
        # attribute writes per event on the hottest path in the tree.
        self._triggered = True

    def _run_callbacks(self) -> None:
        fn, args = self._fn, self._args
        # Reset and return to the pool *before* invoking: a callback that
        # schedules again may immediately reuse this object, and a raising
        # callback leaves it clean in the pool rather than leaking state.
        self._fn = None
        self._args = ()
        pool = self.sim._pool
        if len(pool) < _POOL_MAX:
            pool.append(self)
        fn(*args)  # type: ignore[misc]


class Timer:
    """A re-armable one-shot callback that keeps one heap entry.

    ``timer.arm(delay)`` schedules ``fn(*args)`` ``delay`` ns from now and
    supersedes any earlier arm; :meth:`cancel` drops the live arm.  The
    pop order is exactly that of one :meth:`Simulator.call_later` per
    arm whose callback ignores superseded arms, minus those superseded
    pops:

    * each arm takes its ``seq`` and tie-break draw at arm time, as
      ``call_later`` would, and records the key ``(deadline,
      PRIORITY_NORMAL, tie, seq)``;
    * the timer keeps one entry in the heap.  An arm whose key sorts
      before that entry's pushes a new one (the old entry pops later and
      does nothing, as the superseded ``call_later`` would have);
      otherwise it only records its key;
    * when the entry pops and a later-keyed arm is live, the entry
      re-pushes itself under the recorded key, which takes no ``seq``
      and no draw.  The live arm then pops under the key its
      ``call_later`` would have had, at the same place.

    The pops this drops ran no code, so every remaining pop keeps its
    key and place, seeded tie-breaks included (DESIGN.md §10, "no dead
    events on the reliable path").
    """

    __slots__ = ("sim", "_fn", "_args", "_key", "_queued")

    def __init__(self, sim: "Simulator", fn: Callable[..., None], *args: Any):
        self.sim = sim
        self._fn = fn
        self._args = args
        #: Heap key of the live arm, or None.
        self._key: Optional[tuple] = None
        #: Key of the entry this timer keeps in the heap, or None.
        self._queued: Optional[tuple] = None

    @property
    def armed(self) -> bool:
        """True from :meth:`arm` until the callback runs or :meth:`cancel`."""
        return self._key is not None

    def arm(self, delay: int) -> None:
        """Schedule the callback ``delay`` ns from now, superseding any
        earlier arm."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        sim = self.sim
        seq = sim._seq = sim._seq + 1
        rng = sim._tiebreak_rng
        key = self._key = (sim._now + int(delay), PRIORITY_NORMAL,
                           rng.getrandbits(16) if rng is not None else 0, seq)
        queued = self._queued
        if queued is None or key < queued:
            self._push(key)

    def cancel(self) -> None:
        """Drop the live arm (its entry still pops, and does nothing)."""
        self._key = None

    def _push(self, key: tuple) -> None:
        self._queued = key
        sim = self.sim
        pool = sim._pool
        ev = pool.pop() if pool else _CallbackEvent(sim)
        ev._fn = self._pop
        ev._args = (key,)
        ev._sched_seq = key[3]
        _heappush(sim._heap, (*key, ev))

    def _pop(self, key: tuple) -> None:
        if key is not self._queued:
            return  # an earlier-keyed arm pushed past this entry
        self._queued = None
        live = self._key
        if live is None:
            return
        if live is not key:
            self._push(live)
            return
        self._key = None
        self._fn(*self._args)


class WatchedEvent(Event):
    """An event that tells its watchers the moment it is triggered.

    :meth:`succeed`/:meth:`fail` set ``triggered`` at call time, but the
    event pops (and runs its callbacks) only ``delay`` later.  A watched
    spin that polls ``triggered`` (``Host.wait_recv``) needs the call-time
    instant, so each watcher registered with :meth:`watch` is called once,
    right after the trigger.
    """

    __slots__ = ("_watchers",)

    def __init__(self, sim: "Simulator", name: str = ""):
        super().__init__(sim, name)
        self._watchers: list[Callable[[], None]] = []

    def watch(self, fn: Callable[[], None]) -> None:
        """Call ``fn()`` once, when this event is next triggered."""
        self._watchers.append(fn)

    def succeed(self, value: Any = None, delay: int = 0,
                priority: int = PRIORITY_NORMAL) -> "Event":
        super().succeed(value, delay, priority)
        self._notify()
        return self

    def fail(self, exception: BaseException, delay: int = 0,
             priority: int = PRIORITY_NORMAL) -> "Event":
        super().fail(exception, delay, priority)
        self._notify()
        return self

    def _notify(self) -> None:
        watchers, self._watchers = self._watchers, []
        for fn in watchers:
            fn()


class SpinWatch:
    """What lets :meth:`Simulator.spin` sleep instead of ticking.

    * ``cycle`` -- the delays the probe returns after each failed probe,
      repeating from the first (``(poll_ns,)`` for a flag poll,
      ``(progress_ns, idle_ns)`` for the MPI progress loop);
    * ``subscribe(wake)`` -- arrange one call of ``wake()`` when a probe
      could next succeed (the flag's buffer is written, the receive is
      triggered) and return ``True``; or return ``False`` if the probe
      that just failed must not be skipped when repeated (a flag load
      that logged a hazard must log one per probe), and the spin ticks;
    * ``skip(n)`` -- apply the side effects of ``n`` failed probes that
      were not run (``None``: they have none).
    """

    __slots__ = ("cycle", "subscribe", "skip", "period", "prefix")

    def __init__(self, cycle: Tuple[int, ...],
                 subscribe: Callable[[Callable[[], None]], bool],
                 skip: Optional[Callable[[int], None]] = None):
        self.cycle = cycle
        self.subscribe = subscribe
        self.skip = skip
        #: One cycle's length, and each tick's offset into it.
        self.period = sum(cycle)
        self.prefix = (0,) if len(cycle) == 1 else tuple(
            sum(cycle[:i]) for i in range(len(cycle)))


class _Spin(Event):
    """The waiter's side of :meth:`Simulator.spin`: pending until a probe
    succeeds, then processed inline by that probe's own pop.

    Ticking form: each re-probe is a :meth:`Simulator.call_later` tick,
    not a :class:`Timeout` -- the pop order is the same, but a probe
    costs one pooled callback instead of an event allocation, a process
    resume and a generator round trip.

    Watched form (a :class:`SpinWatch` was given): after a failed probe
    the waiter *arms* (:class:`_Arm`) and sleeps with no heap entry.  The
    watch's wake-up places one check at the first tick the ticking form
    would have probed after the write, under that tick's own heap key
    (:class:`_Stamp`); the check charges the skipped probes through
    ``watch.skip`` and runs the real probe.
    """

    __slots__ = ("_probe", "_watch", "_arm")

    def __init__(self, sim: "Simulator", probe: Callable[[], Optional[int]],
                 watch: Optional[SpinWatch] = None):
        super().__init__(sim, name="spin")
        self._probe = probe
        self._watch = watch
        self._arm: Optional[_Arm] = None

    def _tick(self) -> None:
        if not self.callbacks:
            # The waiter was interrupted or killed: like an orphaned
            # Timeout, this tick pops, probes nothing, schedules nothing.
            return
        delay = self._probe()
        if delay is None:
            # Resume the waiter inside this pop, as the Timeout's
            # callbacks did: no relay, no zero-delay event.
            self._triggered = True
            self._run_callbacks()
        else:
            self.sim.call_later(delay, self._tick)

    # ------------------------------------------------------ watched form
    def _sleep(self, delay: int) -> None:
        """After a failed probe: arm and sleep, or tick like the loop."""
        sim, watch = self.sim, self._watch
        if delay != watch.cycle[0]:
            raise SimulationError(
                f"watched spin probe returned delay {delay}, but its watch "
                f"cycle starts with {watch.cycle[0]}")
        # Seeded schedules and step probes observe every tick; a zero
        # delay would put a tick in the instant of the one before.
        if (sim._tiebreak_rng is None and not sim.probes.step
                and min(watch.cycle) > 0 and watch.subscribe(self._wake)):
            self._arm = sim._arm_spin(self._arm, watch)
        else:
            self._leave()
            sim.call_later(delay, self._tick)

    def _wake(self) -> None:
        """The watch fired: place the one check that replaces the ticks
        up to the first one that could see the change."""
        arm, sim = self._arm, self.sim
        if not self.callbacks:
            # Interrupted or killed while asleep: nothing to wake.
            self._leave()
            return
        now = sim._now
        j = arm.first(now)
        t = arm.instant(j)
        if t == now and sim._tick_popped(arm, j):
            j += 1
            t = arm.instant(j)
        arm.pending = j
        stamp = _Stamp(arm, j)
        # The check is a pooled callback, like the tick it replaces, but
        # pushed under the tick's stamp instead of a fresh seq.
        pool = sim._pool
        check = pool.pop() if pool else _CallbackEvent(sim)
        check._fn = self._check
        check._sched_seq = stamp  # type: ignore[assignment]
        _heappush(sim._heap, (t, PRIORITY_NORMAL, 0, stamp, check))

    def _check(self) -> None:
        arm = self._arm
        j, arm.pending = arm.pending, None
        if not self.callbacks:
            self._leave()
            return
        if self._watch.skip is not None:
            self._watch.skip(j - 1)
        delay = self._probe()
        if delay is None:
            self._leave()
            self._triggered = True
            self._run_callbacks()
        else:
            self._sleep(delay)

    def _leave(self) -> None:
        if self._arm is not None:
            self.sim._disarm_spin(self._arm)
            self._arm = None


class _Arm:
    """One sleep of a watched spin, and the ticks it skips.

    Tick ``j`` (``j >= 1``) would pop at :meth:`instant` ``(j)`` under the
    key ``(instant(j), PRIORITY_NORMAL, 0, seq)``, where ``seq`` was
    stamped when tick ``j - 1`` popped (tick 0 is the probe that armed).
    Its place among real events is therefore fixed by :meth:`gap`: the
    scheduling counter at the moment tick ``j - 1`` popped, read back
    from the simulator's pop log.  Arms with the same tick instants form a
    *lockstep class*; within one, ticks pop in the fixed order ``lkey``
    set when each member armed.
    """

    __slots__ = ("sim", "t0", "seq0", "kprio", "kseq", "ordinal", "period",
                 "prefix", "cls", "lkey", "pending", "_gaps")

    def __init__(self, sim: "Simulator", watch: SpinWatch, ordinal: int):
        cur = sim._current_pop()
        self.sim = sim
        self.t0 = t0 = sim._now
        self.seq0 = sim._seq
        #: Priority and seq of the pop this arm happened in.
        self.kprio = cur[1]
        self.kseq = cur[2]
        self.ordinal = ordinal
        self.period = watch.period
        self.prefix = watch.prefix
        self.cls = (watch.cycle, t0 % watch.period)
        self.lkey = 0.0
        #: Index of the tick a check has been placed at, if any.
        self.pending: Optional[int] = None
        self._gaps: dict[int, int] = {}

    def instant(self, j: int) -> int:
        """Time of tick ``j`` (tick 0: the arming probe)."""
        prefix = self.prefix
        if len(prefix) == 1:
            return self.t0 + j * self.period
        n = len(prefix)
        return self.t0 + (j // n) * self.period + prefix[j % n]

    def first(self, t: int) -> int:
        """Index of the first tick (``j >= 1``) at or after time ``t``."""
        n = len(self.prefix)
        if n == 1:
            return max(1, -((self.t0 - t) // self.period))
        j = max(1, (t - self.t0) // self.period * n)
        while self.instant(j) < t:
            j += 1
        return j

    def gap(self, j: int, depth: int = 0) -> int:
        """The scheduling counter when tick ``j`` popped (or would have):
        a real event sorts before tick ``j + 1`` iff its ``seq`` is at
        most this."""
        if j == 0:
            return self.seq0
        g = self._gaps.get(j)
        if g is None:
            g = self._gaps[j] = self.sim._counter_at_tick(self, j, depth)
        return g

    def stamped_before(self, j: int, seq: int, depth: int) -> bool:
        """Whether the real event with ``seq`` was scheduled before tick
        ``j`` popped.  Bounds from the log decide most cases without
        resolving tick ``j``'s own place."""
        if j == 0:
            return seq <= self.seq0
        g = self._gaps.get(j)
        if g is None:
            lo, hi = self.sim._log_span(self.instant(j))
            if seq <= self.sim._counter_before(lo):
                return True
            if seq > self.sim._counter_before(hi):
                return False
            g = self.gap(j, depth + 1)
        return seq <= g

    def pos(self, j: int) -> tuple:
        """Where in its instant tick ``j`` pops: a comparable
        ``(priority, seq key, after, ordinal)``."""
        if j == 0:
            return (self.kprio, self.kseq, 1, self.ordinal)
        return (PRIORITY_NORMAL, _Stamp(self, j), 0, 0)


class _Stamp:
    """The ``seq`` of a skipped tick: tick ``j`` of ``arm``.

    Compares with real (integer) sequence numbers and with other stamps
    exactly as the tick the ticking loop scheduled would have, so a check
    pushed under it pops where that tick would have popped.
    """

    __slots__ = ("arm", "j")

    def __init__(self, arm: _Arm, j: int):
        self.arm = arm
        self.j = j

    def __lt__(self, other: Any) -> bool:
        return _cmp_seq(self, other, 0) < 0

    def __gt__(self, other: Any) -> bool:
        return _cmp_seq(self, other, 0) > 0

    def __eq__(self, other: Any) -> bool:
        return (other.__class__ is _Stamp and other.arm is self.arm
                and other.j == self.j)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<tick {self.j} of spin armed at t={self.arm.t0}>"


def _cmp_seq(x: Any, y: Any, depth: int) -> int:
    """Order of two sequence keys at one ``(time, priority)``: real
    ``seq`` integers or :class:`_Stamp` s.  Returns -1, 0 or 1."""
    xs, ys = x.__class__ is _Stamp, y.__class__ is _Stamp
    if xs and ys:
        return _cmp_moment(x.arm, x.j - 1, y.arm, y.j - 1, depth + 1)
    if xs:
        return 1 if x.arm.stamped_before(x.j - 1, y, depth) else -1
    if ys:
        return -1 if y.arm.stamped_before(y.j - 1, x, depth) else 1
    return (x > y) - (x < y)


def _cmp_moment(a: _Arm, i: int, b: _Arm, m: int, depth: int) -> int:
    """Order of the pop of tick ``i`` of ``a`` and tick ``m`` of ``b`` (a
    tick 0 is the pop its arm happened in)."""
    if depth > _MAX_DEPTH:
        raise SimulationError(
            "watched spin: cannot decide the order of two same-instant "
            "ticks from the pop log; refusing to guess")
    if a is b:
        return (i > m) - (i < m)
    ta, tb = a.instant(i), b.instant(m)
    if ta != tb:
        return -1 if ta < tb else 1
    if a.cls == b.cls and a.lkey != b.lkey:
        return -1 if a.lkey < b.lkey else 1
    ga, gb = a.gap(i, depth), b.gap(m, depth)
    if ga != gb:
        return -1 if ga < gb else 1
    if i == 0 and m == 0:  # two arms: they happened in arming order
        return -1 if a.ordinal < b.ordinal else 1
    pa, pb = a.pos(i), b.pos(m)
    if pa[0] != pb[0]:
        return -1 if pa[0] < pb[0] else 1
    c = _cmp_seq(pa[1], pb[1], depth + 1)
    if c:
        return c
    return -1 if pa[2:] < pb[2:] else 1


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_n_done")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        self._n_done = 0
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        # Register after validation so a bad input leaves no dangling callbacks.
        if not self.events:
            self.succeed(self._collect())
            return
        for ev in self.events:
            if ev.processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _collect(self) -> dict[Event, Any]:
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.value)
            return
        self._n_done += 1
        if self._satisfied():
            self.succeed(self._collect())

    def _satisfied(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value maps event -> value."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done == len(self.events)


class AnyOf(_Condition):
    """Fires when at least one child event has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._n_done >= 1


class Simulator:
    """The discrete-event loop.

    Usage::

        sim = Simulator()
        sim.spawn(my_generator_fn(sim, ...))
        sim.run()

    ``run`` drains the event heap; ``run(until=t)`` stops the clock at ``t``
    (inclusive of events scheduled exactly at ``t``).
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._heap: list[tuple[int, int, int, int, Event]] = []
        self._seq: int = 0
        self._running = False
        self._tiebreak_rng: Optional[random.Random] = None
        #: The probe bus every component emits onto (:mod:`repro.sim.probes`).
        self.probes = Probes()
        #: Recycled :class:`_CallbackEvent` freelist (see :meth:`call_later`).
        self._pool: list[_CallbackEvent] = []
        #: Events popped and fired so far -- the numerator of the
        #: events/sec metric :mod:`repro.bench` reports.
        self.events_processed: int = 0
        #: Arms of watched spins (asleep, or with a check pending) by
        #: lockstep class: arms with the same tick instants.  While any
        #: exists, every pop is logged as ``(time, priority, seq,
        #: counter)``, the counter being the scheduling counter just
        #: before the pop.  The log keeps keys, never events, so it holds
        #: no payloads alive.  Pops at or before ``_log_floor`` may be
        #: missing.
        self._classes: dict = {}
        self._log: list = []
        self._log_floor: int = 0
        self._arms: int = 0

    # -------------------------------------------------------------- clock/api
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` ns."""
        return Timeout(self, delay, value)

    def spawn(self, generator, name: str = ""):
        """Start a new process from a generator. Returns the Process."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule a plain callback ``delay`` ns from now.

        Returns the underlying event so callers can wait on *when* the
        callback runs; the callback's return value is *not* captured --
        this is a fire-and-forget hook.  When nothing will wait on the
        returned event, prefer :meth:`call_later`: it takes the same
        arguments but recycles its event object through a freelist.
        """
        ev = Timeout(self, delay, priority=priority)
        ev.callbacks.append(_Call(callback, args))
        return ev

    def call_later(
        self,
        delay: int,
        callback: Callable[..., None],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> None:
        """Fire-and-forget sibling of :meth:`schedule`; returns ``None``.

        Schedules ``callback(*args)`` to run ``delay`` ns from now with the
        exact same ordering semantics as :meth:`schedule` (one scheduler
        sequence number, same default priority), but the backing event
        comes from -- and returns to -- an internal freelist, so the
        per-call allocations (Timeout + closure + callback list) disappear.
        This is the hot-path API the hardware models use for their internal
        pipeline delays.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        pool = self._pool
        ev = pool.pop() if pool else _CallbackEvent(self)
        ev._fn = callback
        ev._args = args
        # Inlined _schedule_event: one Python frame per event is a
        # measurable share of raw engine throughput (repro.bench
        # "engine").  Must stay semantically identical -- same sequence
        # stamping, same (time, priority, tiebreak, seq) heap key.
        seq = self._seq = self._seq + 1
        ev._sched_seq = seq
        rng = self._tiebreak_rng
        _heappush(self._heap,
                  (self._now + int(delay), priority,
                   rng.getrandbits(16) if rng is not None else 0,
                   seq, ev))

    def skip_event(self) -> None:
        """Take the ``seq`` and tie-break draw of a zero-delay event that
        is not scheduled because it would run no code when it popped (a
        delivery event nobody waits on).  Every later event then gets the
        key it would have had with that event scheduled."""
        self._seq += 1
        if self._tiebreak_rng is not None:
            self._tiebreak_rng.getrandbits(16)

    def spin(self, probe: Callable[[], Optional[int]],
             watch: Optional[SpinWatch] = None) -> Optional[Event]:
        """Spin-wait until ``probe()`` returns ``None``.

        ``probe`` runs once inline, now.  Any other return value is the
        delay in ns until the next probe.  Returns ``None`` if the first
        probe already succeeded (nothing is scheduled), otherwise an
        event to wait on: the probe that succeeds processes it inline
        within its own pop.

        Without ``watch`` (the *ticking* form) each later probe runs as a
        pooled :meth:`call_later` tick at normal priority: exactly the pop
        sequence of the hand-written loop ``while (d := probe()) is not
        None: yield sim.timeout(d)``, one event -- one ``seq`` bump, one
        tiebreak draw -- per failed probe.  A tick that finds nobody
        waiting -- the waiter was interrupted or killed -- probes nothing
        and schedules nothing, like an orphaned Timeout.

        With a :class:`SpinWatch` (the *watched* form) the waiter sleeps
        with no heap entry until ``watch.subscribe`` wakes it, then pops
        once, at the first tick that would have seen the change and under
        that tick's heap key; ``watch.skip`` charges the probes it did
        not run.  Results are those of the ticking form; only the failed
        ticks' pops are gone.  Seeded tie-breaks, an attached step probe,
        or a ``watch.subscribe`` that refuses (the probe logged a hazard)
        keep the ticking form (see DESIGN.md §10, "spin waits").
        """
        delay = probe()
        if delay is None:
            return None
        spinning = _Spin(self, probe, watch)
        if watch is None:
            self.call_later(delay, spinning._tick)
        else:
            spinning._sleep(delay)
        return spinning

    # ------------------------------------------------ watched-spin support
    def _arm_spin(self, prev: Optional[_Arm], watch: SpinWatch) -> _Arm:
        classes = self._classes
        if not classes:
            self._log_floor = self._now
        self._arms += 1
        arm = _Arm(self, watch, self._arms)
        if prev is not None:
            if prev.cls == arm.cls:
                # Re-armed inside its own check, which popped at the
                # tick's place: the lockstep order is unchanged.
                members = classes[prev.cls]
                arm.lkey = prev.lkey
                members[members.index(prev)] = arm
                return arm
            self._disarm_spin(prev)
        members = classes.get(arm.cls)
        if members is None:
            classes[arm.cls] = [arm]
            return arm
        lo = hi = None
        for other in members:
            if other.t0 == self._now:
                ahead = True  # armed earlier in this very instant
            else:
                j = other.first(self._now)
                ahead = other.pending != j and self._tick_popped(other, j)
            if ahead:
                lo = other.lkey if lo is None else max(lo, other.lkey)
            else:
                hi = other.lkey if hi is None else min(hi, other.lkey)
        if lo is not None and hi is not None:
            if not lo < hi:
                raise SimulationError("watched spin: inconsistent lockstep order")
            arm.lkey = (lo + hi) / 2
        elif lo is not None:
            arm.lkey = lo + 1.0
        elif hi is not None:
            arm.lkey = hi - 1.0
        members.append(arm)
        return arm

    def _disarm_spin(self, arm: _Arm) -> None:
        classes = self._classes
        members = classes[arm.cls]
        if len(members) > 1:
            members.remove(arm)
            return
        del classes[arm.cls]
        if not classes:
            self._log.clear()

    def _current_pop(self) -> tuple:
        """``(time, priority, seq, counter)`` of the pop in progress: the
        last one logged.  After run() the log ends with a sentinel that
        sorts after every pop at ``now``; before any pop, one sorts
        before them.  A pop that began with no spin asleep is not logged;
        an arm made in it is compared only with other arms, by arming
        order, so its key is never read."""
        return self._log[-1] if self._log else (0, _BEFORE_RUN, 0, 0)

    def _tick_popped(self, arm: _Arm, j: int) -> bool:
        """Whether tick ``j`` of ``arm`` (due now) would already have
        popped, i.e. sorts before the pop in progress."""
        _, prio, seq, _ = self._current_pop()
        if prio != PRIORITY_NORMAL:
            return prio > PRIORITY_NORMAL
        return _cmp_seq(seq, _Stamp(arm, j), 0) > 0

    def _log_span(self, t: int) -> Tuple[int, int]:
        """Log indices ``[lo, hi)`` of the pops at time ``t``."""
        if t <= self._log_floor:
            raise SimulationError(
                f"watched spin: pops at t={t} are no longer logged; "
                "refusing to guess a tick's place")
        return (bisect_left(self._log, t, key=_log_time),
                bisect_right(self._log, t, key=_log_time))

    def _counter_before(self, idx: int) -> int:
        log = self._log
        return log[idx][3] if idx < len(log) else self._seq

    def _counter_at_tick(self, arm: _Arm, j: int, depth: int) -> int:
        """The scheduling counter at the moment tick ``j`` of ``arm``
        would have popped: it pops just before the first logged pop at
        its instant that sorts after it."""
        lo, hi = self._log_span(arm.instant(j))
        log = self._log
        stamp = _Stamp(arm, j)
        idx = hi
        for k in range(lo, hi):
            _, prio, seq, _ = log[k]
            if prio > PRIORITY_NORMAL or (
                    prio == PRIORITY_NORMAL
                    and _cmp_seq(seq, stamp, depth + 1) > 0):
                idx = k
                break
        return self._counter_before(idx)

    def _trim_log(self) -> None:
        cut = len(self._log) // 2
        self._log_floor = self._log[cut - 1][0]
        del self._log[:cut]

    # ------------------------------------------------------- validation hooks
    @property
    def tiebreaks_seeded(self) -> bool:
        """True once :meth:`seed_tiebreaks` has armed schedule fuzzing.
        Fast paths that drop events (watched spins, gang work-groups)
        keep the reference path while it is: a dropped event's
        tie-break draw would shift every later one."""
        return self._tiebreak_rng is not None

    def seed_tiebreaks(self, seed: int) -> None:
        """Arm schedule fuzzing: subsequently scheduled events draw a
        deterministic pseudo-random tie-break key, exploring alternative
        legal orderings of same-``(time, priority)`` events.  The same
        seed always produces the same schedule (``random.Random`` is
        platform-stable), so any failure is replayable from the seed."""
        self._tiebreak_rng = random.Random(seed)

    # ---------------------------------------------------------------- engine
    def _schedule_event(self, event: Event, delay: int, priority: int = PRIORITY_NORMAL) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq = self._seq + 1
        event._sched_seq = seq
        rng = self._tiebreak_rng
        _heappush(self._heap,
                  (self._now + int(delay), priority,
                   rng.getrandbits(16) if rng is not None else 0,
                   seq, event))

    def peek(self) -> Optional[int]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None

    def step(self) -> None:
        """Process exactly one event."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        t, prio, tie, seq, event = heapq.heappop(self._heap)
        if t < self._now:  # pragma: no cover - guarded by _schedule_event
            raise SimulationError("event heap time went backwards")
        self._now = t
        self.events_processed += 1
        if self._classes:
            self._log_pop(t, prio, seq)
        if self.probes.step:
            for probe in self.probes.step:
                probe(t, prio, tie, seq, event)
        event._run_callbacks()

    def _log_pop(self, t: int, prio: int, seq: Any) -> None:
        self._log.append((t, prio, seq, self._seq))
        if len(self._log) > _LOG_MAX:
            self._trim_log()

    def run(self, until: Optional[int] = None) -> int:
        """Run until the heap drains or the clock passes ``until``.

        Returns the final simulation time.

        The drain loop is the simulator's hottest code: it pops events
        with locally bound references and -- within a run of events at one
        timestamp -- skips the per-event ``until`` re-check (same-tick
        events cannot newly pass the horizon).  Pop order is bit-identical
        to repeated :meth:`step` calls; ``tests/test_sim_engine.py``
        asserts this on fuzzed schedules.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        heap = self._heap
        pop = _heappop
        pool = self._pool
        # Bind the step topic's list (not a snapshot): it is never rebound,
        # so probes attached mid-run are still honored while the
        # no-probe case costs one truthiness test per event.  The sleeper
        # set is bound the same way: while a watched spin sleeps, each pop
        # is logged.
        probes = self.probes.step
        sleeping = self._classes
        log = self._log
        log_pop = log.append
        # Fire-and-forget callback events (the common case under the
        # hardware models) are dispatched inline: recycling them through
        # the freelist here instead of via Event._run_callbacks saves a
        # Python frame per event.  The inline block is semantically
        # identical to _CallbackEvent._run_callbacks.
        try:
            if until is None:
                while heap:
                    t, prio, tie, seq, event = pop(heap)
                    self._now = t
                    processed += 1
                    if sleeping:
                        log_pop((t, prio, seq, self._seq))
                        if len(log) > _LOG_MAX:
                            self._trim_log()
                    if probes:
                        for probe in probes:
                            probe(t, prio, tie, seq, event)
                    if event.__class__ is _CallbackEvent:
                        fn = event._fn
                        args = event._args
                        event._fn = None
                        event._args = ()
                        if len(pool) < _POOL_MAX:
                            pool.append(event)
                        fn(*args)
                    else:
                        event._run_callbacks()
            else:
                while heap:
                    t = heap[0][0]
                    if t > until:
                        self._now = until
                        break
                    # Drain the whole same-tick run; zero-delay events a
                    # callback schedules join it in heap order.
                    while heap and heap[0][0] == t:
                        t, prio, tie, seq, event = pop(heap)
                        self._now = t
                        processed += 1
                        if sleeping:
                            log_pop((t, prio, seq, self._seq))
                            if len(log) > _LOG_MAX:
                                self._trim_log()
                        if probes:
                            for probe in probes:
                                probe(t, prio, tie, seq, event)
                        if event.__class__ is _CallbackEvent:
                            fn = event._fn
                            args = event._args
                            event._fn = None
                            event._args = ()
                            if len(pool) < _POOL_MAX:
                                pool.append(event)
                            fn(*args)
                        else:
                            event._run_callbacks()
                else:
                    if until > self._now:
                        self._now = until
        finally:
            self._running = False
            self.events_processed += processed
            # Whatever runs between runs sorts after every pop so far.
            if self._classes:
                self._log_pop(self._now, _AFTER_RUN, 0)
        return self._now

    def run_until_event(self, event: Event, limit: Optional[int] = None) -> Any:
        """Run until ``event`` is processed; returns its value.

        Raises the event's exception if it failed, and ``SimulationError``
        if the heap drains (or ``limit`` is reached) first.  Enforces the
        same reentrancy guard as :meth:`run`: calling it from inside an
        event callback would corrupt the clock.
        """
        if self._running:
            raise SimulationError("Simulator.run_until_event() is not reentrant")
        self._running = True
        try:
            while not event.processed:
                if not self._heap:
                    raise SimulationError(f"simulation ended before {event!r} fired")
                if limit is not None and self._heap[0][0] > limit:
                    raise SimulationError(f"limit {limit} reached before {event!r} fired")
                self.step()
        finally:
            self._running = False
        if not event.ok:
            raise event.value
        return event.value
