"""Tests for the engine hot-path optimizations: call_later + event
pooling, batched run() determinism, Simulator.spin against the
hand-written spin loops it replaced, and the run_until_event reentrancy
guard (regression)."""

import random

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.gpu.kernel import KernelDescriptor
from repro.memory import Agent, MemoryOrder, Scope
from repro.sim import Interrupt, SimulationError, Simulator
from repro.sim.engine import _POOL_MAX, PRIORITY_NORMAL, PRIORITY_URGENT


class TestCallLater:
    def test_runs_callback_with_args(self):
        sim = Simulator()
        seen = []
        sim.call_later(5, seen.append, "x")
        sim.run()
        assert seen == ["x"] and sim.now == 5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_later(-1, lambda: None)

    def test_priority_orders_same_tick(self):
        sim = Simulator()
        order = []
        sim.call_later(10, order.append, "normal")
        sim.call_later(10, order.append, "high", priority=PRIORITY_URGENT)
        sim.run()
        assert order == ["high", "normal"]

    def test_interleaves_with_schedule_in_fifo_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "a")
        sim.call_later(10, order.append, "b")
        sim.schedule(10, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_recycled_through_pool(self):
        sim = Simulator()
        for _ in range(10):
            sim.call_later(1, lambda: None)
        sim.run()
        # All ten callback events returned to the freelist and at most
        # one object was ever allocated per concurrently pending slot.
        assert 1 <= len(sim._pool) <= 10

    def test_pool_is_bounded(self):
        sim = Simulator()
        for _ in range(_POOL_MAX + 50):
            sim.call_later(0, lambda: None)
        sim.run()
        assert len(sim._pool) <= _POOL_MAX

    def test_reentrant_call_later_from_callback(self):
        sim = Simulator()
        seen = []

        def outer():
            seen.append("outer")
            sim.call_later(3, seen.append, "inner")

        sim.call_later(1, outer)
        sim.run()
        assert seen == ["outer", "inner"] and sim.now == 4

    def test_events_processed_counts_all_pops(self):
        sim = Simulator()
        for i in range(7):
            sim.call_later(i, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestRunDeterminism:
    """run()'s batched drain must pop the exact sequence repeated step()
    would -- the ordering contract golden fixtures depend on."""

    @staticmethod
    def _seeded_workload(sim, seed):
        rng = random.Random(seed)
        sig = []
        sim.probes.step.append(
            lambda t, prio, tie, seq, ev: sig.append((t, prio, tie, seq)))

        def chain(depth):
            if depth > 0:
                for _ in range(rng.randint(1, 3)):
                    sim.call_later(rng.randint(0, 4), chain, depth - 1,
                                   priority=rng.choice(
                                       (PRIORITY_URGENT, PRIORITY_NORMAL,
                                        PRIORITY_NORMAL)))

        for _ in range(20):
            sim.call_later(rng.randint(0, 10), chain, 3)
        return sig

    @pytest.mark.parametrize("seed", [0, 1, 2, 17])
    def test_run_matches_stepping(self, seed):
        sim_run = Simulator()
        sig_run = self._seeded_workload(sim_run, seed)
        sim_run.run()

        sim_step = Simulator()
        sig_step = self._seeded_workload(sim_step, seed)
        while sim_step.peek() is not None:
            sim_step.step()

        assert sig_run == sig_step
        assert sim_run.now == sim_step.now

    @pytest.mark.parametrize("seed", [3, 29])
    def test_run_until_matches_stepping(self, seed):
        sim_run = Simulator()
        sig_run = self._seeded_workload(sim_run, seed)
        sim_run.run(until=8)

        sim_step = Simulator()
        sig_step = self._seeded_workload(sim_step, seed)
        while sim_step.peek() is not None and sim_step.peek() <= 8:
            sim_step.step()

        assert sig_run == sig_step
        assert sim_run.now == 8

    def test_probe_added_mid_run_is_honored(self):
        sim = Simulator()
        late = []

        def attach():
            sim.probes.step.append(
                lambda t, prio, tie, seq, ev: late.append(t))

        sim.call_later(1, attach)
        sim.call_later(5, lambda: None)
        sim.run()
        assert late == [5]


class TestRunUntilEventReentrancy:
    def test_nested_run_until_event_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            inner = sim.timeout(1)
            try:
                sim.run_until_event(inner)
            except SimulationError as exc:
                errors.append(exc)

        sim.call_later(1, nested)
        sim.run_until_event(sim.timeout(10))
        assert len(errors) == 1
        assert "not reentrant" in str(errors[0])

    def test_run_until_event_inside_run_rejected(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run_until_event(sim.timeout(1))
            except SimulationError as exc:
                errors.append(exc)

        sim.call_later(1, nested)
        sim.run()
        assert len(errors) == 1

    def test_guard_released_after_completion(self):
        sim = Simulator()
        sim.run_until_event(sim.timeout(5))
        sim.run_until_event(sim.timeout(5))
        assert sim.now == 10


# --------------------------------------------------------------- spin waits
# The hand-written loops Simulator.spin replaced, kept as the oracle: the
# spin-based waits must pop exactly the events these pop.

def _legacy_host_poll_flag(host, buf, offset=0, at_least=1):
    word = buf.view(np.uint32, count=1, offset=offset)
    while True:
        host.mem.record_read(host.sim.now, Agent.CPU, buf)
        if int(word[0]) >= at_least:
            return int(word[0])
        yield host.sim.timeout(host.config.cpu.completion_poll_ns)


def _legacy_wait_recv(host, handle):
    cpu = host.config.cpu
    while not handle.complete.triggered:
        yield from host._work(cpu.mpi_progress_ns, "progress")
        if handle.complete.triggered:
            break
        yield host.sim.timeout(cpu.completion_poll_ns)
    if not handle.complete.ok:
        raise handle.complete.value
    return handle.complete.value


def _legacy_gpu_poll_flag(ctx, buf, offset=0, at_least=1):
    word = buf.view(np.uint32, count=1, offset=offset)
    while True:
        ctx.gpu.mem.record_read(ctx.sim.now, Agent.GPU, buf,
                                scope=Scope.SYSTEM, order=MemoryOrder.ACQUIRE)
        if int(word[0]) >= at_least:
            return int(word[0])
        yield ctx.sim.timeout(ctx.config.gpu.poll_interval_ns)


_HOST_POLL = {"spin": lambda host, buf, n: host.poll_flag(buf, 0, n),
              "legacy": lambda host, buf, n: _legacy_host_poll_flag(host, buf, 0, n)}
_WAIT_RECV = {"spin": lambda host, handle: host.wait_recv(handle),
              "legacy": _legacy_wait_recv}
_GPU_POLL = {"spin": lambda ctx, buf, n: ctx.poll_flag(buf, 0, n),
             "legacy": lambda ctx, buf, n: _legacy_gpu_poll_flag(ctx, buf, 0, n)}


class _Run:
    """A cluster (two nodes by default) that records every pop's heap key
    and counts every memory-model read."""

    def __init__(self, seed, n_nodes=2):
        self.cluster = Cluster(n_nodes=n_nodes)
        self.sim = self.cluster.sim
        if seed is not None:
            self.sim.seed_tiebreaks(seed)
        self.pops = []
        self.sim.probes.step.append(
            lambda t, prio, tie, seq, ev: self.pops.append((t, prio, tie, seq)))
        self.reads = 0
        for node in self.cluster:
            record_read = node.mem.record_read

            def counted(*args, _record_read=record_read, **kwargs):
                self.reads += 1
                return _record_read(*args, **kwargs)

            node.mem.record_read = counted

    def noise(self, period=25, count=40):
        """A sibling process whose timeouts tie with the spin ticks."""
        def proc():
            for _ in range(count):
                yield self.sim.timeout(period)
        self.cluster.spawn(proc())

    def put_flag_at(self, delays, flag):
        """node0 puts 1, 2, ... into node1's flag word after each delay."""
        src_host = self.cluster[0].host
        src = src_host.alloc(4)

        def proc():
            for value, delay in enumerate(delays, start=1):
                yield self.sim.timeout(delay)
                src_host.cpu_write(src, np.array([value], dtype=np.uint32))
                yield from src_host.put(src, 4, self.cluster[1].name,
                                        remote_addr=flag.addr())
        self.cluster.spawn(proc())

    def summary(self, value):
        host = self.cluster[-1].host
        spans = [(s.node, s.phase, s.start, s.end)
                 for s in self.cluster.tracer.spans if s.phase == "progress"]
        return {"pops": self.pops, "events": self.sim.events_processed,
                "value": value, "busy_ns": host.stats["busy_ns"],
                "progress": spans, "reads": self.reads,
                "hazards": self.cluster.total_hazards(), "now": self.sim.now}


def _host_poll_case(kind, seed, delays=(130, 410), at_least=2):
    run = _Run(seed)
    host = run.cluster[1].host
    flag = host.alloc(4)
    run.put_flag_at(delays, flag)
    run.noise()

    def waiter():
        return (yield from _HOST_POLL[kind](host, flag, at_least))

    proc = run.cluster.spawn(waiter())
    run.sim.run()
    return run.summary(proc.value)


def _wait_recv_case(kind, seed, send_delay=900):
    run = _Run(seed)
    a, b = run.cluster[0].host, run.cluster[1].host
    src, dst = a.alloc(256), b.alloc(256)
    run.noise(period=50)

    def sender():
        yield run.sim.timeout(send_delay)
        yield from a.send(src, 256, run.cluster[1].name, tag=9)

    def receiver():
        handle = b.post_recv(9, dst, 256)
        delivered = yield from _WAIT_RECV[kind](b, handle)
        return delivered.delivered_at

    run.cluster.spawn(sender())
    proc = run.cluster.spawn(receiver())
    run.sim.run()
    return run.summary(proc.value)


def _gpu_poll_case(kind, seed, delays=(700, 300), at_least=2):
    run = _Run(seed)
    node = run.cluster[1]
    flag = node.host.alloc(4)
    seen = []
    run.put_flag_at(delays, flag)
    run.noise(period=20, count=100)

    def kernel(ctx):
        seen.append((yield from _GPU_POLL[kind](ctx, flag, at_least)))

    def launcher():
        inst = yield from node.host.launch_kernel(
            KernelDescriptor(fn=kernel, n_workgroups=2, name="poller"))
        yield inst.finished

    run.cluster.spawn(launcher())
    run.sim.run()
    return run.summary(seen)


class TestSpin:
    """Simulator.spin, and the three waits built on it, against the
    hand-written Timeout loops they replaced."""

    SEEDS = [None, 5, 1234]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("at_least", [1, 2])
    def test_host_poll_flag_matches_loop(self, seed, at_least):
        spin = _host_poll_case("spin", seed, at_least=at_least)
        assert spin == _host_poll_case("legacy", seed, at_least=at_least)
        assert spin["value"] == at_least and spin["reads"] > 10

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wait_recv_matches_loop(self, seed):
        spin = _wait_recv_case("spin", seed)
        assert spin == _wait_recv_case("legacy", seed)
        assert spin["value"] > 900
        assert spin["busy_ns"] > 0 and len(spin["progress"]) > 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wait_recv_already_complete_matches_loop(self, seed):
        spin = _wait_recv_case("spin", seed, send_delay=0)
        assert spin == _wait_recv_case("legacy", seed, send_delay=0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gpu_poll_flag_matches_loop(self, seed):
        spin = _gpu_poll_case("spin", seed)
        assert spin == _gpu_poll_case("legacy", seed)
        assert spin["value"] == [2, 2] and spin["hazards"] == 0

    def test_set_flag_schedules_nothing(self):
        sim = Simulator()
        assert sim.spin(lambda: None) is None
        assert sim.peek() is None and sim._seq == 0

    @pytest.mark.parametrize("kind", ["spin", "legacy"])
    def test_set_flag_poll_does_not_yield(self, kind):
        cluster = Cluster(n_nodes=1)
        host = cluster[0].host
        flag = host.alloc(4)
        host.cpu_write(flag, np.array([3], dtype=np.uint32))
        scheduled = cluster.sim._seq
        gen = _HOST_POLL[kind](host, flag, 1)
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == 3 and cluster.sim._seq == scheduled

    def test_probe_returns_next_delay(self):
        sim = Simulator()
        pops, probes = [], []
        sim.probes.step.append(lambda t, prio, tie, seq, ev: pops.append((t, prio)))
        delays = iter([7, 3, None])
        done = sim.spin(lambda: probes.append(sim.now) or next(delays))
        resumed = []
        done.callbacks.append(lambda ev: resumed.append(sim.now))
        sim.run()
        assert probes == [0, 7, 10] and resumed == [10]
        assert pops == [(7, PRIORITY_NORMAL), (10, PRIORITY_NORMAL)]

    @pytest.mark.parametrize("stop", ["interrupt", "kill"])
    @pytest.mark.parametrize("kind", ["spin", "legacy"])
    def test_orphan_tick_pops_once_and_schedules_nothing(self, stop, kind):
        run = _Run(None, n_nodes=1)
        host = run.cluster[0].host
        flag = host.alloc(4)
        poll_ns = host.config.cpu.completion_poll_ns

        def waiter():
            try:
                yield from _HOST_POLL[kind](host, flag, 1)
            except Interrupt:
                return "interrupted"

        proc = run.cluster.spawn(waiter())

        def stopper():
            yield run.sim.timeout(2 * poll_ns + poll_ns // 2)
            proc.interrupt() if stop == "interrupt" else proc.kill()

        run.cluster.spawn(stopper())
        run.sim.run(until=20 * poll_ns)
        # Probes at 0, poll, 2*poll; the tick pending at 3*poll pops as
        # the last event, reads nothing and schedules nothing.
        assert run.reads == 3
        assert run.pops[-1][0] == 3 * poll_ns
        assert sum(1 for t, *_ in run.pops if t > 2 * poll_ns + poll_ns // 2) == 1
        assert proc.value == "interrupted" if stop == "interrupt" else not proc.ok

    @pytest.mark.parametrize("stop", ["interrupt", "kill"])
    def test_orphan_matches_loop(self, stop):
        def case(kind):
            run = _Run(7, n_nodes=1)
            host = run.cluster[0].host
            flag = host.alloc(4)

            def waiter():
                try:
                    yield from _HOST_POLL[kind](host, flag, 1)
                except Interrupt:
                    pass

            proc = run.cluster.spawn(waiter())
            run.noise()
            run.sim.call_later(260, proc.interrupt if stop == "interrupt"
                               else proc.kill)
            run.sim.run(until=5_000)
            return run.summary(None)

        assert case("spin") == case("legacy")

    @pytest.mark.parametrize("kind", ["spin", "legacy"])
    def test_failed_recv_still_raises(self, kind):
        cluster = Cluster(n_nodes=1)
        host = cluster[0].host
        handle = host.post_recv(4, host.alloc(64), 64)
        cluster.sim.call_later(333, handle.complete.fail, RuntimeError("gone"))

        def receiver():
            yield from _WAIT_RECV[kind](host, handle)

        proc = cluster.spawn(receiver())
        with pytest.raises(RuntimeError, match="gone"):
            cluster.sim.run_until_event(proc)


# -------------------------------------------------------- watched spin waits
# Untraced and without step probes, the three waits sleep until their
# flag is written (or their receive triggered) instead of ticking.  The
# Timeout loops above stay the oracle: every outcome below -- resume
# instant, value, busy_ns, hazards, and where the resume falls among
# same-instant events -- must match them, with fewer pops.

class _Scene:
    """An untraced cluster whose processes log ``(label, now)`` in pop
    order, so a resume popped at the wrong place in its instant shows."""

    def __init__(self, n_nodes=1):
        self.cluster = Cluster(n_nodes=n_nodes, trace=False)
        self.sim = self.cluster.sim
        self.host = self.cluster[0].host
        self.log = []

    def noise(self, period, count=30, label="noise"):
        """A bystander whose timeouts tie with the poll instants."""
        def proc():
            for _ in range(count):
                yield self.sim.timeout(period)
                self.log.append((label, self.sim.now))
        self.cluster.spawn(proc())

    def at(self, hops, action, label="write"):
        """Run ``action()`` at ``hops[-1]``, reached through one timeout
        per hop: the action's event is scheduled at ``hops[-2]`` (or
        when this process boots, for a single hop)."""
        def proc():
            for when in hops:
                yield self.sim.timeout(when - self.sim.now)
            action()
            self.log.append((label, self.sim.now))
        self.cluster.spawn(proc())

    def waiter(self, wait, label="waiter"):
        """Run ``wait`` (a generator), then log a resume and two
        follow-up timeouts that tie with the bystanders."""
        def proc():
            try:
                value = yield from wait
            except RuntimeError as exc:  # a failed receive
                value = repr(exc)
            self.log.append((label, self.sim.now, value))
            for _ in range(2):
                yield self.sim.timeout(50)
                self.log.append((label + "-after", self.sim.now))
            return value
        return self.cluster.spawn(proc())

    def outcome(self):
        return {"log": self.log, "now": self.sim.now,
                "busy_ns": self.host.stats["busy_ns"],
                "hazards": self.cluster.total_hazards()}


def _cpu_set(scene, flag, value):
    return lambda: scene.host.cpu_write(flag, np.array([value], dtype=np.uint32))


def _host_scene(kind, writes, at_least=1, writer_first=False, stop=None):
    """CPU poller from t=0 (period 50) and writers ``{value: hops}``."""
    scene = _Scene()
    flag = scene.host.alloc(4)
    scene.noise(50)
    scene.noise(25, label="fast")

    def writers():
        for value, hops in writes:
            scene.at(hops, _cpu_set(scene, flag, value))

    if writer_first:
        writers()
    proc = scene.waiter(_HOST_POLL[kind](scene.host, flag, at_least))
    if not writer_first:
        writers()
    if stop is not None:
        when, how = stop
        scene.sim.call_later(when, proc.interrupt if how == "interrupt"
                             else proc.kill)
    scene.sim.run()
    return scene.outcome(), scene.sim.events_processed


# (writes as (value, hops), writer spawned before the waiter?)
_HOST_CASES = {
    "between-polls": ([(1, [120])], False),
    "on-poll-sched-before-prev": ([(1, [10, 150])], False),
    "on-poll-sched-after-prev": ([(1, [120, 150])], False),
    "one-period-ahead": ([(1, [100, 150])], False),
    "chain-from-before-arm": ([(1, [50, 100, 150])], True),
    "chain-from-after-arm": ([(1, [50, 100, 150])], False),
    "at-t0-after-first-probe": ([(1, [0])], False),
    "two-writes-one-period": ([(1, [110]), (2, [130])], False),
}


class TestWatchedSpin:
    """The watched form of Host.poll_flag, Host.wait_recv and
    KernelContext.poll_flag against the Timeout loops."""

    @pytest.mark.parametrize("case", sorted(_HOST_CASES))
    def test_host_poll_flag(self, case):
        writes, first = _HOST_CASES[case]
        watched, pops = _host_scene("spin", writes, writer_first=first)
        oracle, loop_pops = _host_scene("legacy", writes, writer_first=first)
        assert watched == oracle
        # The check replaces the tick that sees the write; every failed
        # tick before it is gone (at t0 there are none).
        assert pops < loop_pops or case == "at-t0-after-first-probe"

    def test_tie_rule_reaches_both_outcomes(self):
        # A write on a poll instant is seen by that poll iff the writer
        # was scheduled before the previous poll popped.
        def resumed(writes, first=False):
            outcome, _ = _host_scene("spin", writes, writer_first=first)
            return [e[1] for e in outcome["log"] if e[0] == "waiter"]

        assert resumed([(1, [10, 150])]) == [150]
        assert resumed([(1, [120, 150])]) == [200]
        assert resumed([(1, [50, 100, 150])], first=True) == [150]
        assert resumed([(1, [50, 100, 150])], first=False) == [200]

    @pytest.mark.parametrize("until", [150, 160])
    def test_write_between_runs(self, until):
        # Outside run() a write sorts after every pop so far: a poll due
        # at the stop instant has already missed it.
        def scene_of(kind):
            scene = _Scene()
            flag = scene.host.alloc(4)
            scene.noise(50)
            scene.waiter(_HOST_POLL[kind](scene.host, flag, 1))
            scene.sim.run(until=until)
            _cpu_set(scene, flag, 1)()
            scene.sim.run()
            return scene.outcome()

        assert scene_of("spin") == scene_of("legacy")
        assert ("waiter", 200, 1) in scene_of("spin")["log"]

    def test_counting_flag_first_write_short(self):
        writes = [(1, [120]), (2, [330])]
        watched, pops = _host_scene("spin", writes, at_least=2)
        oracle, loop_pops = _host_scene("legacy", writes, at_least=2)
        assert watched == oracle and pops < loop_pops
        assert ("waiter", 350, 2) in watched["log"]

    def test_lockstep_pollers_keep_tick_order(self):
        # Pollers with the same poll instants wake at one instant; their
        # checks must pop in the order their ticks would have.
        def scene_of(kind):
            scene = _Scene()
            flag = scene.host.alloc(4)
            scene.noise(50)

            def poller(name, start_hops, at_least):
                def proc():
                    for when in start_hops:
                        yield scene.sim.timeout(when - scene.sim.now)
                    value = yield from _HOST_POLL[kind](scene.host, flag,
                                                        at_least)
                    scene.log.append((name, scene.sim.now, value))
                    yield scene.sim.timeout(50)
                    scene.log.append((name + "-after", scene.sim.now))
                scene.cluster.spawn(proc())

            poller("a", [], 2)           # arms at 0
            poller("c", [], 1)           # arms at 0, after a
            poller("b", [100], 1)        # arms at 100, queued at 0
            poller("d", [75, 100], 1)    # arms at 100, queued at 75
            poller("e", [10], 1)         # other instants: 60, 110, ...
            scene.at([230], _cpu_set(scene, flag, 1))
            scene.at([200, 330], _cpu_set(scene, flag, 2))
            scene.sim.run()
            return scene.outcome(), scene.sim.events_processed

        watched, pops = scene_of("spin")
        oracle, loop_pops = scene_of("legacy")
        assert watched == oracle and pops < loop_pops
        woke = [e[0] for e in watched["log"] if e[1] == 250 and len(e) == 3]
        assert woke == ["b", "c", "d"]

    @pytest.mark.parametrize("how", ["interrupt", "kill"])
    def test_stop_while_asleep(self, how):
        writes = [(1, [400])]
        watched, _ = _host_scene("spin", writes, stop=(175, how))
        oracle, _ = _host_scene("legacy", writes, stop=(175, how))
        assert watched == oracle

    @pytest.mark.parametrize("how", ["interrupt", "kill"])
    def test_later_write_schedules_nothing(self, how):
        scene = _Scene()
        flag = scene.host.alloc(4)
        proc = scene.cluster.spawn(_HOST_POLL["spin"](scene.host, flag, 1))
        scene.sim.run(until=120)
        assert scene.sim.peek() is None  # asleep: no tick pending
        proc.interrupt() if how == "interrupt" else proc.kill()
        scene.sim.run()
        queued = scene.sim._seq
        _cpu_set(scene, flag, 1)()
        assert scene.sim.peek() is None and scene.sim._seq == queued
        assert not scene.sim._classes

    def test_hazardous_probe_keeps_ticking(self):
        def scene_of(kind):
            scene = _Scene()
            flag = scene.host.alloc(4)
            gpu_mem = scene.cluster[0].mem
            # An unpublished GPU store: every CPU load of it is a hazard.
            gpu_mem.record_write(0, Agent.GPU, flag)
            scene.at([260], _cpu_set(scene, flag, 1))
            scene.waiter(_HOST_POLL[kind](scene.host, flag, 1))
            scene.sim.run()
            return scene.outcome(), scene.sim.events_processed

        watched, pops = scene_of("spin")
        oracle, loop_pops = scene_of("legacy")
        assert watched == oracle and pops == loop_pops
        assert watched["hazards"] == 300 // 50 + 1  # one per probe

    @pytest.mark.parametrize("hops,outcome", [
        ([300], (450, 400)),          # inside a round
        ([100, 250], (250, 200)),     # on a round start, queued before it
        ([220, 250], (450, 400)),     # on a round start, queued after it
        ([200], (250, 200)),          # on a round end, queued after it
    ])
    def test_wait_recv(self, hops, outcome):
        def scene_of(kind, fail=False):
            scene = _Scene()
            handle = scene.host.post_recv(3, scene.host.alloc(64), 64)
            done = (lambda: handle.complete.fail(RuntimeError("gone"))) if fail \
                else (lambda: handle.complete.succeed("msg"))
            scene.noise(50)
            scene.waiter(_WAIT_RECV[kind](scene.host, handle))
            scene.at(hops, done)
            scene.sim.run()
            return scene.outcome(), scene.sim.events_processed

        for fail in (False, True):
            watched, pops = scene_of("spin", fail)
            oracle, loop_pops = scene_of("legacy", fail)
            assert watched == oracle and pops < loop_pops
            resumed = [e for e in watched["log"] if e[0] == "waiter"]
            assert (resumed[0][1], watched["busy_ns"]) == outcome
            assert ("gone" in resumed[0][2]) == fail

    def test_wait_recv_already_complete(self):
        def scene_of(kind):
            scene = _Scene()
            handle = scene.host.post_recv(3, scene.host.alloc(64), 64)
            handle.complete.succeed("msg")
            scene.waiter(_WAIT_RECV[kind](scene.host, handle))
            scene.sim.run()
            return scene.outcome()

        assert scene_of("spin") == scene_of("legacy")
        assert scene_of("spin")["busy_ns"] == 0

    @pytest.mark.parametrize("case", ["between", "on-poll-before",
                                      "on-poll-after", "chain", "counting"])
    def test_gpu_poll_flag(self, case):
        def scene_of(kind):
            scene = _Scene()
            node = scene.cluster[0]
            flag = node.host.alloc(4)
            scene.noise(100, count=60)
            plans = {"between": ([(1, [130])], 1),
                     "on-poll-before": ([(1, [10, 300])], 1),
                     "on-poll-after": ([(1, [250, 300])], 1),
                     "chain": ([(1, [100, 200, 300])], 1),
                     "counting": ([(1, [150]), (2, [420])], 2)}
            writes, at_least = plans[case]

            def nic_set(value):
                def write():
                    flag.view(np.uint32)[0] = value
                    node.mem.record_write(scene.sim.now, Agent.NIC, flag)
                return write

            def kernel(ctx):
                # Writers count from the kernel's first probe (t0).
                t0 = ctx.sim.now
                for value, hops in writes:
                    scene.at([t0 + h for h in hops], nic_set(value))
                seen = yield from _GPU_POLL[kind](ctx, flag, at_least)
                scene.log.append(("kernel", ctx.sim.now - t0, seen))
                yield ctx.compute(100)
                scene.log.append(("kernel-after", ctx.sim.now - t0))

            node.gpu.launch(KernelDescriptor(fn=kernel, n_workgroups=2,
                                             name="poller"))
            scene.sim.run()
            return scene.outcome(), scene.sim.events_processed

        watched, pops = scene_of("spin")
        oracle, loop_pops = scene_of("legacy")
        assert watched == oracle and pops < loop_pops
        assert watched["hazards"] == 0
