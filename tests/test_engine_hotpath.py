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
        sim.add_step_probe(
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
            sim.add_step_probe(
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
        self.sim.add_step_probe(
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
        sim.add_step_probe(lambda t, prio, tie, seq, ev: pops.append((t, prio)))
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
