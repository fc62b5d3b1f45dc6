"""The reliable path without dead events: :class:`repro.sim.Timer` (one
heap entry per retransmit timer) against one ``call_later`` per arm, and
``Fabric.transmit(event=False)`` against a transmit whose delivery event
nobody waits on.  Both must keep every remaining pop's key, seeded
tie-breaks included."""

import random

import pytest

from repro.config import NetworkConfig, ReliabilityConfig
from repro.net import Fabric, Message, StarTopology
from repro.net.packet import MessageKind
from repro.sim import SimulationError, Simulator, Timer


class _CallLaterTimer:
    """The reference: one ``call_later`` per arm, as the transport armed
    its timer before :class:`Timer`; a superseded or cancelled arm still
    pops, and does nothing."""

    def __init__(self, sim, fn, *args):
        self.sim = sim
        self.fn = fn
        self.args = args
        self.gen = 0
        self.armed = False

    def arm(self, delay):
        self.gen += 1
        self.armed = True
        self.sim.call_later(delay, self._fire, self.gen)

    def cancel(self):
        self.gen += 1
        self.armed = False

    def _fire(self, gen):
        if gen != self.gen:
            return
        self.armed = False
        self.fn(*self.args)


def _flow(timer_cls, seed, tiebreak_seed=None):
    """One transport-like flow driven by a seeded script.

    Sends arm an idle timer, ACKs re-arm it (resetting the backoff, so a
    re-arm can land *before* the entry already queued), a drained window
    cancels it, and each timeout re-arms with doubled delay plus jitter.
    Other events are scheduled onto every deadline, before and after the
    arm, so the timer's place among same-tick events is observed.

    Returns ``(log, pops, seq, rng_state)``: the key of every pop that
    ran code, the key of every pop, and the engine's counters at the end.
    """
    sim = Simulator()
    if tiebreak_seed is not None:
        sim.seed_tiebreaks(tiebreak_seed)
    rng = random.Random(seed)
    pops = []
    sim.add_step_probe(lambda t, p, tie, seq, ev: pops.append((t, p, tie, seq)))
    log = []
    state = {"retries": 0}

    def ran(what):
        log.append((what, pops[-1]))

    def rto():
        return 40 * 2 ** state["retries"] + rng.randrange(0, 6)

    def arm():
        delay = rto()
        sim.call_later(delay, ran, "before-arm")
        timer.arm(delay)
        sim.call_later(delay, ran, "after-arm")

    def on_timeout():
        ran("timeout")
        state["retries"] += 1
        if state["retries"] < 4:
            arm()

    timer = timer_cls(sim, on_timeout)

    def action():
        ran("action")
        pick = rng.random()
        if pick < 0.3:                     # send: arm only an idle timer
            if not timer.armed:
                arm()
        elif pick < 0.75:                  # ACK: progress resets backoff
            state["retries"] = 0
            arm()
        elif pick < 0.9:                   # window drained
            timer.cancel()
        else:                              # a burst of re-arms in one pop
            for _ in range(3):
                arm()

    t = 0
    for _ in range(120):
        t += rng.choice((0, 0, 7, 13, 40, 41, 90))
        sim.call_later(t, action)
    sim.run()
    state_rng = (sim._tiebreak_rng.getstate()
                 if sim._tiebreak_rng is not None else None)
    return log, pops, sim._seq, state_rng


def _is_subsequence(short, long):
    it = iter(long)
    return all(any(x == y for y in it) for x in short)


class TestTimer:
    @pytest.mark.parametrize("tiebreak_seed", [None, 3, 17])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_call_later_per_arm(self, seed, tiebreak_seed):
        ref_log, ref_pops, ref_seq, ref_rng = _flow(_CallLaterTimer, seed,
                                                    tiebreak_seed)
        log, pops, seq, rng_state = _flow(Timer, seed, tiebreak_seed)
        # Every pop that runs code -- timeouts and the events around
        # them -- pops under the same key, in the same order.
        assert log == ref_log
        assert any(what == "timeout" for what, _ in log)
        # The pops that are gone are the reference's no-op arms.
        assert _is_subsequence(pops, ref_pops)
        assert len(pops) < len(ref_pops)
        # Each arm took its seq and tie-break draw, as call_later would.
        assert seq == ref_seq
        assert rng_state == ref_rng

    def test_one_heap_entry_per_timer(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, fired.append, "x")
        for delay in range(100, 200, 10):
            timer.arm(delay)
        assert len(sim._heap) == 1
        sim.run()
        # The entry popped at the first arm's deadline, re-pushed itself
        # under the live arm's key, and fired there.
        assert fired == ["x"] and sim.now == 190
        assert sim.events_processed == 2

    def test_earlier_rearm_pushes_ahead(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.arm(500)
        timer.arm(50)
        sim.run()
        assert fired == [50]

    def test_cancel_and_armed(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, fired.append, 1)
        assert not timer.armed
        timer.arm(10)
        assert timer.armed
        timer.cancel()
        assert not timer.armed
        sim.run()
        assert fired == []
        timer.arm(5)
        sim.run()
        assert fired == [1] and not timer.armed

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Timer(Simulator(), lambda: None).arm(-1)


def _fabric(seed):
    sim = Simulator()
    sim.seed_tiebreaks(seed)
    net = NetworkConfig()
    nodes = ["n0", "n1", "n2"]
    fabric = Fabric(sim, StarTopology(nodes, net.link_latency_ns,
                                      net.switch_latency_ns), net)
    return sim, fabric


def _traffic(with_event, seed):
    """Data with rx handlers and ACKs a filter consumes, sent with or
    without a delivery event; returns what the engine and handlers saw."""
    sim, fabric = _fabric(seed)
    seen = []
    for node in ("n1", "n2"):
        fabric.register_rx(node, lambda d: seen.append(
            (sim.now, d.message.src, d.message.nbytes, sim._seq)))
    fabric.register_rx_filter(
        "n0", lambda d: d.message.kind is not MessageKind.ACK)
    returned = []
    for i in range(12):
        src, dst = ("n0", "n1") if i % 3 else ("n2", "n0")
        kind = MessageKind.ACK if dst == "n0" else MessageKind.PUT
        returned.append(fabric.transmit(
            Message(src=src, dst=dst, nbytes=64 * (i + 1), kind=kind,
                    seq=i if kind is MessageKind.ACK else None),
            event=with_event))
    sim.run()
    return seen, sim._seq, sim._tiebreak_rng.getstate(), returned, sim


class TestTransmitWithoutEvent:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_takes_the_seq_and_draw_of_transmit(self, seed):
        seen, seq, rng_state, events, sim = _traffic(True, seed)
        seen_x, seq_x, rng_x, nothing, sim_x = _traffic(False, seed)
        assert seen_x == seen
        assert seq_x == seq
        assert rng_x == rng_state
        assert all(ev is not None for ev in events)
        assert nothing == [None] * len(nothing)
        # Only the delivered (not filtered) messages' events popped.
        delivered = sum(1 for ev in events if ev.processed)
        assert delivered == 8
        assert sim_x.events_processed == sim.events_processed - delivered


class TestReliableFlowsBuildNoDeliveryEvents:
    def test_transport_sends_without_events(self):
        from repro.cluster import Cluster

        cluster = Cluster(n_nodes=2)
        for node in cluster.nodes:
            node.nic.enable_reliability(ReliabilityConfig())
        calls = []
        fabric = cluster.fabric
        real = fabric.transmit

        def spy(msg, event=True):
            calls.append((msg.kind, event))
            return real(msg, event)

        fabric.transmit = spy
        src, dst = cluster.nodes
        buf = src.host.alloc(256)
        rbuf = dst.host.alloc(256)
        handle = src.nic.post_put(buf.addr(), 256, dst.name, rbuf.addr())
        cluster.sim.run()
        assert handle.delivered.processed and handle.delivered.ok
        assert calls == [(MessageKind.PUT, False), (MessageKind.ACK, False)]
