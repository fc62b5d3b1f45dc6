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
from repro.sim import Event, SimulationError, Simulator, Timer


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
    sim.probes.step.append(lambda t, p, tie, seq, ev: pops.append((t, p, tie, seq)))
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

    @staticmethod
    def _loaded_point(monkeypatch, eager):
        """One loaded congestion point (gputn, red-ecn, load 0.8,
        selective repeat, 16-node fat tree).  Returns its record, the
        events it popped, the exact-``Event`` constructions inside each
        transport send, and the background puts' handles."""
        import dataclasses

        from repro.apps.congestion import CongestionExperiment
        from repro.config import default_config
        from repro.nic.device import Nic, PutHandle
        from repro.nic.transport import ReliableTransport
        from repro.traffic.background import BackgroundLoad

        built = [0]
        per_send = []
        background = []
        in_post_due = [False]
        popped = [0]
        real = {"init": Event.__init__, "send": ReliableTransport.send,
                "post_put": Nic.post_put, "post_due": BackgroundLoad._post_due,
                "handle": PutHandle.__init__, "run": Simulator.run}

        def event_init(self, *args, **kwargs):
            if self.__class__ is Event:
                built[0] += 1
            real["init"](self, *args, **kwargs)

        def send(self, *args, **kwargs):
            before = built[0]
            real["send"](self, *args, **kwargs)
            per_send.append(built[0] - before)

        def post_put(self, *args, **kwargs):
            handle = real["post_put"](self, *args, **kwargs)
            if in_post_due[0]:
                background.append(handle)
            return handle

        def post_due(self):
            in_post_due[0] = True
            try:
                real["post_due"](self)
            finally:
                in_post_due[0] = False

        def handle_init(self, *args, **kwargs):
            real["handle"](self, *args, **kwargs)
            self.local
            self.delivered

        def run(self, until=None):
            before = self.events_processed
            try:
                return real["run"](self, until)
            finally:
                popped[0] += self.events_processed - before

        monkeypatch.setattr(Event, "__init__", event_init)
        monkeypatch.setattr(ReliableTransport, "send", send)
        monkeypatch.setattr(Nic, "post_put", post_put)
        monkeypatch.setattr(BackgroundLoad, "_post_due", post_due)
        monkeypatch.setattr(Simulator, "run", run)
        if eager:
            monkeypatch.setattr(PutHandle, "__init__", handle_init)
        record = CongestionExperiment().run(
            {"strategy": "gputn", "transport": "selective-repeat",
             "discipline": "red-ecn", "load": 0.8, "topology": "fat-tree:k=4",
             "n_nodes": 16, "messages": 16, "bg_horizon_ns": 60_000,
             "seed": 1},
            dataclasses.replace(default_config(), seed=1))
        monkeypatch.undo()
        return record, popped[0], per_send, background

    def test_loaded_point_builds_only_what_is_waited_on(self, monkeypatch):
        record, popped, per_send, background = self._loaded_point(
            monkeypatch, eager=False)
        ref, ref_popped, _, _ = self._loaded_point(
            monkeypatch, eager=True)
        # The transport builds no event for a send.
        assert len(per_send) > 2000 and set(per_send) == {0}
        # No background put's local-completion event was built: nobody
        # waits on it.  Its delivered event is, by the load's counter.
        assert len(background) > 2000
        assert all(h._local is None for h in background)
        assert all(h._delivered is not None for h in background)
        # Every former pop still pops, and the record is the eager one.
        assert popped == ref_popped
        assert record.to_json() == ref.to_json()
