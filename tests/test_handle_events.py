"""A put handle's ``local`` and ``delivered`` events are built on first
access.  Whenever a waiter touches them -- before completion, in the
completion instant before the completion pops, or after it popped -- the
run must be the one an eager handle gives: the same resume times and
values, the same transport outcome, and the same heap key for every pop.
The eager reference builds both events when the handle is made."""

import numpy as np
import pytest

from repro.config import ReliabilityConfig
from repro.net.fabric import NO_FAULT, FaultDecision
from repro.nic import TransportError
from repro.nic.device import _PENDING, _POPPED, _TRIGGERED, PutHandle

from conftest import build_nic_testbed

NBYTES = 192
#: Data messages to this node are always lost, so its flow gives up and
#: the puts to it fail with a TransportError.
DEAD = "n2"


class _Lossy:
    """Drops every data message to ``DEAD`` and every fifth other data
    message, so flows retransmit, and one gives up."""

    def __init__(self):
        self.data = 0

    def on_transmit(self, msg, now):
        if msg.kind.is_control:
            return NO_FAULT
        if msg.dst == DEAD:
            return FaultDecision(drop=True)
        self.data += 1
        return FaultDecision(drop=True) if self.data % 5 == 0 else NO_FAULT

    def adjust_delivery(self, dst, t):
        return t


def _run(monkeypatch, mode, timing, tiebreak_seed, eager):
    """Puts from n0 (plain, and a triggered fan-out) to n1, n3 and the
    dead n2; a waiter yields each handle event at ``timing``.

    Returns the waiters' log, the key of every pop, the transport stats,
    and the handle states the waiters found when they touched."""
    real_init = PutHandle.__init__
    real_local = PutHandle._complete_local
    real_delivered = PutHandle._complete_delivered
    handles = []
    found = []

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        handles.append(self)
        if eager:
            self.local
            self.delivered

    tb = build_nic_testbed(4)
    sim = tb.sim
    log = []
    wakes = {}

    def waiter(handle, which, wake):
        # A process that waits on the event from the touch on, as a
        # model process would: it yields the event at the touch.
        index = handles.index(handle)
        if wake is not None:
            yield wake
        found.append((getattr(handle, f"_{which}") is None,
                      getattr(handle, f"_{which}_state")))
        try:
            value = yield getattr(handle, which)
        except TransportError as err:
            log.append((index, which, sim.now, "failed", err.to_dict()))
            return
        if which == "delivered":
            value = (value.sent_at, value.delivered_at, value.message.seq)
        log.append((index, which, sim.now, "ok", value))

    def completing(real, which):
        def complete(self, ok, value):
            wake = wakes.pop((id(self), which), None)
            if timing == "instant":
                # The waiter resumes in a pop pushed just before the
                # completion's: after the NIC callback in progress, and
                # before the completion pops.
                wake.succeed()
            real(self, ok, value)
            if timing == "after":
                wake.succeed(delay=1)
        return complete

    monkeypatch.setattr(PutHandle, "__init__", init)
    monkeypatch.setattr(PutHandle, "_complete_local",
                        completing(real_local, "local"))
    monkeypatch.setattr(PutHandle, "_complete_delivered",
                        completing(real_delivered, "delivered"))

    if tiebreak_seed is not None:
        sim.seed_tiebreaks(tiebreak_seed)
    pops = []
    sim.probes.step.append(lambda t, p, tie, seq, ev: pops.append((t, p, tie, seq)))
    for nic in tb.nics.values():
        nic.enable_reliability(ReliabilityConfig(
            mode=mode, window=3, max_retries=2, retransmit_timeout_ns=3_000))
    tb.fabric.install_interposer(_Lossy())
    nic = tb.nics["n0"]
    src = tb.alloc_registered("n0", NBYTES, "src")
    src.view(np.uint8)[:] = 7
    dst = {n: tb.alloc_registered(n, NBYTES, "dst") for n in ("n1", "n2", "n3")}

    def posted(new):
        for handle in new:
            for which in ("local", "delivered"):
                wake = None
                if timing != "before":
                    wake = wakes[id(handle), which] = sim.event()
                sim.spawn(waiter(handle, which, wake))

    def post(i):
        target = ("n1", "n3", "n1", DEAD)[i % 4]
        posted([nic.post_put(src.addr(), NBYTES, target, dst[target].addr())])

    for i in range(14):
        sim.call_later(i * 120, post, i)
    entry = nic.register_triggered_fanout(5, 1, [
        {"local_addr": src.addr(), "nbytes": NBYTES, "target": n,
         "remote_addr": dst[n].addr()} for n in ("n1", "n3")])
    posted(nic.fanout_handles(entry))
    sim.call_later(700, nic.mmio_write, nic.trigger_address, 5)
    sim.run()
    stats = {n: dict(t.transport.stats) for n, t in tb.nics.items()}
    return sorted(log), pops, stats, found


@pytest.mark.parametrize("tiebreak_seed", [None, 7])
@pytest.mark.parametrize("timing", ["before", "instant", "after"])
@pytest.mark.parametrize("mode", ["go-back-n", "selective-repeat"])
def test_matches_eager_handles(monkeypatch, mode, timing, tiebreak_seed):
    lazy = _run(monkeypatch, mode, timing, tiebreak_seed, eager=False)
    monkeypatch.undo()
    ref = _run(monkeypatch, mode, timing, tiebreak_seed, eager=True)
    log, pops, stats, found = lazy
    assert log == ref[0]
    assert pops == ref[1]
    assert stats == ref[2]
    # Every event of the 16 puts was waited on, some failed, and the
    # flows to live peers retransmitted.
    assert len(log) == 32
    assert any(entry[3] == "failed" for entry in log)
    assert any(entry[3] == "ok" for entry in log)
    assert stats["n0"]["retransmits"] > 0 and stats["n0"]["give_ups"] == 1
    # The lazy run touched each event in the state the timing names,
    # with no event built before the touch.  (Seeded tie-breaks may put
    # the completion's pop ahead of an in-instant touch.)
    state = {"before": _PENDING, "instant": _TRIGGERED, "after": _POPPED}[timing]
    assert all(built for built, _ in found) and len(found) == 32
    states = [s for _, s in found]
    if timing == "instant" and tiebreak_seed is not None:
        assert set(states) == {_TRIGGERED, _POPPED}
    else:
        assert states == [state] * 32
    assert not any(built for built, _ in ref[3])


def test_untouched_events_are_never_built():
    tb = build_nic_testbed(2)
    for nic in tb.nics.values():
        nic.enable_reliability(ReliabilityConfig())
    src = tb.alloc_registered("n0", NBYTES, "src")
    dst = tb.alloc_registered("n1", NBYTES, "dst")
    handle = tb.nics["n0"].post_put(src.addr(), NBYTES, "n1", dst.addr())
    tb.sim.run()
    assert handle._local is None and handle._delivered is None
    assert handle._local_state == handle._delivered_state == _POPPED
    # Built after the fact, they are processed, with the outcome.
    assert handle.local.processed and handle.local.ok
    assert handle.delivered.processed
    assert handle.delivered.value.delivered_at <= tb.sim.now
