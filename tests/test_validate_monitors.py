"""Runtime invariant monitors: clean runs stay silent, broken hardware
models are caught with structured violations.

The centerpiece is the injected-bug demonstration: an engine whose FIFO
tie-break is deliberately inverted (same-tick events pop LIFO) is caught
by :class:`MonotoneClockMonitor` on a real workload, and the fuzz
harness turns the violation into a structured, replayable case report.
"""

from types import SimpleNamespace

import pytest

from repro.net import Message
from repro.nic.triggered import NetworkOp, TriggerEntry
from repro.sim import Simulator
from repro.validate import (
    ExactlyOnceTriggerMonitor,
    FabricOrderMonitor,
    InvariantViolation,
    MonotoneClockMonitor,
    SendBufferSafetyMonitor,
    ValidateExperiment,
    attach_monitors,
    default_monitors,
)

from conftest import build_nic_testbed


def _sim_only_cluster(sim: Simulator):
    return SimpleNamespace(sim=sim, tracer=None)


# ---------------------------------------------------------------------------
# InvariantViolation structure
# ---------------------------------------------------------------------------

class TestInvariantViolation:
    def test_structured_fields_and_headline(self):
        v = InvariantViolation("event-clock", "clock ran backwards",
                               time=42, node="n0", details={"seq": 7},
                               context=("t=40 n0/nic rx",))
        assert "[event-clock]" in str(v)
        assert "t=42ns" in str(v) and "node=n0" in str(v)
        doc = v.to_dict()
        assert doc["invariant"] == "event-clock"
        assert doc["details"] == {"seq": 7}
        assert doc["context"] == ["t=40 n0/nic rx"]

    def test_report_includes_details_and_context(self):
        v = InvariantViolation("fabric-order", "boom",
                               details={"msg_id": 3}, context=("ctx-line",))
        text = v.report()
        assert "msg_id = 3" in text and "ctx-line" in text

    def test_non_scalar_details_are_repr_coerced(self):
        v = InvariantViolation("x", "y", details={"obj": object()})
        assert isinstance(v.to_dict()["details"]["obj"], str)


# ---------------------------------------------------------------------------
# Invariant 1: monotone clock + FIFO tie-break
# ---------------------------------------------------------------------------

def _lifo_schedule_event(self, event, delay, priority=10):
    """A deliberately broken scheduler: truthful ``_sched_seq`` stamps,
    but same-``(time, priority)`` events pop in LIFO order."""
    import heapq
    if delay < 0:
        raise RuntimeError("cannot schedule into the past")
    self._seq += 1
    event._sched_seq = self._seq
    heapq.heappush(self._heap,
                   (self._now + int(delay), priority, 0, -self._seq, event))


class TestMonotoneClockMonitor:
    def test_clean_engine_is_silent(self):
        sim = Simulator()
        monitor = MonotoneClockMonitor()
        monitor.attach(_sim_only_cluster(sim))
        order = []
        for i in range(5):
            sim.schedule(10, order.append, i)
        sim.schedule(5, order.append, "early")
        sim.run()
        monitor.finalize()
        assert order == ["early", 0, 1, 2, 3, 4]

    def test_injected_lifo_tiebreak_is_caught(self, monkeypatch):
        monkeypatch.setattr(Simulator, "_schedule_event", _lifo_schedule_event)
        sim = Simulator()
        monitor = MonotoneClockMonitor()
        monitor.attach(_sim_only_cluster(sim))
        for i in range(3):
            sim.schedule(10, lambda: None)
        with pytest.raises(InvariantViolation) as exc:
            sim.run()
        v = exc.value
        assert v.invariant == "event-clock"
        assert "FIFO tie-break violated" in v.message
        assert v.details["sched_seq"] < v.details["previous_seq"]

    def test_injected_bug_on_real_workload_yields_structured_report(
            self, monkeypatch):
        """The ISSUE acceptance demo: drop the engine's FIFO tie-break,
        run a real fuzz case, and the campaign record carries the
        structured violation instead of a crashed worker."""
        monkeypatch.setattr(Simulator, "_schedule_event", _lifo_schedule_event)
        record = ValidateExperiment().run(
            params={"workload": "microbench", "seed": 3})
        assert record.metrics["ok"] is False
        violation = record.metrics["violation"]
        assert violation is not None
        assert violation["invariant"] == "event-clock"
        assert violation["details"]["sched_seq"] < violation["details"]["previous_seq"]
        # The replay coordinates ride along with the failure.
        assert record.metrics["seed"] == 3
        assert record.metrics["workload"] == "microbench"


# ---------------------------------------------------------------------------
# Invariant 2: exactly-once triggering
# ---------------------------------------------------------------------------

class TestExactlyOnceTriggerMonitor:
    def _armed(self, testbed):
        monitor = ExactlyOnceTriggerMonitor()
        monitor.attach(testbed)
        return monitor, testbed.nics["n0"].trigger_list

    def _register_put(self, testbed, tag, threshold):
        send = testbed.alloc_registered("n0", 64, f"send{tag}")
        recv = testbed.alloc_registered("n1", 64, f"recv{tag}")
        return testbed.nics["n0"].register_triggered_put(
            tag=tag, threshold=threshold, local_addr=send.addr(),
            nbytes=64, target="n1", remote_addr=recv.addr())

    def test_normal_trigger_path_is_silent(self):
        testbed = build_nic_testbed()
        monitor, tl = self._armed(testbed)
        self._register_put(testbed, tag=9, threshold=2)
        tl.trigger(9)
        tl.trigger(9)
        testbed.sim.run()
        monitor.finalize()
        assert tl.stats["fired"] == 1

    def test_double_fire_is_caught(self):
        testbed = build_nic_testbed()
        monitor, tl = self._armed(testbed)
        entry = self._register_put(testbed, tag=9, threshold=1)
        tl.trigger(9)
        entry.fired = False  # simulate a list that lost the fired mark
        with pytest.raises(InvariantViolation) as exc:
            tl._fire(entry)
        assert exc.value.invariant == "trigger-exactly-once"
        assert "more than once" in exc.value.message

    def test_below_threshold_fire_is_caught(self):
        testbed = build_nic_testbed()
        monitor, tl = self._armed(testbed)
        op = NetworkOp(kind="put", local_addr=0, nbytes=0, target="n1")
        entry = tl.register(op, tag=5, threshold=3)
        with pytest.raises(InvariantViolation) as exc:
            tl._fire(entry)
        assert "below threshold" in exc.value.message

    def test_met_threshold_that_never_fired_is_caught_at_finalize(self):
        testbed = build_nic_testbed()
        monitor, tl = self._armed(testbed)
        op = NetworkOp(kind="put", local_addr=0, nbytes=0, target="n1")
        stuck = TriggerEntry(tag=77, op=op, threshold=1, counter=1)
        tl.lookup.insert(stuck)  # bypasses the firing path entirely
        with pytest.raises(InvariantViolation) as exc:
            monitor.finalize()
        assert "never fired" in exc.value.message

    @pytest.mark.parametrize("attach_first", [True, False])
    def test_stuck_registered_entry_is_caught_at_finalize(self, attach_first):
        # Registered through the list, before or after the monitor
        # attached, then its counter raised behind the trigger path.
        testbed = build_nic_testbed()
        monitor = ExactlyOnceTriggerMonitor()
        if attach_first:
            monitor.attach(testbed)
        op = NetworkOp(kind="put", local_addr=0, nbytes=0, target="n1")
        stuck = testbed.nics["n0"].trigger_list.register(op, tag=77,
                                                          threshold=1)
        if not attach_first:
            monitor.attach(testbed)
        stuck.counter = 1
        with pytest.raises(InvariantViolation) as exc:
            monitor.finalize()
        assert "never fired" in exc.value.message

    def test_fired_mark_without_a_recorded_fire_is_caught(self):
        testbed = build_nic_testbed()
        monitor, tl = self._armed(testbed)
        op = NetworkOp(kind="put", local_addr=0, nbytes=0, target="n1")
        tl.lookup.insert(TriggerEntry(tag=78, op=op, threshold=1, counter=1,
                                      fired=True))
        with pytest.raises(InvariantViolation) as exc:
            monitor.finalize()
        assert "bookkeeping drift" in exc.value.message


# ---------------------------------------------------------------------------
# Invariant 6: fabric ordering
# ---------------------------------------------------------------------------

class TestFabricOrderMonitor:
    def _armed(self):
        testbed = build_nic_testbed()
        monitor = FabricOrderMonitor()
        monitor.attach(testbed)
        return testbed, monitor

    def test_real_traffic_is_silent(self):
        testbed, monitor = self._armed()
        src, dst = testbed.nics["n0"], testbed.nics["n1"]
        send = testbed.alloc_registered("n0", 64, "send")
        recv = testbed.alloc_registered("n1", 64, "recv")
        for _ in range(4):
            src.post_put(send.addr(), 64, "n1", recv.addr())
        testbed.sim.run()
        monitor.finalize()

    def test_fifo_inversion_is_caught(self):
        testbed, monitor = self._armed()
        ser = testbed.fabric.net.serialization_ns(64)
        lat = testbed.fabric.topology.path_latency_ns("n0", "n1")
        msg1 = Message(src="n0", dst="n1", nbytes=64)
        msg2 = Message(src="n0", dst="n1", nbytes=64)
        monitor._on_transmit(msg1, 0, ser, 5000)
        with pytest.raises(InvariantViolation) as exc:
            monitor._on_transmit(msg2, 100, 100 + ser, 100 + ser + lat)
        assert exc.value.invariant == "fabric-order"
        assert "FIFO violated" in exc.value.message

    def test_faster_than_physics_delivery_is_caught(self):
        testbed, monitor = self._armed()
        msg = Message(src="n0", dst="n1", nbytes=4096)
        ser = testbed.fabric.net.serialization_ns(4096)
        with pytest.raises(InvariantViolation) as exc:
            monitor._on_transmit(msg, 0, ser, 1)  # beats ser + path latency
        assert "physical floor" in exc.value.message

    def test_egress_overlap_is_caught(self):
        testbed, monitor = self._armed()
        ser = testbed.fabric.net.serialization_ns(4096)
        lat = testbed.fabric.topology.path_latency_ns("n0", "n1")
        msg1 = Message(src="n0", dst="n1", nbytes=4096)
        msg2 = Message(src="n0", dst="n1", nbytes=4096)
        monitor._on_transmit(msg1, 0, ser, ser + lat)
        with pytest.raises(InvariantViolation) as exc:
            # Second message's wire window starts inside the first's.
            monitor._on_transmit(msg2, 1, ser + 1, 2 * ser + lat)
        assert "serialization overlap" in exc.value.message


# ---------------------------------------------------------------------------
# Invariant 7: send-buffer completion safety
# ---------------------------------------------------------------------------

class TestSendBufferSafetyMonitor:
    def _handle(self, hid=1, op_id=5):
        return SimpleNamespace(handle_id=hid, op=SimpleNamespace(op_id=op_id))

    def test_read_then_complete_is_silent(self):
        monitor = SendBufferSafetyMonitor()
        h = self._handle()
        monitor._observe("n0", "send-dma-read", h, 100)
        monitor._observe("n0", "local-complete", h, 200)
        monitor.finalize()

    def test_complete_before_read_is_caught(self):
        monitor = SendBufferSafetyMonitor()
        with pytest.raises(InvariantViolation) as exc:
            monitor._observe("n0", "local-complete", self._handle(), 100)
        assert exc.value.invariant == "completion-safety"
        assert "before the NIC captured" in exc.value.message

    def test_read_after_complete_is_caught(self):
        monitor = SendBufferSafetyMonitor()
        h = self._handle()
        monitor._observe("n0", "send-dma-read", h, 100)
        monitor._observe("n0", "local-complete", h, 200)
        with pytest.raises(InvariantViolation) as exc:
            monitor._observe("n0", "send-dma-read", h, 300)
        assert "reusable" in exc.value.message


# ---------------------------------------------------------------------------
# Attachment plumbing
# ---------------------------------------------------------------------------

class TestAttachment:
    def test_default_monitors_cover_all_invariants(self):
        names = {m.invariant for m in default_monitors()}
        assert names == {"event-clock", "trigger-exactly-once",
                         "fabric-order", "completion-safety"}

    def test_attach_monitors_on_nic_testbed(self):
        testbed = build_nic_testbed()
        monitors = attach_monitors(testbed)
        assert len(monitors) == 4
        probes = testbed.sim.probes
        assert [len(probes.step), len(probes.trigger), len(probes.transmit),
                len(probes.put)] == [1, 1, 1, 1]

    def test_monitored_put_roundtrip_is_clean(self):
        testbed = build_nic_testbed()
        monitors = attach_monitors(testbed)
        send = testbed.alloc_registered("n0", 64, "send")
        recv = testbed.alloc_registered("n1", 64, "recv")
        testbed.nics["n0"].post_put(send.addr(), 64, "n1", recv.addr())
        testbed.sim.run()
        for monitor in monitors:
            monitor.finalize()
