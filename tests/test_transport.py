"""Tests for the go-back-N reliable transport under injected faults.

NIC-level coverage: recovery under loss/corruption, exactly-once dedup,
window flow control, deterministic retry-budget exhaustion, injector
behavior (jitter, flaps, rx stalls), the invisibility of unarmed fault
plans, and fabric ingress serialization under concurrent senders.
"""

import numpy as np
import pytest

from repro.config import (FaultConfig, LinkFlap, NicStall, ReliabilityConfig,
                          default_config)
from repro.faults import FaultPlan
from repro.memory import Agent
from repro.nic import TransportError

from conftest import build_nic_testbed


def armed_testbed(n_nodes=2, reliability=None, faults=None, rng=0):
    tb = build_nic_testbed(n_nodes)
    for nic in tb.nics.values():
        nic.enable_reliability(reliability or ReliabilityConfig())
    plan = FaultPlan(faults, rng=rng).attach(tb.fabric) if faults else None
    return tb, plan


def stream_puts(tb, count, nbytes=256, src="n0", dst="n1"):
    """Post ``count`` sequential puts; returns (handles, dst buffers)."""
    handles, bufs = [], []
    src_buf = tb.alloc_registered(src, nbytes, "src")
    for i in range(count):
        dst_buf = tb.alloc_registered(dst, nbytes, f"dst{i}")
        src_buf.view(np.uint8)[:] = (i + 1) & 0xFF
        tb.mems[src].record_write(tb.sim.now, Agent.CPU, src_buf)
        h = tb.nics[src].post_put(src_buf.addr(), nbytes, dst, dst_buf.addr())
        tb.sim.run_until_event(h.delivered)
        handles.append(h)
        bufs.append(dst_buf)
    return handles, bufs


class TestZeroFaultBaseline:
    def test_no_retransmits_without_faults(self):
        tb, _ = armed_testbed()
        handles, bufs = stream_puts(tb, 5)
        tb.sim.run()  # let the final ACK flow back
        stats = tb.nics["n0"].transport.stats
        assert stats["tx_data"] == 5 and stats["acks_rx"] == 5
        assert stats["retransmits"] == 0 and stats["timeouts"] == 0
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_unarmed_plan_is_timing_invisible(self):
        def one_put(plan):
            tb = build_nic_testbed()
            if plan:
                FaultPlan(FaultConfig(), rng=0).attach(tb.fabric)
            src = tb.alloc_registered("n0", 512, "src")
            dst = tb.alloc_registered("n1", 512, "dst")
            h = tb.nics["n0"].post_put(src.addr(), 512, "n1", dst.addr())
            delivered = tb.sim.run_until_event(h.delivered)
            return delivered.delivered_at, dict(tb.fabric.stats)

        assert one_put(plan=False) == one_put(plan=True)

    def test_unarmed_plan_counters_empty(self):
        tb, plan = armed_testbed(faults=FaultConfig())
        stream_puts(tb, 3)
        assert plan.counters() == {}


class TestLossRecovery:
    def test_heavy_loss_recovers_payloads(self):
        tb, plan = armed_testbed(
            reliability=ReliabilityConfig(retransmit_timeout_ns=5_000),
            faults=FaultConfig(drop_prob=0.3), rng=11)
        _, bufs = stream_puts(tb, 20)
        stats = tb.nics["n0"].transport.stats
        assert plan.counters().get("drops", 0) > 0
        assert stats["retransmits"] > 0
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_windowed_pipeline_accepts_in_order(self):
        tb, _ = armed_testbed(
            reliability=ReliabilityConfig(window=3,
                                          retransmit_timeout_ns=5_000),
            faults=FaultConfig(drop_prob=0.25), rng=5)
        accepts = []
        tb.sim.probes.transport.append(
            lambda node, kind, peer, seq, now: node == "n1"
            and kind == "accept" and accepts.append(seq))
        nbytes = 128
        src = tb.alloc_registered("n0", nbytes, "src")
        handles = []
        for i in range(12):
            dst = tb.alloc_registered("n1", nbytes, f"dst{i}")
            handles.append(tb.nics["n0"].post_put(src.addr(), nbytes, "n1",
                                                  dst.addr()))
        tb.sim.run()
        assert accepts == list(range(12))
        assert all(h.delivered.ok for h in handles)

    def test_duplicate_data_accepted_exactly_once(self):
        # Eat the first few ACKs: the sender's (RTT-floored) timer fires,
        # go-back-N resends the already-delivered window, and the receiver
        # must dedup every copy.  (A sub-RTT configured timeout no longer
        # produces dups -- the transport floors the RTO at 2x path RTT.)
        class _DropAcks:
            def __init__(self, n):
                self.left = n

            def on_transmit(self, msg, now):
                from repro.net.fabric import NO_FAULT, FaultDecision
                if msg.kind.is_control and self.left > 0:
                    self.left -= 1
                    return FaultDecision(drop=True)
                return NO_FAULT

            def adjust_delivery(self, dst, t):
                return t

        tb, _ = armed_testbed(
            reliability=ReliabilityConfig(retransmit_timeout_ns=200,
                                          max_retries=10))
        tb.fabric.install_interposer(_DropAcks(3))
        accepts = []
        tb.sim.probes.transport.append(
            lambda node, kind, peer, seq, now: node == "n1"
            and kind == "accept" and accepts.append(seq))
        _, bufs = stream_puts(tb, 6)
        tb.sim.run()
        stats = tb.nics["n1"].transport.stats
        assert stats["rx_dups"] > 0  # the scenario actually produced dups
        assert accepts == list(range(6))  # ... but accepted exactly once
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_corruption_nacked_and_retransmitted(self):
        tb, plan = armed_testbed(
            reliability=ReliabilityConfig(retransmit_timeout_ns=5_000),
            faults=FaultConfig(corrupt_prob=0.4), rng=3)
        _, bufs = stream_puts(tb, 10)
        assert plan.counters().get("corruptions", 0) > 0
        assert tb.nics["n1"].transport.stats["rx_corrupt"] > 0
        assert tb.nics["n1"].transport.stats["nacks_tx"] > 0
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()


class TestGiveUp:
    def _total_loss_run(self):
        tb, _ = armed_testbed(
            reliability=ReliabilityConfig(retransmit_timeout_ns=1_000,
                                          max_retries=2),
            faults=FaultConfig(drop_prob=1.0), rng=0)
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        tb.sim.run()
        return tb, h

    def test_budget_exhaustion_raises_structured_error(self):
        tb, h = self._total_loss_run()
        assert h.delivered.triggered and not h.delivered.ok
        err = h.delivered.value
        assert isinstance(err, TransportError)
        assert (err.src, err.dst, err.seq) == ("n0", "n1", 0)
        assert err.attempts == 3  # gives up on the round exceeding budget 2
        assert err.to_dict()["dst"] == "n1"

    def test_give_up_is_deterministic_and_terminates(self):
        runs = []
        for _ in range(2):
            tb, h = self._total_loss_run()
            # run() returned => the heap drained: no timer leak, no hang.
            assert tb.sim.peek() is None
            runs.append((tb.sim.now, h.delivered.value.to_dict()))
        assert runs[0] == runs[1]

    def test_sends_after_death_fail_immediately(self):
        tb, _ = self._total_loss_run()
        src = tb.alloc_registered("n0", 64, "src2")
        dst = tb.alloc_registered("n1", 64, "dst2")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        tb.sim.run()
        assert not h.delivered.ok
        assert isinstance(h.delivered.value, TransportError)


class TestInjectors:
    def test_jitter_delays_but_delivers(self):
        def delivered_at(jitter):
            tb, _ = armed_testbed(
                faults=FaultConfig(jitter_ns=jitter) if jitter else None)
            src = tb.alloc_registered("n0", 256, "src")
            dst = tb.alloc_registered("n1", 256, "dst")
            h = tb.nics["n0"].post_put(src.addr(), 256, "n1", dst.addr())
            return tb.sim.run_until_event(h.delivered).delivered_at

        assert delivered_at(5_000) > delivered_at(0)

    def test_link_flap_outage_recovers_after_up(self):
        flap = LinkFlap(node="n0", down_at=0, up_at=30_000)
        tb, plan = armed_testbed(
            reliability=ReliabilityConfig(retransmit_timeout_ns=8_000,
                                          max_retries=8),
            faults=FaultConfig(flaps=(flap,)), rng=0)
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        delivered = tb.sim.run_until_event(h.delivered)
        assert delivered.delivered_at >= flap.up_at
        assert plan.counters()["flap_drops"] > 0

    def test_rx_stall_defers_delivery_to_window_end(self):
        stall = NicStall(node="n1", start=0, end=20_000)
        tb, plan = armed_testbed(faults=FaultConfig(stalls=(stall,)), rng=0)
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        delivered = tb.sim.run_until_event(h.delivered)
        assert delivered.delivered_at >= stall.end
        assert plan.counters()["stall_deferrals"] > 0

    def test_plan_is_seed_deterministic(self):
        def run_once():
            tb, plan = armed_testbed(
                reliability=ReliabilityConfig(retransmit_timeout_ns=5_000),
                faults=FaultConfig(drop_prob=0.3, corrupt_prob=0.1,
                                   jitter_ns=500), rng=42)
            stream_puts(tb, 10)
            return tb.sim.now, plan.counters(), dict(
                tb.nics["n0"].transport.stats)

        assert run_once() == run_once()


class TestFabricSerializationUnderConcurrency:
    """Satellite coverage: the ingress port stays serialized when many
    senders converge on one destination (per-pair FIFO is a transport
    correctness precondition)."""

    def test_concurrent_senders_serialize_at_ingress(self):
        tb = build_nic_testbed(4)
        net = default_config().network
        nbytes = 4096
        handles = {}
        for src in ("n1", "n2", "n3"):
            buf = tb.alloc_registered(src, nbytes, f"{src}.src")
            handles[src] = [
                tb.nics[src].post_put(
                    buf.addr(), nbytes, "n0",
                    tb.alloc_registered("n0", nbytes, f"{src}.dst{i}").addr())
                for i in range(3)
            ]
        tb.sim.run()
        arrivals = sorted(
            h.delivered.value.delivered_at
            for hs in handles.values() for h in hs)
        ser = net.serialization_ns(nbytes)
        for earlier, later in zip(arrivals, arrivals[1:]):
            assert later - earlier >= ser  # no overlapping ingress occupancy
        for src, hs in handles.items():  # per-pair FIFO preserved
            times = [h.delivered.value.delivered_at for h in hs]
            assert times == sorted(times)
