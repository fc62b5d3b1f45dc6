"""Selective-repeat ARQ with SACK, pacing and seeded backoff jitter.

NIC-level coverage of the ISSUE-8 transport upgrades: exactly-once
in-order delivery under seeded drop plans (property-tested across
seeds), per-packet retransmission (no go-back-N storms on a clean
window), the receiver reorder buffer, AIMD window pacing bounds, the
``make_transport`` mode factory, and the dedicated
``transport.backoff.<node>`` jitter substream (ISSUE-8 satellite 1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FaultConfig, ReliabilityConfig
from repro.faults import FaultPlan
from repro.memory import Agent
from repro.nic import TransportError
from repro.nic.transport import (ReliableTransport, SelectiveRepeatTransport,
                                 make_transport)

from conftest import build_nic_testbed


def sr_config(**kw):
    kw.setdefault("mode", "selective-repeat")
    kw.setdefault("retransmit_timeout_ns", 5_000)
    return ReliabilityConfig(**kw)


def armed_testbed(n_nodes=2, reliability=None, faults=None, rng=0):
    tb = build_nic_testbed(n_nodes)
    for nic in tb.nics.values():
        nic.enable_reliability(reliability or sr_config())
    plan = FaultPlan(faults, rng=rng).attach(tb.fabric) if faults else None
    return tb, plan


def stream_puts(tb, count, nbytes=256, src="n0", dst="n1", pipelined=False):
    """Post ``count`` sequential (or pipelined) puts; returns handles+bufs.

    Pipelined mode uses one source buffer per message: payloads are read
    at delivery time, so in-flight sends must not share a buffer."""
    handles, bufs = [], []
    src_buf = None
    for i in range(count):
        if src_buf is None or pipelined:
            src_buf = tb.alloc_registered(src, nbytes, f"src{i}")
        dst_buf = tb.alloc_registered(dst, nbytes, f"dst{i}")
        src_buf.view(np.uint8)[:] = (i + 1) & 0xFF
        tb.mems[src].record_write(tb.sim.now, Agent.CPU, src_buf)
        h = tb.nics[src].post_put(src_buf.addr(), nbytes, dst, dst_buf.addr())
        if not pipelined:
            tb.sim.run_until_event(h.delivered)
        handles.append(h)
        bufs.append(dst_buf)
    return handles, bufs


def watch_accepts(tb, dst="n1"):
    accepts = []
    tb.sim.probes.transport.append(
        lambda node, kind, peer, seq, now: node == dst and kind == "accept"
        and accepts.append(seq))
    return accepts


class TestFactory:
    def test_mode_selects_engine(self):
        tb = build_nic_testbed()
        assert isinstance(make_transport(tb.nics["n0"], ReliabilityConfig()),
                          ReliableTransport)
        sr = make_transport(tb.nics["n1"], sr_config())
        assert isinstance(sr, SelectiveRepeatTransport)

    def test_enable_reliability_routes_through_factory(self):
        tb = build_nic_testbed()
        tb.nics["n0"].enable_reliability(sr_config())
        assert isinstance(tb.nics["n0"].transport, SelectiveRepeatTransport)

    def test_bad_mode_rejected_at_config(self):
        with pytest.raises(ValueError, match="mode"):
            ReliabilityConfig(mode="stop-and-wait")


class TestCleanPath:
    def test_no_retransmits_without_faults(self):
        tb, _ = armed_testbed()
        _, bufs = stream_puts(tb, 5)
        tb.sim.run()
        stats = tb.nics["n0"].transport.stats
        assert stats["tx_data"] == 5 and stats["retransmits"] == 0
        assert stats["fast_retransmits"] == 0 and stats["cwnd_cuts"] == 0
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_pipelined_window_accepts_in_order(self):
        tb, _ = armed_testbed(reliability=sr_config(window=4))
        accepts = watch_accepts(tb)
        handles, _ = stream_puts(tb, 12, pipelined=True)
        tb.sim.run()
        assert accepts == list(range(12))
        assert all(h.delivered.ok for h in handles)


class TestSelectiveRecovery:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10 ** 6),
           drop=st.sampled_from([0.1, 0.25, 0.4]))
    def test_property_exactly_once_in_order_under_drops(self, seed, drop):
        """The ISSUE-8 acceptance property: whatever the seeded drop
        plan does, every sequence is accepted exactly once, in order,
        and every payload lands intact."""
        tb, plan = armed_testbed(
            reliability=sr_config(window=4, max_retries=64),
            faults=FaultConfig(drop_prob=drop), rng=seed)
        accepts = watch_accepts(tb)
        handles, bufs = stream_puts(tb, 10, pipelined=True)
        tb.sim.run()
        assert accepts == list(range(10))
        assert all(h.delivered.ok for h in handles)
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()
        # (A dropped ACK recovers via a later cumulative ACK without any
        # data retransmit, so drops > 0 does not imply retransmits > 0.)

    def test_loss_exercises_sack_and_reorder_buffer(self):
        tb, plan = armed_testbed(
            reliability=sr_config(window=6, max_retries=64),
            faults=FaultConfig(drop_prob=0.3), rng=11)
        handles, bufs = stream_puts(tb, 24, pipelined=True)
        tb.sim.run()
        assert plan.stats["drops"] > 0
        tx = tb.nics["n0"].transport.stats
        rx = tb.nics["n1"].transport.stats
        assert tx["sacked"] > 0          # holes acknowledged out of order
        assert rx["rx_buffered"] > 0     # receiver parked out-of-order data
        assert all(h.delivered.ok for h in handles)
        for i, buf in enumerate(bufs):
            assert (buf.view(np.uint8) == (i + 1) & 0xFF).all()

    def test_single_hole_recovers_by_fast_retransmit_alone(self):
        # Drop exactly one data packet: go-back-N would timeout and
        # resend the whole outstanding window; selective repeat sees
        # SACK evidence above the hole and resends just that packet,
        # with no timeout round at all.
        from repro.net.fabric import NO_FAULT, FaultDecision

        class _DropOneData:
            def __init__(self, victim_seq):
                self.victim = victim_seq

            def on_transmit(self, msg, now):
                if (not msg.kind.is_control
                        and self.victim is not None
                        and msg.seq == self.victim):
                    self.victim = None
                    return FaultDecision(drop=True)
                return NO_FAULT

            def adjust_delivery(self, dst, t):
                return t

        tb, _ = armed_testbed(reliability=sr_config(window=6))
        tb.fabric.install_interposer(_DropOneData(2))
        handles, _ = stream_puts(tb, 6, pipelined=True)
        tb.sim.run()
        stats = tb.nics["n0"].transport.stats
        assert stats["fast_retransmits"] == 1  # the hole...
        assert stats["retransmits"] == 0       # ...not a window resend
        assert stats["timeouts"] == 0
        assert tb.nics["n1"].transport.stats["rx_buffered"] > 0
        assert all(h.delivered.ok for h in handles)

    def test_retry_budget_exhaustion_raises(self):
        tb, _ = armed_testbed(
            reliability=sr_config(max_retries=2),
            faults=FaultConfig(drop_prob=1.0), rng=0)
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        with pytest.raises(TransportError):
            tb.sim.run_until_event(h.delivered)
        assert tb.nics["n0"].transport.stats["give_ups"] == 1


class TestPacing:
    def test_cwnd_floor_and_ceiling_respected(self):
        cfg = sr_config(window=8, pacing=True, cwnd_floor=2, cwnd_ceiling=4)
        assert cfg.effective_cwnd_ceiling == 4
        tb, _ = armed_testbed(reliability=cfg,
                              faults=FaultConfig(drop_prob=0.3), rng=9)
        in_flight = []
        orig = tb.nics["n0"].transport._send_limit

        def spy(st):
            limit = orig(st)
            in_flight.append(limit)
            return limit

        tb.nics["n0"].transport._send_limit = spy
        handles, _ = stream_puts(tb, 16, pipelined=True)
        tb.sim.run()
        assert in_flight and all(2 <= limit <= 4 for limit in in_flight)
        assert tb.nics["n0"].transport.stats["cwnd_cuts"] > 0
        assert all(h.delivered.ok for h in handles)

    def test_pacing_off_uses_full_window(self):
        tb, _ = armed_testbed(reliability=sr_config(window=8, pacing=False))
        st0 = tb.nics["n0"].transport._tx_state("n1")
        assert tb.nics["n0"].transport._send_limit(st0) == 8


class TestBackoffJitter:
    def test_zero_jitter_creates_no_stream(self):
        tb, _ = armed_testbed()
        assert tb.nics["n0"].transport._backoff_rng is None

    def test_jitter_is_deterministic_per_seed(self):
        def timeline(reliability):
            tb, _ = armed_testbed(
                reliability=reliability,
                faults=FaultConfig(drop_prob=0.4), rng=5)
            handles, _ = stream_puts(tb, 8, pipelined=True)
            tb.sim.run()
            assert all(h.delivered.ok for h in handles)
            return tb.sim.now, dict(tb.nics["n0"].transport.stats)

        jittered = sr_config(max_retries=64, backoff_jitter_ns=1_000)
        assert timeline(jittered) == timeline(jittered)
        # And the jitter is real: it shifts the recovery timeline.
        assert timeline(jittered) != timeline(sr_config(max_retries=64))

    def test_jitter_applies_to_go_back_n_too(self):
        tb = build_nic_testbed()
        cfg = ReliabilityConfig(backoff_jitter_ns=500)
        for nic in tb.nics.values():
            nic.enable_reliability(cfg)
        assert isinstance(tb.nics["n0"].transport, ReliableTransport)
        assert tb.nics["n0"].transport._backoff_rng is not None
