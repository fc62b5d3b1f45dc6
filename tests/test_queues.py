"""Switch output-port queue disciplines (repro.net.queues).

Property coverage for the ISSUE-8 queue invariants:

* work conservation -- a backlogged port is never idle: each admitted
  arrival that finds queued bytes starts exactly when the previous
  reservation drains;
* no intra-flow reordering -- admissions to one port start in admission
  order (the FIFO reserve discipline survives the queue layer);
* RED probability monotone in occupancy, 0 at/below the min threshold,
  1 at/above the max;

plus the determinism contract (zero-load RED consumes no randomness,
seeded draws replay) and the drop/mark accounting.
"""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import KB, QueueConfig
from repro.net.fabric import Port
from repro.net.queues import SwitchQueues
from repro.sim import Probes
from repro.sim.rng import RandomStreams


@dataclass
class _Msg:
    nbytes: int


def drop_tail(capacity=8 * KB, probes=None):
    return SwitchQueues(QueueConfig(discipline="drop-tail",
                                    capacity_bytes=capacity),
                        probes=probes or Probes())


def red(ecn=False, capacity=8 * KB, lo=2 * KB, hi=6 * KB, p=1.0, seed=0):
    cfg = QueueConfig(discipline="red", ecn=ecn, capacity_bytes=capacity,
                      red_min_bytes=lo, red_max_bytes=hi, red_max_prob=p)
    return SwitchQueues(cfg, streams=RandomStreams(seed), probes=Probes())


KEY = ("sw0", "sw1")

arrival_plan = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),    # inter-arrival gap
        st.integers(min_value=64, max_value=4096),  # nbytes
    ),
    min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(plan=arrival_plan)
def test_property_work_conservation_and_fifo(plan):
    """Admitted arrivals on a backlogged port start back-to-back, and
    starts are monotone in admission order (no intra-flow reordering)."""
    q = drop_tail(capacity=1 << 30)  # never drop: isolate the timing law
    port = Port(KEY)
    now = 0
    last_start = -1
    last_end = 0
    for gap, nbytes in plan:
        now += gap
        ser = nbytes  # 1 byte/ns: any positive serialization works
        backlog = port.busy_until > now
        start, marked = q.admit(port, _Msg(nbytes), now, now, ser)
        assert start is not None and not marked
        if backlog:  # work conservation: no idle gap while queued
            assert start == last_end
        else:        # empty port: cut-through, no queueing delay
            assert start == now
        assert start > last_start  # FIFO: admission order == start order
        last_start, last_end = start, start + ser


@settings(max_examples=60, deadline=None)
@given(occupancies=st.lists(st.integers(min_value=0, max_value=10 * KB),
                            min_size=2, max_size=30),
       lo=st.integers(min_value=0, max_value=4 * KB - 1),
       span=st.integers(min_value=1, max_value=4 * KB),
       max_prob=st.floats(min_value=0.0, max_value=1.0))
def test_property_red_probability_monotone(occupancies, lo, span, max_prob):
    cfg = QueueConfig(discipline="red", capacity_bytes=16 * KB,
                      red_min_bytes=lo, red_max_bytes=lo + span,
                      red_max_prob=max_prob)
    q = SwitchQueues(cfg, streams=RandomStreams(0), probes=Probes())
    probs = [q.red_probability(o) for o in sorted(occupancies)]
    assert probs == sorted(probs)  # monotone in occupancy
    for o, p in zip(sorted(occupancies), probs):
        if o <= lo:
            assert p == 0.0
        elif o >= lo + span:
            assert p == 1.0
        else:
            assert 0.0 <= p <= max_prob


class TestDropTail:
    def test_overflow_drops_and_counts(self):
        q = drop_tail(capacity=1 * KB)
        port = Port(KEY)
        start, _ = q.admit(port, _Msg(1024), 0, 0, 1024)
        assert start == 0
        dropped, _ = q.admit(port, _Msg(1), 0, 0, 1)
        assert dropped is None
        assert q.stats["dropped"] == 1 and q.stats["enqueued"] == 1
        assert q.counters() == {"queue_enqueued": 1, "queue_dropped": 1,
                                "queue_max_depth_bytes": 1024}

    def test_drained_bytes_free_capacity(self):
        q = drop_tail(capacity=1 * KB)
        port = Port(KEY)
        q.admit(port, _Msg(1024), 0, 0, 100)  # drains at 100
        start, _ = q.admit(port, _Msg(1024), 150, 150, 100)
        assert start == 150  # backlog pruned: the queue emptied at 100
        assert q.stats["dropped"] == 0

    def test_ports_are_independent(self):
        q = drop_tail(capacity=1 * KB)
        q.admit(Port(("a", "b")), _Msg(1024), 0, 0, 10)
        start, _ = q.admit(Port(("b", "c")), _Msg(1024), 0, 0, 10)
        assert start == 0 and q.stats["dropped"] == 0


class TestRed:
    def test_requires_streams(self):
        with pytest.raises(ValueError, match="RandomStreams"):
            SwitchQueues(QueueConfig(discipline="red"), probes=Probes())

    def test_below_min_never_draws(self):
        q = red(lo=2 * KB)
        port = Port(KEY)
        for i in range(4):  # 4 x 512 = exactly red_min: no draw yet
            start, marked = q.admit(port, _Msg(512), 0, 0, 10 ** 6)
            assert start is not None and not marked
        assert port.rng is None  # the zero-load byte-identity guarantee

    def test_above_max_always_drops(self):
        q = red(lo=1 * KB, hi=2 * KB)
        port = Port(KEY)
        q.admit(port, _Msg(2 * KB), 0, 0, 10 ** 6)
        assert q.admit(port, _Msg(64), 0, 0, 64) == (None, False)
        assert port.rng is None  # p==1 is deterministic: still no draw

    def test_ecn_marks_instead_of_dropping(self):
        q = red(ecn=True, lo=1 * KB, hi=2 * KB)
        port = Port(KEY)
        q.admit(port, _Msg(2 * KB), 0, 0, 10 ** 6)
        start, marked = q.admit(port, _Msg(64), 0, 0, 64)
        assert start is not None and marked
        assert q.stats == {"enqueued": 2, "dropped": 0, "ecn_marked": 1,
                           "max_depth_bytes": 2 * KB + 64}

    def test_ecn_capacity_brick_wall_still_drops(self):
        q = red(ecn=True, capacity=2 * KB, lo=0, hi=1 * KB)
        port = Port(KEY)
        q.admit(port, _Msg(2 * KB), 0, 0, 10 ** 6)
        assert q.admit(port, _Msg(1), 0, 0, 1) == (None, False)
        assert q.stats["dropped"] == 1

    def test_ramp_draws_replay_deterministically(self):
        def verdicts(seed):
            q = red(lo=1 * KB, hi=8 * KB, seed=seed)
            port = Port(KEY)
            out = []
            for _ in range(30):
                start, _ = q.admit(port, _Msg(512), 0, 0, 10 ** 9)
                out.append(start is not None)
            return out

        assert verdicts(7) == verdicts(7)
        assert True in verdicts(7) and False in verdicts(7)

    def test_per_port_substreams_are_independent(self):
        # Interleaving draws on a second port must not shift the first
        # port's verdict sequence (the named-substream contract).
        def first_port_verdicts(touch_other):
            q = red(lo=0, hi=8 * KB, p=0.5, seed=3)
            pa, pb = Port(KEY), Port(("x", "y"))
            out = []
            for _ in range(20):
                if touch_other:
                    q.admit(pb, _Msg(512), 0, 0, 10 ** 9)
                start, _ = q.admit(pa, _Msg(512), 0, 0, 10 ** 9)
                out.append(start is not None)
            return out

        assert first_port_verdicts(False) == first_port_verdicts(True)


class TestProbes:
    def test_probe_reports_depth_after_admission(self):
        probes = Probes()
        q = drop_tail(probes=probes)
        seen = []
        probes.admit.append(lambda now, key, depth: seen.append((now, key, depth)))
        port = Port(KEY)
        q.admit(port, _Msg(100), 5, 5, 10 ** 6)
        q.admit(port, _Msg(50), 6, 6, 10 ** 6)
        assert seen == [(5, KEY, 100), (6, KEY, 150)]
