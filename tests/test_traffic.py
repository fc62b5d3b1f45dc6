"""Traffic generators, DL traces and the background-load attachment.

Covers the repro.traffic determinism contract (same seed -> same event
list, named substreams keep patterns independent), per-pattern shape
invariants, and end-to-end BackgroundLoad delivery accounting on a live
cluster with the reliable transport armed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster
from repro.config import ReliabilityConfig, default_config
from repro.sim.rng import RandomStreams
from repro.traffic import (BackgroundLoad, IncastTraffic, OnOffTraffic,
                           PermutationTraffic, PoissonTraffic, TrafficEvent,
                           attach_traffic, llm_training_trace,
                           moe_inference_trace)

HORIZON = 50_000

PATTERNS = [
    PoissonTraffic(mean_gap_ns=2_000, nbytes=512),
    OnOffTraffic(on_ns=3_000, off_ns=5_000, gap_ns=500, nbytes=256),
    PermutationTraffic(gap_ns=1_500, nbytes=1024),
    IncastTraffic(period_ns=4_000, nbytes=512, sink=0, fan=3),
]


class TestEventValidation:
    def test_rejects_self_send(self):
        with pytest.raises(ValueError, match="self-directed"):
            TrafficEvent(0, 1, 1, 64)

    def test_rejects_negative_time_and_empty_payload(self):
        with pytest.raises(ValueError):
            TrafficEvent(-1, 0, 1, 64)
        with pytest.raises(ValueError):
            TrafficEvent(0, 0, 1, 0)


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.name)
class TestPatternContract:
    def test_events_are_valid_and_within_horizon(self, pattern):
        events = pattern.events(8, HORIZON, RandomStreams(0))
        assert events
        for ev in events:
            assert 0 <= ev.at_ns < HORIZON
            assert 0 <= ev.src < 8 and 0 <= ev.dst < 8
            assert ev.src != ev.dst and ev.nbytes > 0

    def test_same_seed_replays_identically(self, pattern):
        a = pattern.events(8, HORIZON, RandomStreams(42))
        b = pattern.events(8, HORIZON, RandomStreams(42))
        assert a == b

    def test_too_small_cluster_rejected(self, pattern):
        with pytest.raises(ValueError):
            pattern.events(1, HORIZON, RandomStreams(0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       n=st.integers(min_value=2, max_value=12))
def test_property_permutation_is_a_self_free_total_map(seed, n):
    events = PermutationTraffic(gap_ns=1_000, nbytes=64).events(
        n, 10_000, RandomStreams(seed))
    dst_of = {}
    for ev in events:
        assert ev.src != ev.dst
        assert dst_of.setdefault(ev.src, ev.dst) == ev.dst  # one partner
    assert set(dst_of) == set(range(n))  # every source streams


class TestIncast:
    def test_all_events_target_the_sink(self):
        events = IncastTraffic(period_ns=2_000, nbytes=64, sink=3).events(
            8, 10_000, RandomStreams(0))
        assert events and all(ev.dst == 3 for ev in events)
        # fan=0: every other node fires each period.
        per_period = {}
        for ev in events:
            per_period.setdefault(ev.at_ns, set()).add(ev.src)
        assert all(srcs == set(range(8)) - {3} for srcs in per_period.values())

    def test_fan_limits_sources_per_burst(self):
        events = IncastTraffic(period_ns=2_000, nbytes=64, fan=3).events(
            8, 20_000, RandomStreams(1))
        per_period = {}
        for ev in events:
            per_period.setdefault(ev.at_ns, []).append(ev.src)
        assert all(len(srcs) == 3 == len(set(srcs))
                   for srcs in per_period.values())

    def test_sink_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="sink"):
            IncastTraffic(period_ns=1, nbytes=1, sink=8).events(
                4, 1_000, RandomStreams(0))


class TestSubstreamIndependence:
    def test_patterns_do_not_perturb_each_other(self):
        # Expanding another pattern from the same RandomStreams must not
        # shift this one's draws: each draws only from its named streams.
        alone = RandomStreams(7)
        poisson_alone = PoissonTraffic(2_000, 512).events(4, HORIZON, alone)
        shared = RandomStreams(7)
        IncastTraffic(4_000, 512).events(4, HORIZON, shared)
        OnOffTraffic(3_000, 5_000, 500, 256).events(4, HORIZON, shared)
        assert PoissonTraffic(2_000, 512).events(4, HORIZON, shared) \
            == poisson_alone


class TestTraces:
    def test_llm_trace_is_periodic_ring_and_draw_free(self):
        events = llm_training_trace(4, horizon_ns=30_000, step_ns=10_000,
                                    nbytes=2048)
        assert events == llm_training_trace(4, horizon_ns=30_000,
                                            step_ns=10_000, nbytes=2048)
        assert all(ev.dst == (ev.src + 1) % 4 for ev in events)
        # Two steps fit below the horizon, (n-1) rounds x n nodes each.
        assert len(events) == 2 * 3 * 4
        assert {ev.at_ns // 10_000 for ev in events} == {1, 2}

    def test_moe_trace_fans_to_k_distinct_experts(self):
        events = moe_inference_trace(6, horizon_ns=9_000, dispatch_ns=4_000,
                                     nbytes=128, experts_per_token=2, seed=3)
        assert events == moe_inference_trace(6, horizon_ns=9_000,
                                             dispatch_ns=4_000, nbytes=128,
                                             experts_per_token=2, seed=3)
        per_dispatch = {}
        for ev in events:
            assert ev.src != ev.dst
            per_dispatch.setdefault((ev.at_ns, ev.src), []).append(ev.dst)
        for dsts in per_dispatch.values():
            assert len(dsts) == 2 == len(set(dsts))

    def test_moe_hotspots_rotate(self):
        events = moe_inference_trace(8, horizon_ns=50_000, dispatch_ns=2_000,
                                     nbytes=64, seed=0)
        assert len({ev.dst for ev in events}) > 2


class TestBackgroundLoad:
    def _cluster(self, n=3):
        cluster = Cluster(n_nodes=n, config=default_config())
        cluster.enable_reliability(ReliabilityConfig())
        return cluster

    def test_replays_events_and_counts_deliveries(self):
        cluster = self._cluster()
        events = [TrafficEvent(1_000, 0, 1, 256),
                  TrafficEvent(2_000, 1, 2, 512),
                  TrafficEvent(2_000, 2, 0, 128)]
        load = attach_traffic(cluster, events)
        cluster.run(until=5_000_000)
        assert load.stats["offered"] == load.stats["sent"] == 3
        assert load.stats["delivered"] == 3 and load.stats["failed"] == 0
        assert load.stats["bytes_delivered"] == 256 + 512 + 128
        assert load.counters() == {"traffic_offered": 3, "traffic_sent": 3,
                                   "traffic_delivered": 3,
                                   "traffic_bytes_delivered": 896}

    def test_pattern_expansion_needs_horizon(self):
        cluster = self._cluster()
        with pytest.raises(ValueError, match="horizon"):
            attach_traffic(cluster, PoissonTraffic(2_000, 256))

    def test_pattern_attaches_and_delivers(self):
        cluster = self._cluster(n=4)
        load = attach_traffic(cluster, PoissonTraffic(5_000, 256),
                              horizon_ns=30_000, streams=RandomStreams(2))
        cluster.run(until=5_000_000)
        assert load.stats["offered"] > 0
        assert load.stats["delivered"] == load.stats["offered"]

    def test_rank_out_of_range_rejected(self):
        cluster = self._cluster()
        with pytest.raises(ValueError, match="rank out of range"):
            BackgroundLoad(cluster, [TrafficEvent(0, 0, 7, 64)])

    def test_chain_keeps_the_driver_process_schedule(self):
        """Under seeded tie-breaks the callback chain pops every event at
        the key a driver process gave it; only the finished process's own
        event, which nothing waits on, is gone."""
        events = [TrafficEvent(0, 0, 1, 256), TrafficEvent(0, 2, 3, 64),
                  TrafficEvent(700, 1, 2, 512), TrafficEvent(700, 3, 0, 128),
                  TrafficEvent(1_500, 2, 0, 64)]

        def driver(load):  # the generator process the chain replaced
            sim, nodes = load.cluster.sim, load.cluster.nodes
            for ev in load.events:
                if ev.at_ns > sim.now:
                    yield sim.timeout(ev.at_ns - sim.now)
                handle = nodes[ev.src].nic.post_put(
                    local_addr=load._send_bufs[ev.src].addr(),
                    nbytes=ev.nbytes, target=nodes[ev.dst].name,
                    remote_addr=load._recv_bufs[ev.dst].addr())
                load.stats["sent"] += 1
                handle.delivered.callbacks.append(load._done)

        def run(chain):
            cluster = self._cluster(n=4)
            cluster.sim.seed_tiebreaks(5)
            load = BackgroundLoad(cluster, events)
            process = None if chain else cluster.spawn(driver(load))
            keys = []
            cluster.sim.probes.step.append(
                lambda t, prio, tie, seq, ev: ev is not process
                and keys.append((t, prio, tie, seq)))
            if chain:
                load.start()
            cluster.run(until=5_000_000)
            return keys, load.stats

        keys, stats = run(chain=True)
        assert (keys, stats) == run(chain=False)
        assert stats["delivered"] == len(events)

    def test_start_is_idempotent(self):
        cluster = self._cluster()
        load = BackgroundLoad(cluster, [TrafficEvent(1_000, 0, 1, 64)])
        load.start().start()
        cluster.run(until=5_000_000)
        assert load.stats["sent"] == 1 and load.stats["delivered"] == 1
