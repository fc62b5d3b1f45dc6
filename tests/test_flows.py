"""Direct tests of the point-to-point flows (repro.strategies.flows)."""

import numpy as np
import pytest

from repro.apps.microbench import run_microbenchmark
from repro.config import default_config


@pytest.fixture(scope="module")
def results():
    cfg = default_config()
    return {s: run_microbenchmark(cfg, s) for s in ("cpu", "hdn", "gds", "gputn")}


class TestPostTiming:
    """WHEN the network operation is posted is the heart of Figure 3."""

    def test_hdn_posts_after_kernel(self, results):
        r = results["hdn"]
        assert r.initiator.network_posted > r.initiator.kernel_finished

    def test_gds_posts_before_kernel_starts(self, results):
        r = results["gds"]
        assert r.initiator.network_posted < r.initiator.kernel_started

    def test_gputn_registers_before_kernel_starts(self, results):
        r = results["gputn"]
        assert r.initiator.network_posted < r.initiator.kernel_started

    def test_cpu_has_no_kernel(self, results):
        r = results["cpu"]
        assert r.initiator.kernel_started is None
        assert r.initiator.network_posted is not None


class TestLocalCompletion:
    def test_local_completion_recorded_for_all(self, results):
        for key, r in results.items():
            assert r.initiator.local_complete is not None, key

    def test_local_completion_before_remote_for_small_messages(self, results):
        # 64 B serializes in ~5 ns; local completion (egress end + flag
        # write) always precedes target-side observation.
        for key in ("gds", "gputn"):
            r = results[key]
            assert r.initiator.local_complete <= r.target_completion_ns, key


class TestSendBufferReuse:
    def test_reuse_after_local_completion_is_safe(self):
        """DESIGN.md invariant 7: once the local completion fires, the
        send buffer may be overwritten without corrupting the payload
        already on the wire."""
        from repro.cluster import Cluster
        from repro.memory import Agent

        cluster = Cluster(n_nodes=2)
        a, b = cluster[0], cluster[1]
        src = a.host.alloc(1 << 16)
        dst = b.host.alloc(1 << 16)
        src.view(np.uint8)[:] = 1
        a.mem.record_write(0, Agent.CPU, src)

        def driver():
            h = a.nic.post_put(src.addr(), 1 << 16, b.name, dst.addr())
            yield h.local
            # Buffer is ours again: scribble over it.
            src.view(np.uint8)[:] = 99
            a.mem.record_write(cluster.sim.now, Agent.CPU, src)
            yield h.delivered

        p = cluster.spawn(driver())
        cluster.sim.run_until_event(p)
        # The target sees the original payload, not the scribble.
        assert (dst.view(np.uint8) == 1).all()
        assert cluster.total_hazards() == 0


class TestOneSidedSet:
    def test_every_one_sided_strategy_is_a_one_sided_flow(self):
        from repro.strategies import FLOWS, ONE_SIDED_STRATEGIES, get_flow
        from repro.strategies.flows import one_sided_target

        for strategy in ONE_SIDED_STRATEGIES:
            _, target = get_flow(strategy)  # raises for an unregistered flow
            assert target is one_sided_target, strategy
        # ... and every registered flow landing one-sided is in the set.
        one_sided = {s for s in FLOWS if FLOWS[s][1] is one_sided_target}
        assert one_sided <= set(ONE_SIDED_STRATEGIES)
