"""Tests for the GPU Host Networking extension (repro.strategies.gpu_host).

The paper discusses this class qualitatively (§5.1.1): intra-kernel
latency without kernel boundaries, but a dedicated CPU helper thread in
the critical path.  These tests pin that behaviour quantitatively.
"""

from dataclasses import replace

import pytest

from repro.apps.microbench import MicrobenchExperiment, run_microbenchmark
from repro.cluster import Cluster
from repro.config import default_config
from repro.strategies import gpu_host
from repro.strategies.gpu_host import GpuHostService, _Request


@pytest.fixture(scope="module")
def results():
    cfg = default_config()
    return {s: run_microbenchmark(cfg, s)
            for s in ("gputn", "gds", "hdn", "gpu-host")}


class TestMicrobenchPlacement:
    def test_payload_delivered(self, results):
        assert results["gpu-host"].payload_ok
        assert results["gpu-host"].memory_hazards == 0

    def test_slower_than_gputn(self, results):
        """Paper: 'GPU-TN can provide the same performance without
        requiring dedicated polling threads' -- the polling/service hop
        costs latency."""
        assert (results["gpu-host"].normalized_target_completion_ns
                > results["gputn"].normalized_target_completion_ns)

    def test_faster_than_kernel_boundary_strategies(self, results):
        """Intra-kernel initiation still beats waiting for the kernel."""
        assert (results["gpu-host"].normalized_target_completion_ns
                < results["gds"].normalized_target_completion_ns)
        assert (results["gpu-host"].normalized_target_completion_ns
                < results["hdn"].normalized_target_completion_ns)

    def test_intra_kernel_delivery(self, results):
        r = results["gpu-host"]
        assert r.target_completion_ns < r.initiator.kernel_finished

    def test_helper_thread_cost_reported(self, results):
        detail = results["gpu-host"].initiator.detail
        assert detail["helper_thread_busy_ns"] > 0


class TestService:
    def test_dedicated_core_burns_wall_time(self):
        cluster = Cluster(n_nodes=2)
        service = GpuHostService(cluster[0])
        assert service.dedicated_core_ns(1_000_000) == 1_000_000

    def test_requests_serviced_in_order(self):
        cluster = Cluster(n_nodes=2)
        node, peer = cluster[0], cluster[1]
        service = GpuHostService(node)
        bufs = [node.host.alloc(32) for _ in range(3)]
        dsts = [peer.host.alloc(32) for _ in range(3)]
        reqs = [_Request(buf=b, nbytes=32, target=peer.name, wire_tag=i,
                         remote_addr=d.addr())
                for i, (b, d) in enumerate(zip(bufs, dsts))]
        for r in reqs:
            service.submit_from_gpu(r)
        cluster.run()
        assert service.serviced == reqs
        assert all(r.handle is not None for r in reqs)

    def test_stop_kills_thread(self):
        cluster = Cluster(n_nodes=2)
        service = GpuHostService(cluster[0])
        service.stop()
        # A post-stop submit is never serviced.
        buf = cluster[0].host.alloc(8)
        dst = cluster[1].host.alloc(8)
        service.submit_from_gpu(_Request(buf=buf, nbytes=8,
                                         target=cluster[1].name, wire_tag=1,
                                         remote_addr=dst.addr()))
        cluster.run()
        assert service.serviced == []


@pytest.mark.parametrize("nbytes", [64, 1 << 20])
@pytest.mark.parametrize("teardown_ns,packet_build_ns",
                         [(1500, 300), (200, 300), (200, 4000)])
def test_watched_helper_wait_matches_ticking(monkeypatch, nbytes,
                                             teardown_ns, packet_build_ns):
    """Untraced, the initiator sleeps until the helper thread posts; the
    record must equal the ticking wait's.  At the default config the
    helper posts before the kernel is torn down, so the wait never
    spins; with a short teardown or a slow helper the watched wait pops
    fewer events."""
    cfg = default_config()
    cfg = cfg.with_(kernel=replace(cfg.kernel, teardown_ns=teardown_ns),
                    cpu=replace(cfg.cpu, packet_build_ns=packet_build_ns))

    def execute(watched):
        if not watched:  # only the helper wait ticks
            monkeypatch.setattr(gpu_host, "SpinWatch", lambda *args: None)
        try:
            execution = MicrobenchExperiment().execute(
                {"strategy": "gpu-host", "nbytes": nbytes}, cfg, trace=False)
        finally:
            monkeypatch.undo()
        return execution.record.to_json(), execution.cluster.sim.events_processed

    watched, events = execute(watched=True)
    ticking, ticks = execute(watched=False)
    assert watched == ticking
    if teardown_ns == 1500 and packet_build_ns == 300:
        assert events == ticks
    else:
        assert events < ticks
