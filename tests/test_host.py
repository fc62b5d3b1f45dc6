"""Unit tests for the host runtime (repro.host)."""

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.gpu.kernel import KernelDescriptor
from repro.memory import Agent


def make_cluster(n=2):
    return Cluster(n_nodes=n)


def run_proc(cluster, gen):
    p = cluster.spawn(gen)
    return cluster.sim.run_until_event(p)


class TestCompute:
    def test_compute_bytes_charges_time(self):
        cluster = make_cluster()
        host = cluster[0].host

        def proc():
            yield from host.compute_bytes(550_000)  # 550 KB at 55 B/ns
            return cluster.sim.now

        assert run_proc(cluster, proc()) == 10_000

    def test_zero_bytes_is_free(self):
        cluster = make_cluster()
        host = cluster[0].host

        def proc():
            yield from host.compute_bytes(0)
            return cluster.sim.now

        assert run_proc(cluster, proc()) == 0

    def test_busy_ns_accumulates(self):
        cluster = make_cluster()
        host = cluster[0].host

        def proc():
            yield from host.compute_bytes(55_000)
            yield from host.compute_bytes(55_000)

        run_proc(cluster, proc())
        assert host.stats["busy_ns"] == 2_000


class TestSendRecv:
    def test_roundtrip_moves_data(self):
        cluster = make_cluster()
        a, b = cluster[0], cluster[1]
        src = a.host.alloc(128)
        dst = b.host.alloc(128)
        a.host.cpu_write(src, np.full(128, 7, dtype=np.uint8))

        def sender():
            yield from a.host.send(src, 128, b.name, tag=5)

        def receiver():
            h = b.host.post_recv(5, dst, 128)
            yield from b.host.wait_recv(h)
            return bytes(dst.view(np.uint8)[:4])

        cluster.spawn(sender())
        p = cluster.spawn(receiver())
        assert cluster.sim.run_until_event(p) == b"\x07" * 4

    def test_send_charges_packet_build_cost(self):
        cluster = make_cluster()
        host = cluster[0].host
        dst = cluster[1].host.alloc(64)
        src = host.alloc(64)

        def proc():
            yield from host.send(src, 64, cluster[1].name, tag=1)
            return cluster.sim.now

        cpu = cluster.config.cpu
        assert run_proc(cluster, proc()) == cpu.packet_build_ns + cpu.send_post_ns
        del dst

    def test_wait_recv_failure_propagates(self):
        cluster = make_cluster()
        a, b = cluster[0], cluster[1]
        src = a.host.alloc(128)
        dst = b.host.alloc(64)

        def sender():
            yield from a.host.send(src, 128, b.name, tag=9)

        def receiver():
            h = b.host.post_recv(9, dst, 64)  # too small
            yield from b.host.wait_recv(h)

        cluster.spawn(sender())
        p = cluster.spawn(receiver())
        with pytest.raises(ValueError, match="overflow"):
            cluster.sim.run_until_event(p)


class TestKernelPath:
    def test_launch_kernel_charges_sw_cost(self):
        cluster = make_cluster()
        host = cluster[0].host

        def empty(ctx):
            return
            yield

        def proc():
            inst = yield from host.launch_kernel(
                KernelDescriptor(fn=empty, n_workgroups=1))
            t_launched = cluster.sim.now
            yield inst.finished
            return t_launched, cluster.sim.now

        t_launched, t_done = run_proc(cluster, proc())
        assert t_launched == cluster.config.cpu.kernel_dispatch_sw_ns
        assert t_done == t_launched + 3000

    def test_wait_kernel_blocking_costs_more_than_spin(self):
        def empty(ctx):
            return
            yield

        times = {}
        for mode in ("spin", "blocking"):
            cluster = make_cluster()
            host = cluster[0].host

            def proc(host=host, cluster=cluster, mode=mode):
                inst = yield from host.launch_kernel(
                    KernelDescriptor(fn=empty, n_workgroups=1))
                yield from host.wait_kernel(inst, mode=mode)
                return cluster.sim.now

            times[mode] = run_proc(cluster, proc())
        assert (times["blocking"] - times["spin"]
                == cluster.config.cpu.kernel_sync_block_ns
                - cluster.config.cpu.completion_poll_ns)

    def test_wait_kernel_bad_mode(self):
        cluster = make_cluster()
        host = cluster[0].host

        def empty(ctx):
            return
            yield

        def proc():
            inst = yield from host.launch_kernel(
                KernelDescriptor(fn=empty, n_workgroups=1))
            yield from host.wait_kernel(inst, mode="nap")

        p = cluster.spawn(proc())
        with pytest.raises(ValueError, match="unknown wait mode"):
            cluster.sim.run_until_event(p)

    def test_launch_without_gpu_rejected(self):
        cluster = Cluster(n_nodes=1, with_gpu=False)
        host = cluster[0].host

        def empty(ctx):
            return
            yield

        def proc():
            yield from host.launch_kernel(KernelDescriptor(fn=empty, n_workgroups=1))

        p = cluster.spawn(proc())
        with pytest.raises(RuntimeError, match="no GPU"):
            cluster.sim.run_until_event(p)


class TestFlags:
    @pytest.mark.parametrize("trace", [False, True],
                             ids=["untraced", "traced"])
    def test_poll_flag_returns_value(self, trace):
        """The poll resumes at the first probe after the third bump.

        Each bump is a recorded write (``mem.record_write``), as every
        modeled writer's is: untraced, the poll is watched and wakes only
        on recorded writes, so a bare numpy store would leave it asleep.
        Traced, it ticks every ``completion_poll_ns``; both forms resume
        at the same instant.
        """
        cluster = Cluster(n_nodes=2, trace=trace)
        node = cluster[0]
        flag = node.host.alloc(4)

        def proc():
            value = yield from node.host.poll_flag(flag, at_least=3)
            return value, cluster.sim.now

        def bump():
            flag.view(np.uint32)[0] += 1
            node.mem.record_write(cluster.sim.now, Agent.CPU, flag)

        for t in (100, 200, 330):
            cluster.sim.schedule(t, bump)
        value, t = run_proc(cluster, proc())
        # Probes run at multiples of 50 ns from t=0: 350 is the first
        # after the write at 330.
        assert node.config.cpu.completion_poll_ns == 50
        assert (value, t) == (3, 350)


class TestAlloc:
    def test_alloc_registers_by_default(self):
        cluster = make_cluster()
        buf = cluster[0].host.alloc(64)
        assert buf.registered

    def test_alloc_unregistered(self):
        cluster = make_cluster()
        buf = cluster[0].host.alloc(64, register=False)
        assert not buf.registered


class TestCluster:
    def test_node_count_and_names(self):
        cluster = Cluster(n_nodes=3)
        assert len(cluster) == 3
        assert [n.name for n in cluster] == ["node0", "node1", "node2"]
        assert cluster.node("node1") is cluster[1]

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            Cluster(n_nodes=0)

    def test_without_gpu(self):
        cluster = Cluster(n_nodes=1, with_gpu=False)
        assert cluster[0].gpu is None

    def test_nodes_share_fabric_but_not_memory(self):
        cluster = Cluster(n_nodes=2)
        assert cluster[0].space is not cluster[1].space
        assert cluster[0].nic.fabric is cluster[1].nic.fabric

    def test_hazard_aggregation(self):
        from repro.memory import Agent

        cluster = Cluster(n_nodes=2)
        buf = cluster[0].host.alloc(64)
        cluster[0].mem.record_write(0, Agent.GPU, buf)
        cluster[0].mem.record_read(1, Agent.NIC, buf)
        assert cluster.total_hazards() == 1


class TestRearmTriggeredPuts:
    """The GPU-TN host's bounded re-arm loop, shared by the Jacobi
    drivers and the collective executor."""

    @staticmethod
    def _run(window, n_batches=6, per_batch=3, gap_ns=700):
        cluster = make_cluster()
        node, peer = cluster[0], cluster[1]
        src, dst = node.host.alloc(64), peer.host.alloc(64)
        trigger_list = node.nic.trigger_list
        log, live, live_at_build = [], set(), []

        def observe(at, kind, entry):
            if at != node.name:
                return
            if kind == "register":
                live.add(entry.tag)
            elif kind == "free":
                live.discard(entry.tag)
            if kind in ("register", "free"):
                log.append((kind, entry.tag, len(live)))

        cluster.sim.probes.trigger.append(observe)
        tags = [0x100 + i for i in range(n_batches * per_batch)]

        def batches():
            for b in range(n_batches):
                live_at_build.append(len(live))
                yield [dict(tag=tag, threshold=1, buf=src, nbytes=64,
                            target=peer.name, remote_addr=dst.addr())
                       for tag in tags[b * per_batch:(b + 1) * per_batch]]

        def fire():
            # The kernel's side: trigger every tag in order, one per gap.
            for tag in tags:
                yield cluster.sim.timeout(gap_ns)
                node.nic.mmio_write(node.nic.trigger_address, tag)

        rearm = cluster.spawn(node.host.rearm_triggered_puts(batches(), window))
        cluster.spawn(fire())
        cluster.run()
        assert rearm.ok
        return tags, log, live_at_build, trigger_list

    # A window above 13 would let 17 entries live at once with 3-put
    # batches: more than the NIC's 16-entry trigger list holds.
    @pytest.mark.parametrize("window", [1, 3, 4, 7, 13])
    def test_window_bounds_the_live_entries(self, window):
        tags, log, live_at_build, _ = self._run(window)
        per_batch = 3
        # Batches are built lazily, each once the previous one is
        # registered and the oldest entries are freed down to the window
        # ...
        assert live_at_build == [min(per_batch * b, window)
                                 for b in range(len(live_at_build))]
        # ... so at most one batch ever sits above it.
        assert max(n for _, _, n in log) <= window + per_batch
        # The free path ran mid-stream, not only in the final drain.
        first_free = next(i for i, (k, _, _) in enumerate(log) if k == "free")
        assert any(k == "register" for k, _, _ in log[first_free:])

    @pytest.mark.parametrize("window", [1, 4, 13])
    def test_every_entry_ends_freed_in_registration_order(self, window):
        tags, log, _, trigger_list = self._run(window)
        registered = [tag for kind, tag, _ in log if kind == "register"]
        freed = [tag for kind, tag, _ in log if kind == "free"]
        assert registered == tags
        assert freed == tags
        assert len(trigger_list) == 0
        assert trigger_list.stats["freed"] == len(tags)


def _peak_trigger_entries(execute):
    """Run ``execute(observers)`` and return the most entries any NIC's
    trigger list held at once."""
    peak = [0]

    def arm(cluster):
        def observe(node, kind, entry):
            peak[0] = max(peak[0], len(cluster.node(node).nic.trigger_list))

        cluster.sim.probes.trigger.append(observe)

    execute(arm)
    return peak[0]


class TestTriggerListBound:
    """The re-arm window keeps every NIC within the prototype's 16-entry
    associative trigger list."""

    @pytest.mark.parametrize("strategy", ["gputn", "gputn-persistent"])
    def test_jacobi_3x3(self, strategy):
        from repro.apps.jacobi import JacobiExperiment

        peak = _peak_trigger_entries(lambda arm: JacobiExperiment().execute(
            {"strategy": strategy, "px": 3, "py": 3, "n": 32, "iters": 6},
            observers=arm))
        assert 8 < peak <= 16

    def test_gputn_ring_11_nodes(self):
        from repro.collectives import AllreduceExperiment

        peak = _peak_trigger_entries(lambda arm: AllreduceExperiment().execute(
            {"strategy": "gputn", "n_nodes": 11, "nbytes": 64 * 1024},
            observers=arm))
        assert 12 < peak <= 16
