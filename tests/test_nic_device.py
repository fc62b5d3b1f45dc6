"""Integration tests for the NIC device (repro.nic.device) over the fabric."""

import gc

import numpy as np
import pytest

from repro.memory import Agent, RegistrationError
from repro.nic.lookup import TriggerListFull

from conftest import build_nic_testbed


class TestImmediatePut:
    def test_put_moves_bytes(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 256, "src")
        dst = tb.alloc_registered("n1", 256, "dst")
        src.view(np.uint8)[:] = np.arange(256, dtype=np.uint8)
        tb.mems["n0"].record_write(0, Agent.CPU, src)
        h = tb.nics["n0"].post_put(src.addr(), 256, "n1", dst.addr())
        tb.sim.run_until_event(h.delivered)
        assert (dst.view(np.uint8) == np.arange(256, dtype=np.uint8)).all()

    def test_put_latency_includes_nic_processing(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        delivered = tb.sim.run_until_event(h.delivered)
        nc = tb.config.nic
        wire = tb.fabric.uncontended_latency_ns("n0", "n1", 64)
        assert delivered.delivered_at == nc.command_process_ns + nc.dma_setup_ns + wire

    def test_local_completion_before_delivery_for_big_messages(self, nic_testbed):
        tb = nic_testbed
        n = 1 << 20
        src = tb.alloc_registered("n0", n, "src")
        dst = tb.alloc_registered("n1", n, "dst")
        h = tb.nics["n0"].post_put(src.addr(), n, "n1", dst.addr())
        local_t = tb.sim.run_until_event(h.local)
        tb.sim.run_until_event(h.delivered)
        assert local_t < h.delivered.value.delivered_at

    def test_local_flag_written(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        flag = tb.alloc_registered("n0", 4, "flag")
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr(),
                                   local_flag=(flag, 0))
        tb.sim.run_until_event(h.local)
        assert flag.view(np.uint32)[0] == 1

    def test_unregistered_source_fails(self, nic_testbed):
        tb = nic_testbed
        src = tb.spaces["n0"].alloc(64)  # not registered
        dst = tb.alloc_registered("n1", 64)
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        with pytest.raises(Exception):
            tb.sim.run()

    def test_rx_flag_and_watch(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64, "src")
        dst = tb.alloc_registered("n1", 64, "dst")
        flag = tb.alloc_registered("n1", 4, "rxflag")
        tb.nics["n1"].expose_rx_flag(77, (flag, 0))
        watch = tb.nics["n1"].watch_rx(77)
        tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr(), wire_tag=77)
        tb.sim.run_until_event(watch)
        tb.sim.run()
        assert flag.view(np.uint32)[0] == 1

    def test_rx_flag_counts_multiple_puts(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        flag = tb.alloc_registered("n1", 4)
        tb.nics["n1"].expose_rx_flag(5, (flag, 0))
        tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr(), wire_tag=5)
        tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr(), wire_tag=5)
        tb.sim.run()
        assert flag.view(np.uint32)[0] == 2


class TestDeferredPutDoorbell:
    """The GDS path: CPU pre-posts, doorbell initiates later."""

    def test_deferred_does_not_start_until_doorbell(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        h = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr(), deferred=True)
        tb.sim.run()
        assert not h.delivered.triggered
        tb.nics["n0"].ring_doorbell(h)
        tb.sim.run_until_event(h.delivered)

    def test_staged_doorbell_is_faster_than_immediate_post(self, nic_testbed):
        """A staged op skips command decode + DMA setup at doorbell time."""
        tb = nic_testbed
        nc = tb.config.nic
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        h_imm = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        t_imm = tb.sim.run_until_event(h_imm.delivered).delivered_at
        h_def = tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr(), deferred=True)
        t0 = tb.sim.now
        tb.nics["n0"].ring_doorbell(h_def)
        t_def = tb.sim.run_until_event(h_def.delivered).delivered_at - t0
        assert t_def == t_imm - nc.command_process_ns - nc.dma_setup_ns


class TestTwoSided:
    def test_send_matches_posted_recv(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 128)
        dst = tb.alloc_registered("n1", 128)
        src.view(np.float32)[:] = 2.5
        recv = tb.nics["n1"].post_recv(tag=11, local_addr=dst.addr(), nbytes=128)
        tb.nics["n0"].post_put(src.addr(), 128, "n1", remote_addr=None,
                               wire_tag=11, kind="send")
        tb.sim.run_until_event(recv.complete)
        assert (dst.view(np.float32) == 2.5).all()

    def test_unexpected_message_queued_until_recv(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        src.view(np.uint8)[:] = 9
        tb.nics["n0"].post_put(src.addr(), 64, "n1", remote_addr=None,
                               wire_tag=3, kind="send")
        tb.sim.run()  # message arrives with no recv posted
        recv = tb.nics["n1"].post_recv(tag=3, local_addr=dst.addr(), nbytes=64)
        tb.sim.run_until_event(recv.complete)
        assert (dst.view(np.uint8) == 9).all()

    def test_tag_mismatch_does_not_match(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        recv = tb.nics["n1"].post_recv(tag=1, local_addr=dst.addr(), nbytes=64)
        tb.nics["n0"].post_put(src.addr(), 64, "n1", remote_addr=None,
                               wire_tag=2, kind="send")
        tb.sim.run()
        assert not recv.complete.triggered

    def test_recv_overflow_fails(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 128)
        dst = tb.alloc_registered("n1", 64)
        recv = tb.nics["n1"].post_recv(tag=1, local_addr=dst.addr(), nbytes=64)
        tb.nics["n0"].post_put(src.addr(), 128, "n1", remote_addr=None,
                               wire_tag=1, kind="send")
        with pytest.raises(ValueError, match="overflow"):
            tb.sim.run_until_event(recv.complete)

    def test_multiple_recvs_fifo(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 8)
        d1 = tb.alloc_registered("n1", 8)
        d2 = tb.alloc_registered("n1", 8)
        r1 = tb.nics["n1"].post_recv(tag=1, local_addr=d1.addr(), nbytes=8)
        r2 = tb.nics["n1"].post_recv(tag=1, local_addr=d2.addr(), nbytes=8)
        src.view(np.uint8)[:] = 1
        tb.nics["n0"].post_put(src.addr(), 8, "n1", None, wire_tag=1, kind="send")
        tb.sim.run_until_event(r1.complete)
        src.view(np.uint8)[:] = 2
        tb.nics["n0"].post_put(src.addr(), 8, "n1", None, wire_tag=1, kind="send")
        tb.sim.run_until_event(r2.complete)
        assert d1.view(np.uint8)[0] == 1 and d2.view(np.uint8)[0] == 2


class TestGet:
    def test_get_fetches_remote_bytes(self, nic_testbed):
        tb = nic_testbed
        local = tb.alloc_registered("n0", 64)
        remote = tb.alloc_registered("n1", 64)
        remote.view(np.uint8)[:] = 0xAB
        h = tb.nics["n0"].post_get(local.addr(), 64, "n1", remote.addr())
        tb.sim.run_until_event(h.complete)
        assert (local.view(np.uint8) == 0xAB).all()

    def test_get_roundtrip_latency(self, nic_testbed):
        tb = nic_testbed
        local = tb.alloc_registered("n0", 64)
        remote = tb.alloc_registered("n1", 64)
        h = tb.nics["n0"].post_get(local.addr(), 64, "n1", remote.addr())
        tb.sim.run_until_event(h.complete)
        # Must cover two path traversals at minimum.
        assert tb.sim.now >= 2 * tb.fabric.topology.path_latency_ns("n0", "n1")


class TestDmaErrors:
    """Receive and get paths resolve their buffer once; an unmapped or
    unregistered buffer still fails with the address space's message."""

    def _recv(self, tb, local_addr):
        src = tb.alloc_registered("n0", 64)
        tb.nics["n1"].post_recv(tag=4, local_addr=local_addr, nbytes=64)
        tb.nics["n0"].post_put(src.addr(), 64, "n1", None, wire_tag=4,
                               kind="send")
        tb.sim.run()

    def _get(self, tb, local_addr, remote_addr):
        tb.nics["n0"].post_get(local_addr, 64, "n1", remote_addr)
        tb.sim.run()

    def test_recv_into_unmapped(self, nic_testbed):
        with pytest.raises(IndexError,
                           match=r"address 0xdead0000 \(\+64\) unmapped in space 'n1'"):
            self._recv(nic_testbed, 0xDEAD_0000)

    def test_recv_into_unregistered(self, nic_testbed):
        dst = nic_testbed.spaces["n1"].alloc(64, name="plain")
        with pytest.raises(RegistrationError,
                           match="DMA write to unregistered buffer 'plain'"):
            self._recv(nic_testbed, dst.addr())

    def test_get_reply_into_unmapped(self, nic_testbed):
        remote = nic_testbed.alloc_registered("n1", 64)
        with pytest.raises(IndexError,
                           match=r"address 0xdead0000 \(\+64\) unmapped in space 'n0'"):
            self._get(nic_testbed, 0xDEAD_0000, remote.addr())

    def test_get_reply_into_unregistered(self, nic_testbed):
        remote = nic_testbed.alloc_registered("n1", 64)
        local = nic_testbed.spaces["n0"].alloc(64, name="plain")
        with pytest.raises(RegistrationError,
                           match="DMA write to unregistered buffer 'plain'"):
            self._get(nic_testbed, local.addr(), remote.addr())

    def test_get_from_unmapped(self, nic_testbed):
        local = nic_testbed.alloc_registered("n0", 64)
        with pytest.raises(IndexError,
                           match=r"address 0xdead0000 \(\+64\) unmapped in space 'n1'"):
            self._get(nic_testbed, local.addr(), 0xDEAD_0000)

    def test_get_from_unregistered(self, nic_testbed):
        local = nic_testbed.alloc_registered("n0", 64)
        remote = nic_testbed.spaces["n1"].alloc(64, name="plain")
        with pytest.raises(RegistrationError,
                           match="DMA read from unregistered buffer 'plain'"):
            self._get(nic_testbed, local.addr(), remote.addr())


class TestGpuTriggeredPath:
    """End-to-end: MMIO tag write -> FIFO -> trigger list -> wire."""

    def test_mmio_trigger_fires_put(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        src.view(np.uint8)[:] = 0x11
        nic = tb.nics["n0"]
        entry = nic.register_triggered_put(tag=1, threshold=1,
                                           local_addr=src.addr(), nbytes=64,
                                           target="n1", remote_addr=dst.addr())
        nic.mmio_write(nic.trigger_address, 1)
        handle = nic.handle_for(entry)
        tb.sim.run_until_event(handle.delivered)
        assert (dst.view(np.uint8) == 0x11).all()

    def test_trigger_latency_components(self, nic_testbed):
        tb = nic_testbed
        nc = tb.config.nic
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        nic = tb.nics["n0"]
        entry = nic.register_triggered_put(tag=1, threshold=1,
                                           local_addr=src.addr(), nbytes=64,
                                           target="n1", remote_addr=dst.addr())
        nic.mmio_write(nic.trigger_address, 1)
        delivered = tb.sim.run_until_event(nic.handle_for(entry).delivered)
        wire = tb.fabric.uncontended_latency_ns("n0", "n1", 64)
        # MMIO + command + DMA setup + wire; FIFO pop charged after fire.
        expected = nc.doorbell_mmio_ns + nc.command_process_ns + nc.dma_setup_ns + wire
        assert delivered.delivered_at == expected

    def test_threshold_accumulates_across_mmio_writes(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        nic = tb.nics["n0"]
        entry = nic.register_triggered_put(tag=4, threshold=3,
                                           local_addr=src.addr(), nbytes=64,
                                           target="n1", remote_addr=dst.addr())
        for _ in range(2):
            nic.mmio_write(nic.trigger_address, 4)
        tb.sim.run()
        assert not nic.handle_for(entry).delivered.triggered
        nic.mmio_write(nic.trigger_address, 4)
        tb.sim.run_until_event(nic.handle_for(entry).delivered)

    def test_relaxed_sync_gpu_first(self, nic_testbed):
        """GPU triggers before the CPU registers: the put still happens."""
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        src.view(np.uint8)[:] = 0x77
        nic = tb.nics["n0"]
        nic.mmio_write(nic.trigger_address, 9)
        tb.sim.run()  # trigger absorbed into a placeholder
        entry = nic.register_triggered_put(tag=9, threshold=1,
                                           local_addr=src.addr(), nbytes=64,
                                           target="n1", remote_addr=dst.addr())
        tb.sim.run_until_event(nic.handle_for(entry).delivered)
        assert (dst.view(np.uint8) == 0x77).all()

    def test_mmio_outside_window_rejected(self, nic_testbed):
        tb = nic_testbed
        with pytest.raises(ValueError, match="outside trigger window"):
            tb.nics["n0"].mmio_write(0x1234, 1)

    def test_associative_capacity_respected(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        nic = tb.nics["n0"]
        for tag in range(tb.config.nic.max_trigger_entries):
            nic.register_triggered_put(tag=tag, threshold=10,
                                       local_addr=src.addr(), nbytes=64,
                                       target="n1", remote_addr=dst.addr())
        with pytest.raises(TriggerListFull):
            nic.register_triggered_put(tag=999, threshold=1,
                                       local_addr=src.addr(), nbytes=64,
                                       target="n1", remote_addr=dst.addr())

    def test_trigger_storm_all_fire(self, nic_testbed):
        """Many tags in quick succession all fire exactly once."""
        tb = nic_testbed
        nic = tb.nics["n0"]
        n = 16
        handles = []
        for tag in range(n):
            src = tb.alloc_registered("n0", 8)
            dst = tb.alloc_registered("n1", 8)
            e = nic.register_triggered_put(tag=tag, threshold=1,
                                           local_addr=src.addr(), nbytes=8,
                                           target="n1", remote_addr=dst.addr())
            handles.append(nic.handle_for(e))
        for tag in range(n):
            nic.mmio_write(nic.trigger_address, tag)
        tb.sim.run()
        assert all(h.delivered.triggered for h in handles)
        assert nic.trigger_list.stats["fired"] == n


class TestTriggerHandleLifetime:
    """A registered put's handle lives on the NIC until its entry is
    freed; the op never refers back to it, so nothing is cyclic."""

    def _fired_put(self, tb):
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        nic = tb.nics["n0"]
        entry = nic.register_triggered_put(tag=3, threshold=1,
                                           local_addr=src.addr(), nbytes=64,
                                           target="n1", remote_addr=dst.addr())
        nic.mmio_write(nic.trigger_address, 3)
        tb.sim.run_until_event(nic.handle_for(entry).delivered)
        return nic, entry

    def test_op_holds_no_handle(self, nic_testbed):
        nic, entry = self._fired_put(nic_testbed)
        assert entry.op.meta == {}
        assert nic.handle_for(entry).op is entry.op

    def test_handle_for_freed_entry_raises(self, nic_testbed):
        nic, entry = self._fired_put(nic_testbed)
        nic.handle_for(entry)  # still available once fired
        nic.trigger_list.free(entry)
        with pytest.raises(ValueError, match="tag=3 was freed"):
            nic.handle_for(entry)

    def test_fanout_handles_go_with_the_entry(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 8)
        dsts = [tb.alloc_registered("n1", 8) for _ in range(3)]
        nic = tb.nics["n0"]
        entry = nic.register_triggered_fanout(
            tag=5, threshold=1,
            puts=[{"local_addr": src.addr(), "nbytes": 8, "target": "n1",
                   "remote_addr": d.addr()} for d in dsts])
        handles = nic.fanout_handles(entry)
        assert nic.handle_for(entry) is handles[0]
        assert entry.op.meta == {}
        nic.mmio_write(nic.trigger_address, 5)
        tb.sim.run()
        assert all(h.delivered.triggered for h in handles)
        nic.trigger_list.free(entry)
        with pytest.raises(ValueError, match="was freed"):
            nic.fanout_handles(entry)

    def test_single_put_is_not_a_fanout(self, nic_testbed):
        nic, entry = self._fired_put(nic_testbed)
        with pytest.raises(ValueError, match="not a fanout"):
            nic.fanout_handles(entry)


@pytest.mark.parametrize("workload", ["allreduce", "jacobi"])
def test_finished_run_leaves_no_message_garbage(workload):
    """With the cyclic collector off, a finished GPU-TN run leaves no
    put handle, delivered message or message behind: reference counting
    alone frees every payload."""
    from repro.apps.jacobi import JacobiExperiment
    from repro.collectives import AllreduceExperiment
    from repro.net import DeliveredMessage, Message
    from repro.nic.device import PutHandle

    if workload == "allreduce":
        experiment = AllreduceExperiment()
        params = {"strategy": "gputn", "n_nodes": 4, "nbytes": 64 * 1024}
    else:
        experiment, params = JacobiExperiment(), {"strategy": "gputn"}
    kinds = (PutHandle, DeliveredMessage, Message)

    def live():
        return sum(isinstance(o, kinds) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = live()
        experiment.run(params)
        left = live() - before
    finally:
        gc.enable()
    assert left == 0


class TestMemoryModelIntegration:
    def test_unfenced_gpu_write_flags_hazard(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        tb.mems["n0"].record_write(0, Agent.GPU, src)  # no release!
        tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        tb.sim.run()
        assert tb.mems["n0"].hazard_count() >= 1

    def test_released_gpu_write_is_clean(self, nic_testbed):
        tb = nic_testbed
        src = tb.alloc_registered("n0", 64)
        dst = tb.alloc_registered("n1", 64)
        from repro.memory import Scope

        tb.mems["n0"].record_write(0, Agent.GPU, src)
        tb.mems["n0"].release(5, Agent.GPU, Scope.SYSTEM)
        tb.nics["n0"].post_put(src.addr(), 64, "n1", dst.addr())
        tb.sim.run()
        assert tb.mems["n0"].hazard_count() == 0
