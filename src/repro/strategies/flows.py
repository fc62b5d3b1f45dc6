"""The four evaluated strategies as compute-then-send flows.

Each flow answers the paper's microbenchmark question (Section 5.2): a
kernel on the initiator produces one cache line of data that must land at
the target.  The flows differ exactly as Figure 3 draws them:

* **cpu**    -- no GPU: the CPU computes and sends.
* **hdn**    -- kernel runs to completion; the CPU then builds and posts a
  two-sided send; the target matches a posted receive.
* **gds**    -- the CPU pre-posts a staged put; the GPU front end rings
  the doorbell at the kernel boundary (after teardown); the target polls.
* **gputn**  -- the CPU registers a triggered put; the kernel publishes
  the buffer and stores the tag *from inside the kernel*; the target
  polls.  Registration may be overlapped with the launch (relaxed
  synchronization, Section 3.2) via ``overlap_post=True``.

Initiator generators return a :class:`FlowResult`; target generators
return the simulation time at which the payload was observed.
:func:`message_stream` runs one strategy's flows back to back, the probe
stream the congestion and degraded studies time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.cluster import Cluster, Node
from repro.gpu.kernel import KernelContext, KernelDescriptor
from repro.memory import Buffer
from repro.nic.transport import TransportError
from repro.sim import AnyOf
from repro.strategies.base import ONE_SIDED_STRATEGIES

__all__ = ["FLOWS", "FlowResult", "get_flow", "message_stream"]


@dataclass
class FlowResult:
    """Initiator-side timeline of one flow execution (ns timestamps)."""

    strategy: str
    kernel_started: Optional[int] = None
    kernel_finished: Optional[int] = None
    network_posted: Optional[int] = None
    local_complete: Optional[int] = None
    detail: Dict[str, int] = field(default_factory=dict)


# --------------------------------------------------------------------------
# The microbenchmark kernel: copy one cache line, publish it.  Matches the
# paper's "simple vector copy operation of a single cache line".
# --------------------------------------------------------------------------

def _copy_kernel(ctx: KernelContext):
    """Vector-copy the payload and make it system-visible.

    At the paper's single-cache-line size this costs one global
    load/store; larger payloads scale with the work-group's streaming
    rate (the size sweep uses this path).
    """
    buf: Buffer = ctx.arg("buffer")
    payload = np.full(buf.nbytes, ctx.arg("pattern"), dtype=np.uint8)
    ctx.write(buf, payload)
    gpu_cfg = ctx.config.gpu
    # Whole-device streaming rate: a real fill uses the full grid even
    # though this model folds it into the driving work-group.
    yield ctx.compute(max(gpu_cfg.global_load_ns,
                          int(2 * buf.nbytes / gpu_cfg.stream_bytes_per_ns)))
    yield ctx.barrier()
    yield ctx.fence_release_system(buf)


def _copy_trigger_kernel(ctx: KernelContext):
    """The GPU-TN variant: copy, publish, then trigger the NIC in-kernel."""
    yield from _copy_kernel(ctx)
    yield ctx.store_trigger(ctx.arg("tag"))


# --------------------------------------------------------------------------
# Initiator flows
# --------------------------------------------------------------------------

def cpu_initiator(node: Node, target: str, send_buf: Buffer, nbytes: int,
                  remote_addr: Optional[int], wire_tag: int,
                  pattern: int = 0xA5):
    """CPU-only: compute on the host, then a two-sided send."""
    result = FlowResult("cpu")
    node.host.cpu_write(send_buf, np.full(nbytes, pattern, dtype=np.uint8))
    yield from node.host.compute_bytes(nbytes, phase="cpu-compute")
    handle = yield from node.host.send(send_buf, nbytes, target, wire_tag)
    result.network_posted = node.sim.now
    result.local_complete = yield handle.local
    return result


def hdn_initiator(node: Node, target: str, send_buf: Buffer, nbytes: int,
                  remote_addr: Optional[int], wire_tag: int,
                  pattern: int = 0xA5):
    """Host-Driven Networking: kernel, then CPU send at the boundary."""
    result = FlowResult("hdn")
    desc = KernelDescriptor(fn=_copy_kernel, n_workgroups=1,
                            args={"buffer": send_buf, "pattern": pattern},
                            name="hdn-copy")
    inst = yield from node.host.launch_kernel(desc)
    result.kernel_started = yield inst.started
    result.kernel_finished = yield inst.finished
    # CPU notices kernel completion on its next poll, then sends.
    yield node.sim.timeout(node.config.cpu.completion_poll_ns)
    handle = yield from node.host.send(send_buf, nbytes, target, wire_tag)
    result.network_posted = node.sim.now
    result.local_complete = yield handle.local
    return result


def gds_initiator(node: Node, target: str, send_buf: Buffer, nbytes: int,
                  remote_addr: int, wire_tag: int, pattern: int = 0xA5):
    """GDS: pre-posted staged put, doorbell at the kernel boundary."""
    if remote_addr is None:
        raise ValueError("gds flow is one-sided; remote_addr required")
    result = FlowResult("gds")
    handle = yield from node.host.put(send_buf, nbytes, target, remote_addr,
                                      wire_tag=wire_tag, deferred=True)
    result.network_posted = node.sim.now
    desc = KernelDescriptor(fn=_copy_kernel, n_workgroups=1,
                            args={"buffer": send_buf, "pattern": pattern},
                            name="gds-copy")
    inst = yield from node.host.launch_kernel(desc)
    node.gpu.enqueue_doorbell(handle)  # initiation point in the stream
    result.kernel_started = yield inst.started
    result.kernel_finished = yield inst.finished
    result.local_complete = yield handle.local
    return result


def gputn_initiator(node: Node, target: str, send_buf: Buffer, nbytes: int,
                    remote_addr: int, wire_tag: int, pattern: int = 0xA5,
                    overlap_post: bool = False, tag: int = 0x51,
                    post_delay_ns: int = 0):
    """GPU-TN: registered triggered put, fired from inside the kernel.

    ``overlap_post=True`` launches the kernel *before* registering the
    operation -- the Section 3.2 relaxed-synchronization optimization;
    ``post_delay_ns`` additionally delays the CPU registration, modeling
    a busy host (the relaxed-sync ablation sweeps it).
    """
    if remote_addr is None:
        raise ValueError("gputn flow is one-sided; remote_addr required")
    result = FlowResult("gputn")
    desc = KernelDescriptor(fn=_copy_trigger_kernel, n_workgroups=1,
                            args={"buffer": send_buf, "pattern": pattern,
                                  "tag": tag},
                            name="gputn-copy")

    def register():
        entry = yield from node.host.register_triggered_put(
            tag=tag, threshold=1, buf=send_buf, nbytes=nbytes, target=target,
            remote_addr=remote_addr, wire_tag=wire_tag,
        )
        result.network_posted = node.sim.now
        return entry

    if overlap_post:
        inst = yield from node.host.launch_kernel(desc)
        if post_delay_ns:
            yield node.sim.timeout(post_delay_ns)
        entry = yield from register()
    else:
        entry = yield from register()
        inst = yield from node.host.launch_kernel(desc)
    result.kernel_started = yield inst.started
    result.kernel_finished = yield inst.finished
    handle = node.nic.handle_for(entry)
    result.local_complete = yield handle.local
    return result


# --------------------------------------------------------------------------
# Target flows
# --------------------------------------------------------------------------

def two_sided_target(node: Node, recv_buf: Buffer, nbytes: int, wire_tag: int):
    """CPU/HDN target: post a receive and progress until it completes."""
    handle = node.host.post_recv(wire_tag, recv_buf, nbytes)
    yield from node.host.wait_recv(handle)
    return node.sim.now


def one_sided_target(node: Node, recv_buf: Buffer, nbytes: int, wire_tag: int):
    """GDS/GPU-TN target: poll a flag word the NIC bumps on arrival
    (PGAS-style notification, paper §4.2.5)."""
    flag = node.host.alloc(4, name=f"{node.name}.rxflag")
    node.nic.expose_rx_flag(wire_tag, (flag, 0))
    yield from node.host.poll_flag(flag, at_least=1)
    return node.sim.now


FLOWS = {
    "cpu": (cpu_initiator, two_sided_target),
    "hdn": (hdn_initiator, two_sided_target),
    "gds": (gds_initiator, one_sided_target),
    "gputn": (gputn_initiator, one_sided_target),
}


def get_flow(strategy: str):
    """(initiator, target) generator pair for an evaluated strategy.

    Also resolves the ``gpu-host`` extension flow (Table 1's helper-thread
    class, which the paper discusses but does not simulate -- see
    :mod:`repro.strategies.gpu_host`).
    """
    if strategy == "gpu-host":
        from repro.strategies.gpu_host import gpu_host_initiator

        return gpu_host_initiator, one_sided_target
    if strategy == "gpu-native":
        from repro.strategies.gpu_native import gpu_native_initiator

        return gpu_native_initiator, one_sided_target
    try:
        return FLOWS[strategy]
    except KeyError:
        raise KeyError(
            f"unknown flow {strategy!r}; evaluated strategies: {sorted(FLOWS)}"
        ) from None


def message_stream(cluster: Cluster, target: Node, strategy: str, nbytes: int,
                   messages: int, outcome: Dict[str, Any], *, prefix: str,
                   pattern: int, wire_tag_base: int, trig_tag_base: int):
    """``messages`` back-to-back one-way transfers from node 0 to
    ``target``, each one flow of ``strategy`` timed from initiation to the
    target observing the payload.

    Fills ``outcome`` (``latencies``, ``delivered``, ``gave_up``,
    ``span_ns``) and returns the delivered count.  Message ``i`` uses
    wire tag ``wire_tag_base + i`` and, for GPU-TN, trigger tag
    ``trig_tag_base + i``; ``prefix`` names the buffers, processes and
    give-up event.  A flow whose reliable transport gives up ends the
    stream with ``gave_up`` set instead of parking it forever.
    """
    initiator = cluster[0]
    init_fn, target_fn = get_flow(strategy)
    one_sided = strategy in ONE_SIDED_STRATEGIES
    send_buf = initiator.host.alloc(nbytes, name=f"{prefix}-send")
    recv_buf = target.host.alloc(nbytes, name=f"{prefix}-recv")
    remote_addr = recv_buf.addr() if one_sided else None
    # The initiators only wait on *local* completion, which succeeds long
    # before a retry budget can die: watch for the initiator's transport
    # giving up so a dead flow ends the stream instead of parking it on
    # a starved receiver.
    give_up_ev = cluster.sim.event(f"{prefix}-give-up")
    cluster.sim.probes.transport.append(
        lambda node, kind, peer, seq, now: kind == "give-up"
        and node == initiator.name and not give_up_ev.triggered
        and give_up_ev.succeed(now))
    start = cluster.sim.now
    for i in range(messages):
        wire_tag = wire_tag_base + i
        kwargs: Dict[str, Any] = {}
        if strategy == "gputn":
            kwargs["tag"] = trig_tag_base + i
        t0 = cluster.sim.now
        tproc = cluster.spawn(
            target_fn(target, recv_buf, nbytes, wire_tag),
            name=f"{prefix}-target-{i}")
        iproc = cluster.spawn(
            init_fn(initiator, target.name, send_buf, nbytes, remote_addr,
                    wire_tag, pattern=pattern, **kwargs),
            name=f"{prefix}-init-{i}")
        gave_up = False
        try:
            yield iproc
            done = yield AnyOf(cluster.sim, [tproc, give_up_ev])
            gave_up = tproc not in done
            observed_at = done.get(tproc)
        except TransportError:
            gave_up = True
        if gave_up:
            # Reap whichever side is still parked.
            outcome["gave_up"] = True
            for proc in (tproc, iproc):
                if not proc.processed:
                    proc.kill()
            break
        if strategy == "gputn":
            # Reap the fired trigger entry: the associative lookup holds
            # only 16 slots and a stream outlives that.
            entry = initiator.nic.trigger_list.entry(kwargs["tag"])
            if entry is not None:
                initiator.nic.trigger_list.free(entry)
        latency = int(observed_at) - t0
        outcome["latencies"].append(latency)
        if cluster.metrics is not None:
            # App-level view of the same messages the NIC histogram
            # times; `repro stats` cross-checks the two.
            cluster.metrics.histogram("app.message_latency_ns").record(latency)
        outcome["delivered"] += 1
    outcome["span_ns"] = cluster.sim.now - start
    return outcome["delivered"]
