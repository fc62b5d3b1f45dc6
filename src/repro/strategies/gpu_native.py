"""GPU Native Networking: the GPU-resident-stack strategy class (extension).

The paper's other non-simulated Table 1 class (§5.1.1): GGAS / GPUrdma /
Oden et al. run the *entire* networking stack on the GPU -- connection
state in scratchpad memory, command-packet construction by (serial,
divergent) kernel code, and a direct GPU->NIC doorbell.  The paper
expects GPU-TN to beat it because "the serial task of creating a network
compatible command packet is offloaded to the CPU".

Model: the kernel itself builds the NIC command packet before ringing
the doorbell.  Packet construction is the same logical work as the CPU's
``packet_build_ns``, but executed by a single GPU work-item at GPU
scalar speed -- GPUs run serial pointer-chasing code far slower than an
OoO CPU core (the model charges the configured slowdown, default 8x,
consistent with the single-lane/looping measurements in the GPUrdma and
Oden et al. studies).  The operation itself is posted as a whole command
(not pre-registered), so the NIC charges full command processing.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster import Node
from repro.gpu.kernel import KernelContext, KernelDescriptor
from repro.memory import Buffer
from repro.strategies.flows import FlowResult, _copy_kernel

__all__ = ["GPU_SERIAL_SLOWDOWN", "gpu_native_initiator"]

#: How much slower one GPU work-item executes serial stack code than a
#: CPU core (GPUrdma/Oden-style measurements put this at 5-10x).
GPU_SERIAL_SLOWDOWN = 8


def _native_kernel(ctx: KernelContext):
    """Copy payload, then build + post the network command from the GPU."""
    buf: Buffer = ctx.arg("buffer")
    node: Node = ctx.arg("node")
    target: str = ctx.arg("target")
    remote_addr: int = ctx.arg("remote_addr")
    wire_tag: int = ctx.arg("wire_tag")
    out = ctx.desc.args.setdefault("out", {})

    yield from _copy_kernel(ctx)
    # Serial, divergent packet construction by a single work-item.
    yield ctx.compute(ctx.config.cpu.packet_build_ns * GPU_SERIAL_SLOWDOWN)
    # Ring the NIC directly (same MMIO cost as the GPU-TN trigger).
    yield ctx.compute(ctx.config.gpu.atomic_system_store_ns)
    out["handle"] = node.nic.post_put(buf.addr(), ctx.arg("nbytes"), target,
                                      remote_addr, wire_tag=wire_tag)
    out["posted_at"] = ctx.sim.now


def gpu_native_initiator(node: Node, target: str, send_buf: Buffer, nbytes: int,
                         remote_addr: Optional[int], wire_tag: int,
                         pattern: int = 0xA5):
    """Microbenchmark initiator for the GPU Native Networking class."""
    if remote_addr is None:
        raise ValueError("gpu-native flow is one-sided; remote_addr required")
    result = FlowResult("gpu-native")
    desc = KernelDescriptor(
        fn=_native_kernel, n_workgroups=1,
        args={"buffer": send_buf, "pattern": pattern, "node": node,
              "target": target, "remote_addr": remote_addr,
              "wire_tag": wire_tag, "nbytes": nbytes},
        name="gpunative-copy")
    inst = yield from node.host.launch_kernel(desc)
    result.kernel_started = yield inst.started
    result.kernel_finished = yield inst.finished
    out = desc.args["out"]
    result.network_posted = out["posted_at"]
    result.local_complete = yield out["handle"].local
    return result
