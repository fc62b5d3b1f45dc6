"""GPU Host Networking: the helper-thread strategy class (extension).

The paper compares against this class only qualitatively (§5.1.1): "GPU
Host Networking uses dedicated polling threads on the host to service
messages on behalf of the GPU ... GPU-TN can provide the same
[intra-kernel] performance without requiring dedicated polling threads."

This module makes that comparison quantitative.  The model follows
GPUnet/DCGN/dCUDA:

* the GPU kernel writes its payload to a *bounce buffer*, publishes it at
  system scope and enqueues a request descriptor in a GPU->CPU queue
  (a system-scope store, like the GPU-TN trigger write -- but to memory,
  not to the NIC);
* a dedicated **helper thread** on one CPU core polls the queue; on each
  request it builds the network command packet and posts it to the NIC
  (the full critical-path CPU software stack);
* the helper thread never sleeps -- its polling time is charged to the
  CPU busy counter, which is how the evaluation quantifies Table 1's
  "Service Threads" overhead.

Exports an initiator flow with the same signature as the evaluated flows
so the microbenchmark can run it side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster import Node
from repro.gpu.kernel import KernelContext, KernelDescriptor
from repro.memory import Buffer
from repro.sim import SpinWatch, Store
from repro.strategies.flows import FlowResult, _copy_kernel

__all__ = ["GpuHostService", "gpu_host_initiator"]


@dataclass
class _Request:
    """One GPU->CPU message-service request."""

    buf: Buffer
    nbytes: int
    target: str
    wire_tag: int
    offset: int = 0
    remote_addr: Optional[int] = None
    handle: Optional[object] = None  # filled by the service
    #: one-shot wake-ups for the moment ``handle`` is set
    watchers: List[Callable[[], None]] = field(default_factory=list)

    def posted(self, handle: object) -> None:
        """The service posted the message: set ``handle``, then wake
        whoever waits for it."""
        self.handle = handle
        watchers, self.watchers = self.watchers, []
        for wake in watchers:
            wake()


class GpuHostService:
    """A dedicated helper thread servicing GPU message requests."""

    def __init__(self, node: Node):
        self.node = node
        self.queue: Store = Store(node.sim, name=f"{node.name}.gpuhostq")
        self.serviced: List[_Request] = []
        #: CPU time burned by the helper thread (poll + service)
        self.thread_busy_ns = 0
        self._proc = node.sim.spawn(self._thread(), name=f"{node.name}.helper")

    def submit_from_gpu(self, request: _Request) -> None:
        """Called from kernel context once the descriptor store lands."""
        if not self.queue.try_put(request):
            raise RuntimeError("GPU host-networking queue overflow")

    def dedicated_core_ns(self, now: int) -> int:
        """CPU time the dedicated helper core has burned by ``now``.

        A real helper thread spins continuously, so the answer is simply
        the wall time since service start -- this is Table 1's "Service
        Threads" cost made quantitative.  (The simulation itself blocks
        the thread on the queue so the event heap can drain.)
        """
        return now

    def _thread(self):
        """The service loop: detect (one poll period late), build, post."""
        cpu = self.node.config.cpu
        sim = self.node.sim
        while True:
            request = yield self.queue.get()
            # Detection latency: the spinning thread notices the request
            # on its next poll iteration.
            yield sim.timeout(cpu.completion_poll_ns)
            # Service: read + validate descriptor, build packet, post.
            service_ns = cpu.completion_poll_ns + cpu.packet_build_ns + cpu.send_post_ns
            self.thread_busy_ns += service_ns
            self.node.host.stats["busy_ns"] += service_ns
            yield sim.timeout(service_ns)
            if request.remote_addr is not None:
                request.posted(self.node.nic.post_put(
                    request.buf.addr(request.offset), request.nbytes,
                    request.target, request.remote_addr,
                    wire_tag=request.wire_tag))
            else:
                request.posted(self.node.nic.post_put(
                    request.buf.addr(request.offset), request.nbytes,
                    request.target, remote_addr=None,
                    wire_tag=request.wire_tag, kind="send"))
            self.serviced.append(request)

    def stop(self) -> None:
        self._proc.kill()


def _bounce_kernel(ctx: KernelContext):
    """The GPU side: fill the bounce buffer, publish, enqueue a request."""
    service: GpuHostService = ctx.arg("service")
    request: _Request = ctx.arg("request")
    yield from _copy_kernel(ctx)
    # The request descriptor write is a system-scope store, like the
    # GPU-TN trigger, but it lands in a memory queue the CPU must poll.
    yield ctx.compute(ctx.config.gpu.atomic_system_store_ns)
    service.submit_from_gpu(request)


def gpu_host_initiator(node: Node, target: str, send_buf: Buffer, nbytes: int,
                       remote_addr: Optional[int], wire_tag: int,
                       pattern: int = 0xA5,
                       service: Optional[GpuHostService] = None):
    """Microbenchmark initiator for the GPU Host Networking class.

    Returns a FlowResult like the evaluated flows.  The caller may pass a
    shared :class:`GpuHostService`; otherwise one is created (and its
    polling keeps consuming CPU for the rest of the simulation, exactly
    like a real dedicated helper thread).
    """
    result = FlowResult("gpu-host")
    service = service or GpuHostService(node)
    request = _Request(buf=send_buf, nbytes=nbytes, target=target,
                       wire_tag=wire_tag, remote_addr=remote_addr)
    desc = KernelDescriptor(
        fn=_bounce_kernel, n_workgroups=1,
        args={"buffer": send_buf, "pattern": pattern,
              "service": service, "request": request},
        name="gpuhost-copy")
    inst = yield from node.host.launch_kernel(desc)
    result.kernel_started = yield inst.started
    result.kernel_finished = yield inst.finished
    # Wait for the helper to have posted the message.  Untraced, the
    # wait is watched: it sleeps until the service sets the handle.
    poll_ns = node.config.cpu.completion_poll_ns

    def subscribe(wake) -> bool:
        request.watchers.append(wake)
        return True

    watch = (None if node.host.tracer.enabled
             else SpinWatch((poll_ns,), subscribe))
    spinning = node.sim.spin(
        lambda: None if request.handle is not None else poll_ns, watch)
    if spinning is not None:
        yield spinning
    result.network_posted = node.sim.now
    result.local_complete = yield request.handle.local
    result.detail["helper_thread_busy_ns"] = service.thread_busy_ns
    return result
