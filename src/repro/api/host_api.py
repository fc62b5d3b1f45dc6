"""Host-side GPU-TN API (paper Figure 6).

:class:`GpuTnEndpoint` wraps one node's host/NIC/GPU with the five steps
of the paper's host pseudocode::

    int rank = RdmaInit();                  -> GpuTnEndpoint(node)
    TrigPut(TAG+i, buf, target, thresh);    -> ep.trig_put(...)
    char *trigAddr = GetTriggerAddr();      -> ep.trigger_address
    LaunchKern(trigAddr, TAG, N_MSGS, buf); -> ep.launch(...)
    // cleanup, more compute                -> ep.free(...)

``trig_put`` is a generator (charges the CPU registration cost); crucially
it may be called *before or after* ``launch`` -- the relaxed
synchronization of Section 3.2 makes both orders correct, and overlapping
registration with kernel launch is the paper's headline optimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.cluster import Node
from repro.gpu.device import KernelInstance
from repro.gpu.kernel import KernelDescriptor, KernelFn
from repro.memory import Buffer
from repro.nic.device import PutHandle
from repro.nic.triggered import TriggerEntry
from repro.sim import Event

__all__ = ["GpuTnEndpoint", "TriggeredOp"]

_tag_space = itertools.count(0x100)


@dataclass
class TriggeredOp:
    """A registered (or pending-registration) triggered operation."""

    tag: int
    threshold: int
    entry: Optional[TriggerEntry] = None
    #: host-visible completion flag word (local completion, §4.2.4)
    local_flag: Optional[Tuple[Buffer, int]] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: the NIC's handle for the put, set at registration
    _handle: Optional[PutHandle] = field(default=None, repr=False)

    @property
    def handle(self) -> PutHandle:
        if self._handle is None:
            raise RuntimeError(f"triggered op tag={self.tag} not yet registered")
        return self._handle

    @property
    def fired(self) -> bool:
        return self.entry is not None and self.entry.fired


class GpuTnEndpoint:
    """Per-node facade over the GPU-TN programming model."""

    def __init__(self, node: Node):
        if node.gpu is None:
            raise ValueError(f"GPU-TN endpoint requires a GPU on node {node.name}")
        self.node = node
        self.sim = node.sim
        self.host = node.host
        self.nic = node.nic
        self.gpu = node.gpu
        self._flag_pool: Optional[Buffer] = None
        self._flag_next = 0

    # ------------------------------------------------------------ step 1/3
    @property
    def rank(self) -> str:
        """RdmaInit(): the endpoint's identity on the fabric."""
        return self.node.name

    @property
    def trigger_address(self) -> int:
        """GetTriggerAddr(): the MMIO address kernels store tags to."""
        return self.nic.trigger_address

    @staticmethod
    def fresh_tag() -> int:
        """Allocate a globally unique trigger tag."""
        return next(_tag_space)

    def alloc_flag(self) -> Tuple[Buffer, int]:
        """A uint32 completion-flag word in registered memory."""
        if self._flag_pool is None or self._flag_next + 4 > self._flag_pool.nbytes:
            self._flag_pool = self.host.alloc(4096, name=f"{self.node.name}.flags")
            self._flag_next = 0
        slot = (self._flag_pool, self._flag_next)
        self._flag_next += 4
        return slot

    # -------------------------------------------------------------- step 2
    def trig_put(self, buf: Buffer, nbytes: int, target: str, remote_addr: int,
                 tag: Optional[int] = None, threshold: int = 1,
                 wire_tag: Optional[int] = None, offset: int = 0,
                 with_local_flag: bool = False):
        """TrigPut(): register a triggered put with the NIC (generator).

        Returns a :class:`TriggeredOp`.  Safe to call after the kernel has
        already started triggering (relaxed synchronization).
        """
        tag = self.fresh_tag() if tag is None else tag
        flag = self.alloc_flag() if with_local_flag else None
        op = TriggeredOp(tag=tag, threshold=threshold, local_flag=flag)
        op.entry = yield from self.host.register_triggered_put(
            tag=tag, threshold=threshold, buf=buf, nbytes=nbytes, target=target,
            remote_addr=remote_addr, wire_tag=wire_tag, offset=offset,
            local_flag=flag,
        )
        op._handle = self.nic.handle_for(op.entry)
        return op

    def register_dynamic(self, buf: Buffer, nbytes: int,
                         tag: Optional[int] = None, threshold: int = 1,
                         default_target: Optional[str] = None,
                         default_remote_addr: int = 0,
                         wire_tag: Optional[int] = None):
        """Section 3.4 extension: register a triggered-put *template* whose
        target/addresses the GPU may fill in at trigger time via
        ``ctx.store_trigger_dynamic``.  Generator, like :meth:`trig_put`.
        """
        tag = self.fresh_tag() if tag is None else tag
        op = TriggeredOp(tag=tag, threshold=threshold)
        op.entry = yield from self.host.register_triggered_put(
            tag=tag, threshold=threshold, buf=buf, nbytes=nbytes,
            target=default_target or self.node.name + "-unset",
            remote_addr=default_remote_addr, wire_tag=wire_tag,
        )
        op._handle = self.nic.handle_for(op.entry)
        return op

    # -------------------------------------------------------------- step 4
    def launch(self, fn: KernelFn, n_workgroups: int, wg_size: int = 256,
               name: str = "", **args: Any):
        """LaunchKern(): dispatch a kernel with the trigger address and
        tags in its arguments (generator; returns a KernelInstance)."""
        desc = KernelDescriptor(
            fn=fn, n_workgroups=n_workgroups, wg_size=wg_size,
            name=name or getattr(fn, "__name__", "kernel"),
            args={"trig_addr": self.trigger_address, **args},
        )
        inst = yield from self.host.launch_kernel(desc)
        return inst

    # -------------------------------------------------------------- step 5
    def free(self, op: TriggeredOp) -> None:
        """Release a consumed trigger entry's NIC slot."""
        if op.entry is not None:
            self.nic.trigger_list.free(op.entry)
            op.entry = None

    # ------------------------------------------------------------ waiting
    def wait_local(self, op: TriggeredOp) -> Event:
        """Event: send buffer reusable (local completion, §4.2.4)."""
        return op.handle.local

    def wait_delivered(self, op: TriggeredOp) -> Event:
        """Event: payload landed at the target (simulator oracle)."""
        return op.handle.delivered

    def local_flag_value(self, op: TriggeredOp) -> int:
        if op.local_flag is None:
            raise ValueError("op was registered without with_local_flag=True")
        buf, off = op.local_flag
        return int(buf.view(np.uint32, count=1, offset=off)[0])
