"""The probe bus: the one place to watch a run.

Each :class:`~repro.sim.Simulator` owns one :class:`Probes`, exposed as
``sim.probes``: one plain list per topic.  A subscriber appends a
callable (``sim.probes.transport.append(fn)``) and from then on sees
every emission on that simulator, from every component, including
components built or armed after it subscribed.  Components bind their
topic list once when built and emit behind one truthiness test::

    if self._put_probes:
        for probe in self._put_probes:
            probe(self.node, "initiate", handle, now)

so with nothing subscribed a site costs one test and builds nothing.
Topic lists are never rebound: a probe appended mid-run is honoured.
Probes must be cheap.  An exception a probe raises leaves the emitting
call, except on the NIC's trigger pump, which keeps it in
``Nic._pump_error`` and stops.

============= ================================= ==========================================
topic         call                              emitted by: kinds
============= ================================= ==========================================
``step``      ``(t, prio, tie, seq, event)``    the simulator, per pop, before its callbacks
``transmit``  ``(msg, sent_at, egress_end,      the fabric, per delivery it schedules
              delivered_at)``                   (drops are not emitted)
``admit``     ``(now, port_key, depth_bytes)``  switch queues, per admission
``put``       ``(node, kind, handle, now)``     the NIC: initiate, send-dma-read,
                                                local-complete, delivered
``fifo``      ``(node, kind, now, depth)``      the NIC trigger FIFO: fifo-push, fifo-pop
``trigger``   ``(node, kind, entry)``           the trigger list: register, trigger, fire,
                                                free
``gpu``       ``(node, kind, now, detail)``     the GPU: kernel-launch, kernel-teardown
                                                (``latency_ns``); wg-start, wg-end
                                                (``wg``, ``in_use``, ``capacity``)
``transport`` ``(node, kind, peer, seq, now)``  the reliable transport: tx, retransmit,
                                                give-up; accept, dup, gap, corrupt, buffer
============= ================================= ==========================================

``node`` names the emitting node: for the transport's receive-side kinds
(accept to buffer) it is the receiver and ``peer`` the sender.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

__all__ = ["Probes"]

StepProbe = Callable[[int, int, int, int, Any], None]
TransmitProbe = Callable[[Any, int, int, int], None]
AdmitProbe = Callable[[int, tuple, int], None]
PutProbe = Callable[[str, str, Any, int], None]
FifoProbe = Callable[[str, str, int, int], None]
TriggerProbe = Callable[[str, str, Any], None]
GpuProbe = Callable[[str, str, int, Dict[str, Any]], None]
TransportProbe = Callable[[str, str, str, int, int], None]


class Probes:
    """One simulator's subscriber lists, one per topic (table above)."""

    __slots__ = ("step", "transmit", "admit", "put", "fifo", "trigger", "gpu", "transport")

    def __init__(self) -> None:
        self.step: List[StepProbe] = []
        self.transmit: List[TransmitProbe] = []
        self.admit: List[AdmitProbe] = []
        self.put: List[PutProbe] = []
        self.fifo: List[FifoProbe] = []
        self.trigger: List[TriggerProbe] = []
        self.gpu: List[GpuProbe] = []
        self.transport: List[TransportProbe] = []
