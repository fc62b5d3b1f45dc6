"""Attach generated traffic to a live cluster as background load.

:class:`BackgroundLoad` replays a :class:`~repro.traffic.generators.
TrafficEvent` list onto a :class:`repro.cluster.Cluster`: a chain of
engine callbacks walks the time-sorted events and posts each as a
one-sided put from the source node's NIC into a per-destination scratch
buffer.  The puts ride whatever the cluster has armed -- the reliable
transport sequences them into the same per-peer flows as foreground
traffic, the switch queues see their bytes, fault plans can drop them --
which is the point: the foreground workload under study competes with
this load for every port and window slot.

Completions are counted via event callbacks (no per-message waiter
processes): ``stats`` tracks offered/delivered/failed so studies can
report background goodput next to the foreground numbers, and a
transport give-up (:class:`repro.nic.transport.TransportError`) on a
background flow is recorded, not raised -- background load must never
crash the experiment it decorates.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

from repro.sim.rng import RandomStreams
from repro.traffic.generators import TrafficEvent, TrafficPattern

__all__ = ["BackgroundLoad", "attach_traffic"]


class BackgroundLoad:
    """A replayable background-traffic attachment (see module docstring)."""

    def __init__(self, cluster, events: Iterable[TrafficEvent]):
        self.cluster = cluster
        self.events: List[TrafficEvent] = sorted(
            events, key=lambda e: (e.at_ns, e.src, e.dst, e.nbytes))
        n = len(cluster.nodes)
        for ev in self.events:
            if not (0 <= ev.src < n and 0 <= ev.dst < n):
                raise ValueError(
                    f"traffic event rank out of range for {n} nodes: {ev}")
        self.stats: Dict[str, int] = {
            "offered": len(self.events), "sent": 0,
            "delivered": 0, "failed": 0, "bytes_delivered": 0,
        }
        # One scratch buffer pair per node, sized for the largest event
        # touching it; registered for RDMA like any app buffer.
        max_out = [0] * n
        max_in = [0] * n
        for ev in self.events:
            max_out[ev.src] = max(max_out[ev.src], ev.nbytes)
            max_in[ev.dst] = max(max_in[ev.dst], ev.nbytes)
        self._send_bufs = [
            cluster.nodes[i].host.alloc(nb, name=f"bg-send{i}") if nb else None
            for i, nb in enumerate(max_out)]
        self._recv_bufs = [
            cluster.nodes[i].host.alloc(nb, name=f"bg-recv{i}") if nb else None
            for i, nb in enumerate(max_in)]
        self._started = False
        #: Index of the first event not yet posted.
        self._next = 0

    def start(self) -> "BackgroundLoad":
        """Schedule the first post (idempotent); call before ``run``."""
        if not self._started:
            self._started = True
            if self.events:
                self.cluster.sim.call_later(0, self._post_due)
        return self

    def _post_due(self) -> None:
        """Post every event due now, then schedule the next post.

        A callback chain with the schedule of a driver process: its boot,
        one wake-up per later event time, and, once the last event is
        posted, the finished process's event, which nothing waits on and
        so is skipped (:meth:`Simulator.skip_event`) rather than pushed.
        """
        sim = self.cluster.sim
        nodes = self.cluster.nodes
        events = self.events
        now = sim.now
        i = self._next
        while i < len(events):
            ev = events[i]
            if ev.at_ns > now:
                self._next = i
                sim.call_later(ev.at_ns - now, self._post_due)
                return
            handle = nodes[ev.src].nic.post_put(
                local_addr=self._send_bufs[ev.src].addr(),
                nbytes=ev.nbytes,
                target=nodes[ev.dst].name,
                remote_addr=self._recv_bufs[ev.dst].addr(),
            )
            self.stats["sent"] += 1
            handle.delivered.callbacks.append(self._done)
            i += 1
        self._next = i
        sim.skip_event()

    def _done(self, ev) -> None:
        stats = self.stats
        if ev.ok:
            stats["delivered"] += 1
            stats["bytes_delivered"] += ev.value.message.nbytes
        else:
            # Transport gave up on this flow; the experiment decides
            # what a dead background flow means -- we just count it.
            stats["failed"] += 1

    def counters(self) -> Dict[str, int]:
        """Non-zero counters, prefixed for RunRecord merging."""
        return {f"traffic_{k}": v for k, v in self.stats.items() if v}


def attach_traffic(cluster,
                   traffic: Union[TrafficPattern, Iterable[TrafficEvent]],
                   horizon_ns: Optional[int] = None,
                   streams: Optional[RandomStreams] = None) -> BackgroundLoad:
    """Generate (if needed) and arm background traffic on ``cluster``.

    ``traffic`` is either a :class:`TrafficPattern` -- expanded over
    ``horizon_ns`` with draws from ``streams`` (default: a
    :class:`RandomStreams` seeded from the cluster's config) -- or an
    already-built event list (e.g. a :mod:`repro.traffic.traces` trace).
    Returns the started :class:`BackgroundLoad`.
    """
    if isinstance(traffic, TrafficPattern):
        if horizon_ns is None:
            raise ValueError("a TrafficPattern needs horizon_ns to expand")
        if streams is None:
            streams = RandomStreams(cluster.config.seed)
        events = traffic.events(len(cluster.nodes), horizon_ns, streams)
    else:
        events = list(traffic)
    return BackgroundLoad(cluster, events).start()
