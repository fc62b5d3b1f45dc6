"""Wire a :class:`~repro.metrics.registry.MetricsRegistry` into a cluster.

:func:`attach_metrics` subscribes registry updates to the simulator's
probe bus (``cluster.sim.probes``, :mod:`repro.sim.probes`), the same
topics the :mod:`repro.validate` monitors use, so it covers every node
and every transport or switch queue armed after it.  The hardware
models never see the registry: with nothing attached every topic is
empty and the pre-metrics code path runs unchanged (the
zero-overhead-when-disabled contract, DESIGN.md §9).

What gets published (names are ``<node>.<component>.<metric>`` or
``<component>.<metric>`` for cluster-wide aggregates):

=============================================  ==============================
metric                                         topic: kinds
=============================================  ==============================
``sim.events`` (counter)                       ``step``
``gpu.kernel_launch_ns`` (histogram)           ``gpu``: kernel-launch
``gpu.kernel_teardown_ns`` (histogram)         ``gpu``: kernel-teardown
``<n>.gpu.kernels`` (counter)                  ``gpu``: kernel-launch
``<n>.gpu.cu_occupancy`` (series+gauge)        ``gpu``: wg-start, wg-end
``<n>.nic.trigger_fifo_depth`` (series+gauge)  ``fifo``
``<n>.nic.trigger_list_size`` (series)         ``trigger``: register, free
``<n>.nic.trigger_registers|trigger_triggers|  ``trigger``
trigger_fires|trigger_frees`` (counter)
``nic.message_latency_ns`` (histogram)         ``put``: initiate, delivered
``<n>.nic.deliveries`` (counter)               ``put``: delivered
``fabric.link.<s>-><d>.bytes|messages``        ``transmit``
``fabric.egress.<n>.busy_ns`` (counter)        ``transmit``
``fabric.delivery_latency_ns`` (histogram)     ``transmit``
``queue.<a>-><b>.depth_bytes`` (series+gauge)  ``admit``
``queue.depth_bytes`` (histogram)              ``admit``
``<n>.transport.tx_data|accepts|rx_dups|...``  ``transport``
=============================================  ==============================

Applications may additionally publish app-level metrics (e.g. the
degraded study's per-message latencies) through ``cluster.metrics``,
which this module sets; it stays ``None`` on uninstrumented clusters.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.metrics.registry import MetricsRegistry

__all__ = ["attach_metrics"]

#: Transport kinds counted as ``<n>.transport.<name>``.
_TRANSPORT_COUNTERS = {"tx": "tx_data", "accept": "accepts", "dup": "rx_dups",
                       "gap": "rx_gaps", "corrupt": "rx_corrupt",
                       "retransmit": "retransmit_rounds", "give-up": "give_ups"}


def _nic_rows(registry: MetricsRegistry, nic):
    node = nic.node
    return (registry.timeseries(f"{node}.nic.trigger_fifo_depth", node=node),
            registry.gauge(f"{node}.nic.trigger_fifo_depth"),
            registry.timeseries(f"{node}.nic.trigger_list_size", node=node),
            nic.trigger_list)


def _gpu_rows(registry: MetricsRegistry, node: str):
    return (registry.timeseries(f"{node}.gpu.cu_occupancy", node=node),
            registry.gauge(f"{node}.gpu.cu_occupancy"),
            registry.histogram("gpu.kernel_launch_ns"),
            registry.histogram("gpu.kernel_teardown_ns"))


def attach_metrics(cluster, registry: Optional[MetricsRegistry] = None
                   ) -> MetricsRegistry:
    """Arm metrics collection on ``cluster`` (a :class:`~repro.cluster.
    Cluster`); returns the registry.

    Must run before traffic flows (:meth:`repro.runtime.experiment.
    Experiment.execute` does exactly this when given
    ``observers=Observers(metrics=registry)``).
    Also publishes the registry as ``cluster.metrics`` so application
    code can add app-level metrics.
    """
    registry = MetricsRegistry() if registry is None else registry
    if getattr(cluster, "metrics", None) is not None:
        raise RuntimeError("cluster already has a metrics registry attached")
    cluster.metrics = registry
    sim, fabric = cluster.sim, cluster.fabric
    events = registry.counter("sim.events")
    delivery_latency = registry.histogram("fabric.delivery_latency_ns")
    msg_latency = registry.histogram("nic.message_latency_ns")
    initiated_at: Dict[int, int] = {}

    def on_transmit(msg, sent_at: int, egress_end: int,
                    delivered_at: int) -> None:
        link = f"fabric.link.{msg.src}->{msg.dst}"
        registry.counter(f"{link}.bytes").inc(msg.nbytes)
        registry.counter(f"{link}.messages").inc()
        # Egress occupancy: serialization time actually spent on the port.
        registry.counter(f"fabric.egress.{msg.src}.busy_ns").inc(
            fabric.net.serialization_ns(msg.nbytes))
        delivery_latency.record(delivered_at - sent_at)

    def on_admit(now: int, key: tuple, depth: int) -> None:
        # The *shape* of congestion -- when and where depth built up --
        # which the drop/mark counters cannot show.
        port = f"queue.{key[0]}->{key[1]}"
        registry.timeseries(f"{port}.depth_bytes").sample(now, depth)
        registry.gauge(f"{port}.depth_bytes").set(depth)
        registry.histogram("queue.depth_bytes").record(depth)

    def on_put(node: str, kind: str, handle, now: int) -> None:
        if kind == "initiate":
            initiated_at[handle.handle_id] = now
        elif kind == "delivered":
            t0 = initiated_at.pop(handle.handle_id, None)
            if t0 is not None:
                msg_latency.record(now - t0)
                registry.counter(f"{node}.nic.deliveries").inc()

    def on_fifo(node: str, kind: str, now: int, depth: int) -> None:
        series, gauge, _, _ = nic_rows[node]
        series.sample(now, depth)
        gauge.set(depth)

    def on_trigger(node: str, kind: str, entry) -> None:
        registry.counter(f"{node}.nic.trigger_{kind}s").inc()
        if kind in ("register", "free"):
            _, _, list_size, trigger_list = nic_rows[node]
            list_size.sample(sim.now, len(trigger_list))

    def on_gpu(node: str, kind: str, now: int, detail) -> None:
        series, gauge, launch, teardown = gpu_rows[node]
        if kind == "kernel-launch":
            launch.record(detail["latency_ns"])
            registry.counter(f"{node}.gpu.kernels").inc()
        elif kind == "kernel-teardown":
            teardown.record(detail["latency_ns"])
        elif kind in ("wg-start", "wg-end"):
            series.sample(now, detail["in_use"])
            gauge.set(detail["in_use"])

    def on_transport(node: str, kind: str, peer: str, seq: int,
                     now: int) -> None:
        stat = _TRANSPORT_COUNTERS.get(kind)
        if stat is not None:
            registry.counter(f"{node}.transport.{stat}").inc()

    sim.probes.step.append(lambda t, prio, tie, seq, ev: events.inc())
    sim.probes.transmit.append(on_transmit)
    sim.probes.admit.append(on_admit)
    sim.probes.put.append(on_put)
    sim.probes.fifo.append(on_fifo)
    sim.probes.trigger.append(on_trigger)
    sim.probes.gpu.append(on_gpu)
    sim.probes.transport.append(on_transport)
    # Per-node rows, bound once.  Idle nodes get theirs too, so a
    # workload's telemetry has the same keys whichever nodes see traffic.
    nic_rows = {node.name: _nic_rows(registry, node.nic)
                for node in cluster.nodes}
    gpu_rows = {node.name: _gpu_rows(registry, node.name)
                for node in cluster.nodes if node.gpu is not None}
    return registry
