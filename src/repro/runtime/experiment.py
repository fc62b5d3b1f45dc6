"""The Experiment template: one simulated run, end to end.

Every paper exhibit used to hand-roll the same five steps: overlay a
config, build a :class:`~repro.cluster.Cluster`, spawn per-node flows,
``cluster.run()``, then scrape the tracer and process values into an
ad-hoc result object.  :class:`Experiment` captures that lifecycle once;
concrete experiments implement only the hooks that differ.

Experiments must be picklable: :mod:`repro.service` ships each sweep
worker the experiment + config working set exactly once (pool
initializer) and journals it with stored jobs, so experiments hold no
cluster or simulator state -- everything transient lives in the per-run
context dict threaded through the hooks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cluster import Cluster
from repro.config import SystemConfig, default_config
from repro.runtime.observers import Observers
from repro.runtime.record import RunRecord, config_fingerprint

__all__ = ["Execution", "Experiment"]


@dataclass
class Execution:
    """One finished run: the portable record plus in-process artifacts.

    ``raw`` is the experiment's legacy result object (e.g.
    :class:`~repro.apps.jacobi.JacobiResult`) and ``cluster`` the live
    cluster -- both stay in-process; only ``record`` crosses process and
    cache boundaries.
    """

    record: RunRecord
    raw: Any
    cluster: Cluster


class Experiment:
    """Template for one simulated experiment.

    Subclasses set :attr:`name` and :attr:`defaults` and implement
    :meth:`build_cluster`, :meth:`setup` and :meth:`finish`; the optional
    hooks :meth:`configure`, :meth:`trace_default` and :meth:`drive` cover
    config overlays, tracing policy and non-standard run loops.
    """

    #: Stable identifier; part of every cache key.
    name: str = "experiment"
    #: Default parameter values, merged under the caller's sweep point.
    defaults: Dict[str, Any] = {}

    # ------------------------------------------------------------------ hooks
    def configure(self, params: Dict[str, Any],
                  config: SystemConfig) -> SystemConfig:
        """Overlay per-point settings onto the base config (default: none)."""
        return config

    def trace_default(self, params: Dict[str, Any]) -> bool:
        """Whether runs trace when the caller does not say (default: off --
        tracing every span of a large sweep costs memory and time)."""
        return False

    def build_cluster(self, params: Dict[str, Any], config: SystemConfig,
                      trace: bool) -> Cluster:
        raise NotImplementedError

    def setup(self, cluster: Cluster, params: Dict[str, Any]) -> Dict[str, Any]:
        """Allocate buffers and spawn flows; returns the run context.

        The context's ``"procs"`` list (if present) is error-checked after
        the run in order, so put the process whose failure should win first.
        """
        raise NotImplementedError

    def drive(self, cluster: Cluster, ctx: Dict[str, Any],
              params: Dict[str, Any]) -> None:
        """Advance the simulation to completion (default: drain the heap)."""
        cluster.run()

    def finish(self, cluster: Cluster, ctx: Dict[str, Any],
               params: Dict[str, Any]) -> Any:
        """Return ``(metrics, raw)``: JSON-safe scalars for the record plus
        the experiment's in-process result object."""
        raise NotImplementedError

    # --------------------------------------------------------------- template
    def resolve_params(self, params: Optional[Dict[str, Any]]) -> Dict[str, Any]:
        merged = dict(self.defaults)
        merged.update(params or {})
        return merged

    def resolve_point(self, params: Optional[Dict[str, Any]],
                      config: Optional[SystemConfig] = None
                      ) -> Tuple[Dict[str, Any], SystemConfig, str]:
        """``(params, config, config_fp)`` of one sweep point: the merged
        params, the effective config after :meth:`configure`, and that
        config's fingerprint.

        This is the point's identity.  :meth:`execute` stamps it on the
        record (and so on the cache key :meth:`RunRecord.cache_key` puts
        under), and the service's cache probe looks up the same key.
        """
        p = self.resolve_params(params)
        cfg = self.configure(p, config or default_config())
        return p, cfg, config_fingerprint(cfg)

    def execute(self, params: Optional[Dict[str, Any]] = None,
                config: Optional[SystemConfig] = None,
                trace: Optional[bool] = None, *,
                observers: Optional[Any] = None) -> Execution:
        """Run the full lifecycle once; returns record + raw + cluster.

        ``observers`` bundles everything that watches or perturbs the run
        -- metrics registry, instrument callables, fault plan, transport
        reliability -- into one :class:`~repro.runtime.observers.Observers`
        (or any of its :meth:`~repro.runtime.observers.Observers.coerce`
        shorthands: a registry, a callable, or an iterable of callables).
        It is armed on the freshly built cluster before :meth:`setup`, in
        dependency order (reliability, faults, metrics, instruments).
        ``None`` -- the default -- arms nothing and runs the exact
        pre-observability code path, so records stay byte-identical.
        """
        obs = Observers.coerce(observers)
        p, cfg, cfg_fp = self.resolve_point(params, config)
        do_trace = self.trace_default(p) if trace is None else trace
        cluster = self.build_cluster(p, cfg, do_trace)
        registry = obs.arm(cluster) if obs is not None else None
        ctx = self.setup(cluster, p)
        self.drive(cluster, ctx, p)
        for proc in ctx.get("procs", ()):
            if not proc.ok:
                raise proc.value
        metrics_out, raw = self.finish(cluster, ctx, p)
        counters = getattr(cluster, "transport_counters", None)
        record = RunRecord(
            experiment=self.name,
            params=p,
            config_fingerprint=cfg_fp,
            metrics=metrics_out,
            hazards=cluster.total_hazards(),
            spans=_span_rows(cluster.tracer) if do_trace else (),
            transport=counters() if counters is not None else {},
            telemetry=registry.dump() if registry is not None else {},
        )
        return Execution(record=record, raw=raw, cluster=cluster)

    def run(self, params: Optional[Dict[str, Any]] = None,
            config: Optional[SystemConfig] = None,
            trace: Optional[bool] = None, *,
            observers: Optional[Any] = None) -> RunRecord:
        """Run once and return only the portable :class:`RunRecord`.

        The run's buffer payloads are released once the record is built:
        a finished cluster is cyclic garbage, so it would otherwise hold
        them until the next full collection.  Use :meth:`execute` to
        inspect the cluster after the run.
        """
        execution = self.execute(params, config, trace, observers=observers)
        for node in execution.cluster:
            for buf in node.space.buffers():
                buf.release()
        return execution.record


def _span_rows(tracer) -> tuple:
    return tuple(sorted(
        (s.node, s.actor, s.phase, s.start, s.end)
        for s in tracer.spans if s.end is not None
    ))
