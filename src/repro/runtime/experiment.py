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
    cache boundaries.  ``resumed_from_ns`` is the simulation time of the
    checkpoint this run restored from, or ``None`` for a from-scratch
    run (checkpointing disabled, or no usable snapshot found).
    """

    record: RunRecord
    raw: Any
    cluster: Cluster
    resumed_from_ns: Optional[int] = None


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

    # -------------------------------------------------- checkpointing hooks
    def checkpoint_prefix(self, params: Dict[str, Any]
                          ) -> Optional[tuple]:
        """Declare a shared parameter prefix for incremental sweeps.

        Return ``(prefix_params, divergence_ns)`` -- the subset of
        ``params`` that fully determines the simulation strictly before
        sim-time ``divergence_ns`` -- or ``None`` (the default: every
        parameter matters from t=0, no sharing).  Checkpoints taken
        before the divergence horizon are stored under the prefix
        identity and reused by sibling points that share it; on such a
        resume, :meth:`apply_tail_params` overlays this point's tail.
        """
        return None

    def apply_tail_params(self, world: Dict[str, Any],
                          params: Dict[str, Any]) -> None:
        """Overlay tail (non-prefix) parameters onto a world restored
        from a *shared prefix* checkpoint.  Must only touch state the
        pre-divergence simulation never read (default: nothing)."""

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
                observers: Optional[Any] = None,
                checkpoint: Optional[Any] = None) -> Execution:
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

        ``checkpoint`` -- a :class:`repro.checkpoint.CheckpointConfig`
        -- arms periodic sim-time snapshots and resume-from-latest; see
        :meth:`_execute_checkpointed`.  ``None`` (the default) runs the
        exact pre-checkpoint code path.
        """
        obs = Observers.coerce(observers)
        p, cfg, cfg_fp = self.resolve_point(params, config)
        do_trace = self.trace_default(p) if trace is None else trace
        if checkpoint is not None:
            return self._execute_checkpointed(p, cfg, cfg_fp, do_trace, obs,
                                              checkpoint)
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

    def _execute_checkpointed(self, p: Dict[str, Any], cfg: SystemConfig,
                              cfg_fp: str, do_trace: bool,
                              obs: Optional[Any], ck: Any) -> Execution:
        """The checkpoint-armed run loop.

        Drives the simulation in grid-aligned chunks of ``ck.interval_ns``
        sim-time, snapshotting the whole world (cluster + run context +
        observer registry) after each chunk while events remain.  On
        entry, resumes from the newest usable per-point checkpoint --
        falling back to the experiment's shared prefix pool, then to a
        from-scratch build.  Grid alignment plus whole-world pickling is
        what makes a resumed run's RunRecord byte-identical to an
        uninterrupted one.
        """
        from repro import checkpoint as ckpt

        if type(self).drive is not Experiment.drive:
            raise ckpt.CheckpointError(
                f"experiment {self.name!r} overrides drive(); periodic "
                "checkpointing requires the default drain-the-heap drive")
        own_fp = ckpt.point_fingerprint(self.name, p, cfg_fp)
        prefix_fp: Optional[str] = None
        divergence_ns: Optional[int] = None
        if ck.shared_prefix:
            prefix = self.checkpoint_prefix(p)
            if prefix is not None:
                prefix_params, divergence_ns = prefix
                prefix_fp = ckpt.point_fingerprint(
                    self.name + "#prefix", prefix_params, cfg_fp)

        world: Optional[Dict[str, Any]] = None
        resumed_from: Optional[int] = None
        if ck.resume:
            world, resumed_from = self._load_checkpointed_world(
                ckpt, ck, own_fp, prefix_fp, divergence_ns, cfg_fp, p)
        if world is None:
            cluster = self.build_cluster(p, cfg, do_trace)
            registry = obs.arm(cluster) if obs is not None else None
            ctx = self.setup(cluster, p)
            world = {"cluster": cluster, "ctx": ctx, "registry": registry}
        else:
            cluster = world["cluster"]
            ctx = world["ctx"]
            registry = world["registry"]

        sim = cluster.sim
        interval = ck.interval_ns
        extra = {"interval_ns": interval}
        while True:
            nxt = sim.peek()
            if nxt is None:
                break
            horizon = ((nxt + interval - 1) // interval) * interval
            sim.run(until=horizon)
            if sim.peek() is None:
                break  # drained inside this chunk; nothing left to protect
            if sim.now == 0:
                continue  # t=0 is not on the grid; resume = from-scratch
            if prefix_fp is not None and sim.now < divergence_ns:
                ckpt.save_checkpoint(
                    ck.directory, world, experiment=self.name,
                    point_fp=prefix_fp, config_fp=cfg_fp,
                    sim_now_ns=sim.now, extra=extra, skip_existing=True)
            else:
                ckpt.save_checkpoint(
                    ck.directory, world, experiment=self.name,
                    point_fp=own_fp, config_fp=cfg_fp,
                    sim_now_ns=sim.now, extra=extra)
                ckpt.prune_checkpoints(ck.directory, own_fp, ck.keep)

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
        # The point is done: its private snapshots have served their
        # purpose (shared prefix snapshots stay for sibling points).
        ckpt.prune_checkpoints(ck.directory, own_fp, 0)
        return Execution(record=record, raw=raw, cluster=cluster,
                         resumed_from_ns=resumed_from)

    def _load_checkpointed_world(self, ckpt, ck, own_fp, prefix_fp,
                                 divergence_ns, cfg_fp, p):
        """Newest usable world: own checkpoints first, then the shared
        prefix pool (with tail params overlaid).  Unusable snapshots --
        foreign version, bad digest, different interval -- are skipped;
        the caller falls back to a from-scratch build."""
        candidates = []
        own = ckpt.latest_checkpoint(ck.directory, own_fp)
        if own is not None:
            candidates.append((own, False))
        if prefix_fp is not None:
            shared = ckpt.latest_checkpoint(ck.directory, prefix_fp,
                                            below_ns=divergence_ns)
            if shared is not None:
                candidates.append((shared, True))
        for (sim_ns, path), is_prefix in candidates:
            try:
                world, header = ckpt.load_checkpoint(
                    path, expect_config_fp=cfg_fp)
                if header.get("extra", {}).get("interval_ns") != ck.interval_ns:
                    raise ckpt.CheckpointError(
                        f"{path}: snapshot grid interval "
                        f"{header.get('extra', {}).get('interval_ns')!r} != "
                        f"configured {ck.interval_ns} (grids must match for "
                        "byte-identical resume)")
            except ckpt.CheckpointError:
                continue
            if is_prefix:
                self.apply_tail_params(world, p)
            return world, sim_ns
        return None, None

    def run(self, params: Optional[Dict[str, Any]] = None,
            config: Optional[SystemConfig] = None,
            trace: Optional[bool] = None, *,
            observers: Optional[Any] = None) -> RunRecord:
        """Run once and return only the portable :class:`RunRecord`."""
        return self.execute(params, config, trace, observers=observers).record


def _span_rows(tracer) -> tuple:
    return tuple(sorted(
        (s.node, s.actor, s.phase, s.start, s.end)
        for s in tracer.spans if s.end is not None
    ))
