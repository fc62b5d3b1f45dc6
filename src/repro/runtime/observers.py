"""The Observers bundle: everything that watches or perturbs one run.

:class:`~repro.runtime.experiment.Experiment` used to grow one keyword
argument per observability subsystem (``instrument=`` for validation
monitors, ``metrics=`` for the registry, with fault plans and reliability
armed by hand inside experiment subclasses).  :class:`Observers` folds
them into one declarative, immutable bundle with a single arming order:

1. **reliability** -- the go-back-N transport must exist on every NIC
   before any traffic flows (sequence numbers start at the first send);
2. **faults** -- the fabric interposer, installed before monitors so the
   monitors see faulted traffic;
3. **metrics** -- :func:`repro.metrics.attach_metrics`;
4. **instruments** -- arbitrary ``callable(cluster)`` hooks (invariant
   monitors, schedule fuzzing), last, so they observe the fully armed
   cluster.

``Observers()`` -- the empty bundle -- arms nothing and is behaviorally
identical to not passing one at all: golden fixtures stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = ["Observers"]


@dataclass(frozen=True)
class Observers:
    """What should watch (or perturb) one experiment run.

    Fields
    ------
    metrics:
        ``True`` to collect into a fresh
        :class:`~repro.metrics.MetricsRegistry`, or a pre-built registry
        to collect into (its dump lands in the record's ``telemetry``).
    instruments:
        Callables invoked with the freshly built cluster before
        :meth:`~repro.runtime.experiment.Experiment.setup` -- the hook
        :mod:`repro.validate` uses to arm invariant monitors and seed
        schedule fuzzing.
    faults:
        A :class:`~repro.config.FaultConfig` to build a seeded
        :class:`~repro.faults.FaultPlan` from (seeded by
        :attr:`fault_seed`), or a pre-built plan to install as-is.
    fault_seed:
        Root seed for the plan built from a ``FaultConfig`` (ignored for
        pre-built plans, which carry their own streams).
    reliability:
        ``True`` to arm the reliable transport with default
        :class:`~repro.config.ReliabilityConfig`, or a config instance.
    """

    metrics: Any = None
    instruments: Tuple[Callable[[Any], None], ...] = ()
    faults: Any = None
    fault_seed: Optional[int] = None
    reliability: Any = None

    def __post_init__(self) -> None:
        # Normalize any iterable of hooks to a tuple (frozen dataclass:
        # go through object.__setattr__).
        if not isinstance(self.instruments, tuple):
            object.__setattr__(self, "instruments", tuple(self.instruments))
        for hook in self.instruments:
            if not callable(hook):
                raise TypeError(f"instrument hook {hook!r} is not callable")

    # ------------------------------------------------------------- coercion
    @classmethod
    def coerce(cls, value: Any) -> Optional["Observers"]:
        """Build an :class:`Observers` from the shorthands ``execute``
        accepts: ``None``, an ``Observers``, a ``MetricsRegistry``, one
        ``callable(cluster)``, or an iterable of callables."""
        if value is None or isinstance(value, cls):
            return value
        from repro.metrics import MetricsRegistry

        if isinstance(value, MetricsRegistry):
            return cls(metrics=value)
        if callable(value):
            return cls(instruments=(value,))
        try:
            hooks = tuple(value)
        except TypeError:
            raise TypeError(
                f"cannot interpret {value!r} as observers: expected None, "
                "Observers, MetricsRegistry, callable, or iterable of "
                "callables") from None
        return cls(instruments=hooks)

    # --------------------------------------------------------------- arming
    def arm(self, cluster) -> Optional[Any]:
        """Arm everything on ``cluster`` in dependency order; returns the
        live :class:`~repro.metrics.MetricsRegistry` (or ``None``)."""
        if self.reliability is not None and self.reliability is not False:
            cluster.enable_reliability(
                None if self.reliability is True else self.reliability)

        if self.faults is not None:
            from repro.faults import FaultPlan

            if isinstance(self.faults, FaultPlan):
                self.faults.attach(cluster.fabric)
            else:
                cluster.attach_faults(self.faults, rng=self.fault_seed)

        registry = None
        if self.metrics is not None and self.metrics is not False:
            from repro.metrics import MetricsRegistry, attach_metrics

            registry = (MetricsRegistry() if self.metrics is True
                        else self.metrics)
            attach_metrics(cluster, registry)

        for hook in self.instruments:
            hook(cluster)
        return registry
