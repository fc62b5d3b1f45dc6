"""Declarative parameter sweeps, executed by the service layer.

A :class:`Sweep` names an :class:`~repro.runtime.experiment.Experiment`
and either a parameter ``grid`` (cartesian product, first key varies
slowest) or an explicit ``points`` list.  :meth:`Sweep.run` is a thin
synchronous client of :mod:`repro.service`: it wraps the sweep in an
ephemeral :class:`~repro.service.job.Job` and blocks until every point
resolves.  Records come back **in point order** regardless of ``jobs``:
the simulator is deterministic pure Python and each point runs in
isolation, so parallel output is bit-identical to serial.  Points
already present in the optional
:class:`~repro.runtime.cache.ResultCache` are not re-run (cache probes
happen in the calling process, on the caller's cache object, and so do
the puts of fresh records).

For resumable, journaled campaigns -- progress streaming, SIGINT/SIGTERM
preemption, kill -> resume -- use :class:`repro.service.Job` directly
(``Job.from_sweep(sweep, store=...)``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, cast

from repro.config import SystemConfig
from repro.runtime.cache import ResultCache
from repro.runtime.experiment import Experiment
from repro.runtime.record import RunRecord

__all__ = ["Sweep", "run_sweep"]


@dataclass
class Sweep:
    """One experiment swept over a parameter grid (or explicit points)."""

    experiment: Experiment
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    #: Parameters shared by every point (overridden by grid/point values).
    base: Mapping[str, Any] = field(default_factory=dict)
    #: Explicit sweep points; when given, ``grid`` is ignored.
    points: Optional[Sequence[Mapping[str, Any]]] = None

    def sweep_points(self) -> List[Dict[str, Any]]:
        """The fully-resolved point list, in deterministic order."""
        if self.points is not None:
            return [{**self.base, **dict(p)} for p in self.points]
        keys = list(self.grid)
        out = []
        for combo in itertools.product(*(self.grid[k] for k in keys)):
            point = dict(self.base)
            point.update(zip(keys, combo))
            out.append(point)
        return out

    def run(self, config: Optional[SystemConfig] = None, jobs: int = 1,
            cache: Optional[ResultCache] = None) -> List[RunRecord]:
        """Execute the sweep; returns one record per point, in point order."""
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        # Imported here: repro.service is a client of the runtime, so the
        # module-level dependency points the other way.
        from repro.service.job import Job
        records = Job.from_sweep(self, config=config, cache=cache).run(jobs=jobs)
        return cast(List[RunRecord], records)


def run_sweep(experiment: Experiment,
              grid: Mapping[str, Sequence[Any]],
              base: Optional[Mapping[str, Any]] = None,
              config: Optional[SystemConfig] = None,
              jobs: int = 1,
              cache: Optional[ResultCache] = None) -> List[RunRecord]:
    """One-shot convenience: build a :class:`Sweep` and run it."""
    return Sweep(experiment, grid=grid, base=base or {}).run(
        config=config, jobs=jobs, cache=cache)
