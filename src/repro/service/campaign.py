"""One campaign driver: a study's points as one job, summed up by a report.

Every study campaign -- the validate fuzzer, the fault campaigns, the
topology scale study and the congestion study -- is an experiment, a
list of points and a report class.  :func:`run_campaign` does the rest
once for all of them: it wraps the points in a
:class:`~repro.service.job.Job` (journaled via ``store``, cached via
``cache``, open to remote workers via ``listen``), cancels cooperatively
on the first failing point when ``fail_fast`` is set, and builds the
report.  :func:`run_job` is the same tail for a job that already exists
(``repro jobs resume``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, ClassVar, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Type, TypeVar, Union)

from repro.config import SystemConfig
from repro.runtime.cache import ResultCache
from repro.runtime.experiment import Experiment
from repro.runtime.record import RunRecord
from repro.runtime.sweep import Sweep
from repro.service.job import Job, Progress
from repro.service.store import JobStore

__all__ = ["CampaignReport", "WorkloadReport", "run_campaign", "run_job"]

R = TypeVar("R", bound="CampaignReport")


@dataclass
class CampaignReport:
    """A campaign's records (in point order) plus failure rollups."""

    records: List[RunRecord] = field(default_factory=list)
    #: ``{"hits", "misses"}`` of the campaign's ResultCache, or ``None``
    #: when the campaign ran uncached.
    cache_stats: Optional[Dict[str, int]] = None

    #: The boolean metric that says whether a point passed.
    ok_key: ClassVar[str] = "ok"

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> List[RunRecord]:
        return [r for r in self.records if not r.metrics[self.ok_key]]

    @property
    def ok(self) -> bool:
        return not self.failures


class WorkloadReport(CampaignReport):
    """A report over seeded cases of named workloads."""

    def by_workload(self) -> Dict[str, Tuple[int, int]]:
        """``workload -> (passed, total)``."""
        out: Dict[str, Tuple[int, int]] = {}
        for r in self.records:
            w = r.metrics["workload"]
            passed, total = out.get(w, (0, 0))
            out[w] = (passed + (1 if r.metrics[self.ok_key] else 0), total + 1)
        return out


def run_campaign(experiment: Experiment,
                 points: Sequence[Mapping[str, Any]], *,
                 report: Type[R], config: Optional[SystemConfig] = None,
                 jobs: int = 1,
                 cache: Union[ResultCache, str, Path, None] = None,
                 store: Union[JobStore, str, Path, None] = None,
                 progress: Optional[Progress] = None,
                 listen: Any = None, fail_fast: bool = False) -> R:
    """Run ``points`` of ``experiment`` as one job; returns a ``report``.

    ``cache`` is a :class:`~repro.runtime.cache.ResultCache` or its root
    path; ``store`` a :class:`~repro.service.store.JobStore` or its root
    (journaled: a killed campaign resumes re-running only its holes).
    ``progress`` receives one :class:`~repro.service.job.PointDone` per
    resolved point.  See :func:`run_job` for ``jobs``, ``listen`` and
    ``fail_fast``.
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    job = Job.from_sweep(Sweep(experiment, points=points), config=config,
                         cache=cache, store=store)
    return run_job(job, report=report, jobs=jobs, progress=progress,
                   listen=listen, fail_fast=fail_fast)


def run_job(job: Job, *, report: Type[R], jobs: int = 1,
            progress: Optional[Progress] = None, listen: Any = None,
            fail_fast: bool = False) -> R:
    """Run ``job`` on ``jobs`` local workers; returns a ``report`` of the
    points that resolved.

    ``listen`` (a port, ``"host:port"`` or ``(host, port)``) opens the
    job to remote workers and prints how to join.  With ``fail_fast`` the
    first point whose ``report.ok_key`` metric is false cancels the job
    cooperatively: no new points are dispatched and in-flight points
    still finish, so parallel results stay deterministic.
    """
    if listen is not None:
        host, port = job.listen(listen)
        print(f"job {job.id} listening on {host}:{port} -- join with: "
              f"python -m repro worker serve --connect {host}:{port}",
              flush=True)

    def on_point(event) -> None:
        if progress is not None:
            progress(event)
        if fail_fast and not event.record.metrics[report.ok_key]:
            job.cancel()

    records = job.run(jobs=jobs, progress=on_point)
    return report(records=[r for r in records if r is not None],
                  cache_stats=job.cache.stats() if job.cache is not None
                  else None)
