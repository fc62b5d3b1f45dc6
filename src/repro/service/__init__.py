"""Sweep-as-a-service: the job/queue/worker execution layer.

The experiment runtime's answer to GICC-style host proxy/queue runtimes,
one level up: a persistent service shape for *campaigns*.  Submit a
sweep -> get a content-addressed job id -> stream per-point completions
-> kill it any time -> resume from the journal, re-running only the
points that never finished.

* :class:`~repro.service.spec.JobSpec` -- what a job is (runner, points,
  config fingerprint); its digest is the job id;
* :class:`~repro.service.store.JobStore` -- on-disk spec + status + an
  append-only completion journal (crash-safe: fsync'd lines, torn tail
  tolerated);
* :class:`~repro.service.queue.WorkQueue` -- one bounded-window
  dispatcher over forked local workers *and* TCP-connected remote
  workers, with exactly-once reissue of a dead worker's in-flight
  points;
* :mod:`repro.service.remote` -- the framed remote-worker protocol
  (DESIGN.md §13): :class:`~repro.service.remote.RemoteDispatcher` on
  the submitting side, :func:`~repro.service.remote.serve_worker` behind
  ``python -m repro worker serve`` on any machine that wants to help;
* :class:`~repro.service.job.Job` -- the client handle: ``run`` /
  ``stream`` / ``cancel`` / ``listen``, cooperative SIGINT/SIGTERM
  preemption (:class:`~repro.service.job.JobPreempted`), journal +
  cache + execute resolution in point order.  The submitting process
  journals and caches every executed record; workers only compute;
* :func:`~repro.service.campaign.run_campaign` -- the one campaign
  driver: a study's experiment, points and report class in, a
  :class:`~repro.service.campaign.CampaignReport` out.

``Sweep.run``, the validate/faults/topo/congestion campaign drivers and
``repro bench`` are all thin clients of this layer; records stay
byte-identical to the pre-service serial paths -- and to local-only runs
when remote workers join.
"""

from repro.service.campaign import (CampaignReport, WorkloadReport,
                                    run_campaign, run_job)
from repro.service.job import Job, JobPreempted, PointDone
from repro.service.queue import WorkQueue
from repro.service.remote import (HandshakeRejected, RemoteDispatcher,
                                  serve_worker)
from repro.service.runners import (BenchRunner, SweepRunner, get_runner,
                                   register_runner)
from repro.service.spec import JobSpec
from repro.service.store import JobStore, default_jobs_dir

__all__ = [
    "BenchRunner",
    "CampaignReport",
    "HandshakeRejected",
    "Job",
    "JobPreempted",
    "JobSpec",
    "JobStore",
    "PointDone",
    "RemoteDispatcher",
    "SweepRunner",
    "WorkQueue",
    "WorkloadReport",
    "default_jobs_dir",
    "get_runner",
    "register_runner",
    "run_campaign",
    "run_job",
    "serve_worker",
]
