"""On-disk job persistence: spec, status, and the completion journal.

Layout (one directory per job under the store root)::

    .repro-jobs/
      <job-id>/
        spec.json       # the JobSpec, payload included (atomic write)
        meta.json       # {"status", "total", "done", "experiment"} (atomic)
        journal.jsonl   # one line per completed point, append-only

The journal is the resume contract: each line is
``{"index": <point index>, "record": <RunRecord JSON>}``, appended with
flush + fsync *after* the point's record exists.  A job killed at any
instant therefore loses at most the in-flight points; on resume,
:meth:`JobStore.completed` replays the journal (tolerating a torn final
line -- the kill may have landed mid-append) and only the holes re-run.
Spec and meta writes go through the same atomic temp-file + ``os.replace``
idiom as :class:`~repro.runtime.cache.ResultCache`.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.runtime.cache import atomic_write
from repro.runtime.record import RunRecord, canonical_json
from repro.service.spec import JobSpec

__all__ = ["JobStore", "default_jobs_dir"]

#: Environment override for the job store location.
JOBS_DIR_ENV = "REPRO_JOBS_DIR"
#: Default directory name, created under the current working directory.
JOBS_DIR_NAME = ".repro-jobs"


def default_jobs_dir() -> Path:
    env = os.environ.get(JOBS_DIR_ENV)
    return Path(env) if env else Path.cwd() / JOBS_DIR_NAME


class JobStore:
    """Directory of journaled jobs; every mutation is crash-safe."""

    def __init__(self, root: Union[str, Path, None] = None):
        self.root = Path(root) if root is not None else default_jobs_dir()

    # ------------------------------------------------------------------ paths
    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def _journal_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "journal.jsonl"

    # ------------------------------------------------------------------- spec
    def create(self, spec: JobSpec) -> str:
        """Persist ``spec`` (idempotent: an existing spec for the same
        content-addressed id is left untouched, so resubmitting a
        campaign resumes it)."""
        job_id = spec.job_id()
        spec_path = self.job_dir(job_id) / "spec.json"
        if not spec_path.exists():
            atomic_write(spec_path, spec.to_json())
        return job_id

    def load(self, job_id: str) -> JobSpec:
        spec_path = self.job_dir(job_id) / "spec.json"
        try:
            text = spec_path.read_text()
        except OSError:
            raise KeyError(f"no job {job_id!r} in store {self.root}") from None
        return JobSpec.from_json(text)

    def jobs(self) -> List[str]:
        """All stored job ids, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(d.name for d in self.root.iterdir()
                      if (d / "spec.json").is_file())

    # ------------------------------------------------------------------- meta
    def meta(self, job_id: str) -> Dict[str, Any]:
        path = self.job_dir(job_id) / "meta.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return {}

    def set_meta(self, job_id: str, **fields: Any) -> None:
        meta = self.meta(job_id)
        meta.update(fields)
        atomic_write(self.job_dir(job_id) / "meta.json",
                      canonical_json(meta))

    # ---------------------------------------------------------------- journal
    def append_point(self, job_id: str, index: int, record: RunRecord) -> None:
        """Journal one completed point (flush + fsync: a kill after this
        returns can never lose the completion)."""
        line = canonical_json({"index": index,
                               "record": json.loads(record.to_json())})
        path = self._journal_path(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def completed(self, job_id: str) -> Dict[int, RunRecord]:
        """Replay the journal: ``point index -> record``.

        A torn trailing line (the writer died mid-append) or any
        otherwise-corrupt line is skipped -- that point simply re-runs.
        """
        path = self._journal_path(job_id)
        out: Dict[int, RunRecord] = {}
        try:
            lines = path.read_text().splitlines()
        except OSError:
            return out
        for line in lines:
            try:
                doc = json.loads(line)
                out[int(doc["index"])] = RunRecord.from_json(
                    canonical_json(doc["record"]))
            except (ValueError, KeyError, TypeError):
                continue
        return out

    # ----------------------------------------------------------------- cancel
    def _cancel_marker(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "cancel.requested"

    def request_cancel(self, job_id: str) -> str:
        """Journal a cancel request; returns the job's new status.

        Drops an atomic ``cancel.requested`` marker the running process
        polls (cooperative: in-flight points finish).  A ``running`` job
        becomes ``cancelling``; a finished (``done``/``failed``) job is
        left untouched; anything else -- queued, preempted, or not
        running at all -- is marked ``cancelled`` outright, so a resume
        won't restart it by accident.
        """
        self.load(job_id)  # KeyError for unknown jobs
        atomic_write(self._cancel_marker(job_id), "")
        status = self.meta(job_id).get("status")
        if status == "running":
            status = "cancelling"
            self.set_meta(job_id, status=status)
        elif status not in ("done", "failed", "cancelled"):
            status = "cancelled"
            self.set_meta(job_id, status=status)
        return status or "cancelled"

    def cancel_requested(self, job_id: str) -> bool:
        return self._cancel_marker(job_id).exists()

    def clear_cancel(self, job_id: str) -> None:
        try:
            self._cancel_marker(job_id).unlink()
        except OSError:
            pass

    # ------------------------------------------------------------- lifecycle
    def discard(self, job_id: str) -> bool:
        """Delete a job's directory and everything under it (including
        subdirectories older releases left there); returns whether
        anything existed."""
        d = self.job_dir(job_id)
        if not d.is_dir():
            return False
        shutil.rmtree(d)
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JobStore {self.root} jobs={len(self.jobs())}>"


def _maybe_store(store: Union[str, Path, "JobStore", None]) -> Optional[JobStore]:
    """Coerce a store argument: JobStore passes through, paths wrap."""
    if store is None or isinstance(store, JobStore):
        return store
    return JobStore(store)
