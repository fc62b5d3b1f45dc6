"""The service layer: specs, stores, jobs -- and the kill/resume contract.

The acceptance properties of DESIGN.md §11: job ids are content
addressed (resubmit == resume), the journal makes completed points free
on resume, cooperative preemption (cancel or SIGINT/SIGTERM) never loses
a completed point, and records coming out of the service path are
byte-identical to a plain serial sweep.
"""

import os
import pickle
import signal
import subprocess
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.collectives import AllreduceExperiment
from repro.config import default_config
from repro.runtime import Sweep
from repro.runtime.record import RunRecord, config_fingerprint
from repro.service import Job, JobPreempted, JobSpec, JobStore

SRC = str(Path(__file__).resolve().parent.parent / "src")
HELPER = str(Path(__file__).resolve().parent / "_service_workload.py")


def _sweep() -> Sweep:
    return Sweep(AllreduceExperiment(),
                 grid={"strategy": ["cpu", "gputn"], "n_nodes": [2, 3]},
                 base={"nbytes": 16 * 1024})


def _spec(**over) -> JobSpec:
    fields = dict(runner="bench", experiment="bench",
                  points=({"workload": "engine", "repeat": 1},
                          {"workload": "jacobi", "repeat": 1}),
                  config_fingerprint="bench", payload=b"")
    fields.update(over)
    return JobSpec(**fields)


def _record(index: int) -> RunRecord:
    return RunRecord(experiment="svc", params={"i": index},
                     config_fingerprint="cafebabe00000000",
                     metrics={"value": index * 10})


class TestJobSpec:
    def test_id_is_content_addressed(self):
        assert _spec().job_id() == _spec().job_id()
        assert len(_spec().job_id()) == 12

    def test_id_tracks_the_work(self):
        base = _spec().job_id()
        assert _spec(points=({"workload": "engine", "repeat": 2},)
                     ).job_id() != base
        assert _spec(experiment="other").job_id() != base
        assert _spec(config_fingerprint="deadbeef").job_id() != base

    def test_id_ignores_cache_location_and_payload(self):
        # Same campaign pointed at a different cache, or re-pickled, is
        # still the same work -- resubmission must find the old journal.
        base = _spec().job_id()
        assert _spec(cache_root="/elsewhere").job_id() == base
        assert _spec(payload=b"different-pickle").job_id() == base

    def test_round_trips_through_json(self):
        spec = _spec(payload=b"\x00\x01binary")
        again = JobSpec.from_json(spec.to_json())
        assert again == spec
        assert again.job_id() == spec.job_id()

    def test_unmaterialized_payload_cannot_persist(self):
        with pytest.raises(ValueError, match="payload"):
            _spec(payload=None).to_json()

    def test_unknown_format_rejected(self):
        doc = _spec().to_json().replace('"format":1', '"format":99')
        with pytest.raises(ValueError, match="format"):
            JobSpec.from_json(doc)


class TestJobStore:
    def test_create_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create(_spec())
        original = (tmp_path / job_id / "spec.json").read_bytes()
        # Resubmission with a different (non-identity) payload must not
        # clobber the stored spec -- the journal belongs to the original.
        assert store.create(_spec(payload=b"other")) == job_id
        assert (tmp_path / job_id / "spec.json").read_bytes() == original

    def test_load_missing_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError, match="no job"):
            JobStore(tmp_path).load("doesnotexist")

    def test_journal_round_trip_skips_torn_tail(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = store.create(_spec())
        store.append_point(job_id, 0, _record(0))
        store.append_point(job_id, 3, _record(3))
        journal = tmp_path / job_id / "journal.jsonl"
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write('{"index": 5, "record": {"exp')  # killed mid-append
        done = store.completed(job_id)
        assert sorted(done) == [0, 3]
        assert done[3].metrics == {"value": 30}

    def test_meta_merges(self, tmp_path):
        store = JobStore(tmp_path)
        store.set_meta("j1", status="running", total=8)
        store.set_meta("j1", status="done", done=8)
        assert store.meta("j1") == {"status": "done", "total": 8, "done": 8}

    def test_jobs_listed_sorted_and_discardable(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.create(_spec())
        b = store.create(_spec(experiment="other"))
        assert store.jobs() == sorted([a, b])
        assert store.discard(a) is True
        assert store.discard(a) is False
        assert store.jobs() == [b]


class TestJobLifecycle:
    def test_stream_yields_every_point_in_resolve_order(self):
        job = Job.from_sweep(_sweep())
        events = list(job.stream())
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert {e.source for e in events} == {"run"}
        serial = [r.to_json() for r in _sweep().run()]
        by_index = [e.record.to_json()
                    for e in sorted(events, key=lambda e: e.index)]
        assert by_index == serial

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            Job.from_sweep(_sweep()).run(jobs=0)

    def test_cancel_leaves_none_holes_and_resume_completes(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sweep(), store=store)

        def stop_after_two(event) -> None:
            if event.done == 2:
                job.cancel()

        partial = job.run(progress=stop_after_two)
        assert partial[:2] != [None, None] and partial[2:] == [None, None]
        assert job.status()["status"] == "cancelled"
        assert job.stats == {"journal": 0, "cache": 0, "run": 2}

        # Resubmitting the identical campaign resumes: same id, the two
        # journaled points replay, only the holes execute.
        again = Job.from_sweep(_sweep(), store=store)
        assert again.id == job.id
        records = again.run()
        assert again.stats == {"journal": 2, "cache": 0, "run": 2}
        assert again.status()["status"] == "done"
        serial = [r.to_json() for r in _sweep().run()]
        assert [r.to_json() for r in records] == serial

    def test_load_rehydrates_from_disk_alone(self, tmp_path):
        store = JobStore(tmp_path)
        submitted = Job.from_sweep(_sweep(), store=store)
        submitted.run()
        # A fresh process would hold no live objects -- only the store.
        resumed = Job.load(store, submitted.id)
        records = resumed.run()
        assert resumed.stats["journal"] == 4 and resumed.stats["run"] == 0
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in _sweep().run()])

    def test_sigterm_preempts_and_resume_finishes(self, tmp_path):
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sweep(), store=store)

        def kill_after_two(event) -> None:
            if event.done == 2:
                os.kill(os.getpid(), signal.SIGTERM)

        with pytest.raises(JobPreempted) as caught:
            job.run(progress=kill_after_two)
        assert caught.value.job_id == job.id
        assert caught.value.done == 2
        assert job.status()["status"] == "preempted"
        assert len(store.completed(job.id)) == 2

        resumed = Job.load(store, job.id)
        records = resumed.run()
        assert resumed.stats == {"journal": 2, "cache": 0, "run": 2}
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in _sweep().run()])

    def test_old_job_dir_with_checkpoints_subdir(self, tmp_path):
        # Older releases could leave a checkpoints/ subdirectory in a
        # job that was cancelled, preempted or failed.  Such a job still
        # resumes from its journal, and discard removes all of it.
        store = JobStore(tmp_path)
        job = Job.from_sweep(_sweep(), store=store)
        job.run(progress=lambda event: event.done == 2 and job.cancel())
        stray = store.job_dir(job.id) / "checkpoints"
        stray.mkdir()
        (stray / "stale.ckpt").write_bytes(b"stale snapshot")

        resumed = Job.load(store, job.id)
        records = resumed.run()
        assert resumed.stats == {"journal": 2, "cache": 0, "run": 2}
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in _sweep().run()])

        assert store.discard(job.id) is True
        assert not store.job_dir(job.id).exists()
        assert store.jobs() == []

    def test_payload_with_removed_checkpoint_config_loads(self, monkeypatch):
        # Jobs submitted with a checkpoint interval by older releases
        # pickled the removed checkpoint package's policy object as the
        # payload's fourth element; that module no longer exists.
        module = types.ModuleType(".".join(("repro", "checkpoint", "config")))

        @dataclass(frozen=True)
        class Policy:
            directory: str
            interval_ns: int

        Policy.__module__ = module.__name__
        Policy.__qualname__ = "Policy"
        module.Policy = Policy
        monkeypatch.setitem(sys.modules, module.__name__, module)
        sweep, config = _sweep(), default_config()
        payload = pickle.dumps((sweep.experiment, config, None,
                                Policy("checkpoints", 1000)))
        monkeypatch.delitem(sys.modules, module.__name__)
        with pytest.raises(ImportError):
            pickle.loads(payload)

        spec = JobSpec(runner="sweep", experiment=sweep.experiment.name,
                       points=tuple(sweep.sweep_points()),
                       config_fingerprint=config_fingerprint(config),
                       payload=payload)
        records = Job(spec).run()
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in _sweep().run()])

    def test_signal_disposition_restored_after_run(self, tmp_path):
        before = (signal.getsignal(signal.SIGINT),
                  signal.getsignal(signal.SIGTERM))
        Job.from_sweep(_sweep(), store=JobStore(tmp_path)).run()
        assert (signal.getsignal(signal.SIGINT),
                signal.getsignal(signal.SIGTERM)) == before


class TestKillResume:
    """A real process killed mid-campaign resumes from its journal."""

    def _launch(self, tmp_path, seeds=12, delay=0.05):
        return subprocess.Popen(
            [sys.executable, HELPER, str(tmp_path / "jobs"), str(seeds),
             str(delay)],
            stdout=subprocess.PIPE, text=True, bufsize=1,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})

    def _wait_for_cases(self, proc, n) -> None:
        seen = 0
        for line in proc.stdout:
            if line.startswith("case "):
                seen += 1
                if seen >= n:
                    return
        pytest.fail(f"helper exited after {seen} cases, wanted {n}")

    @pytest.mark.parametrize("sig,expect_rc", [
        (signal.SIGTERM, 130),   # cooperative: handler marks preempted
        (signal.SIGKILL, -9),    # hard kill: journal alone must suffice
    ])
    def test_kill_then_resume_reruns_only_holes(self, tmp_path, sig,
                                                expect_rc):
        seeds = 12
        proc = self._launch(tmp_path, seeds=seeds)
        try:
            self._wait_for_cases(proc, 3)
            proc.send_signal(sig)
            rc = proc.wait(timeout=60)
        finally:
            proc.stdout.close()
            proc.kill()
        assert rc == expect_rc

        store = JobStore(tmp_path / "jobs")
        (job_id,) = store.jobs()
        journaled = len(store.completed(job_id))
        assert 0 < journaled < seeds, "signal must land mid-campaign"

        resumed = Job.load(store, job_id)
        records = resumed.run()
        assert resumed.stats["journal"] == journaled
        assert resumed.stats["run"] == seeds - journaled
        assert resumed.status()["status"] == "done"

        from repro.validate import run_campaign
        serial = run_campaign(workloads=["microbench"], seeds=seeds)
        assert ([r.to_json() for r in records]
                == [r.to_json() for r in serial.records])


# ------------------------------------------------------------ drainer stop
class _EchoRunner:
    """A runner whose points cost nothing: a record of the point."""

    name = "test-echo"

    @staticmethod
    def init(payload):
        return None

    @staticmethod
    def run(state, index, point):
        return RunRecord(experiment="echo", params=dict(point),
                         config_fingerprint="echo", metrics={"i": index}), "run"


class TestDrainerStop:
    def test_dispatch_end_waits_out_no_poll(self, monkeypatch):
        """The drainer thread must stop as soon as the dispatch ends, not
        after its ``get`` timeout expires: after the last result, no
        ``get`` on the workers' result queue may time out."""
        import multiprocessing
        import multiprocessing.queues
        import queue as queue_mod

        from repro.service import queue as wq
        from repro.service import runners

        made = []

        class CountingQueue(multiprocessing.queues.Queue):
            def __init__(self, maxsize=0):
                super().__init__(maxsize, ctx=multiprocessing.get_context())
                self.log = []
                made.append(self)

            def get(self, block=True, timeout=None):
                try:
                    item = super().get(block, timeout)
                except queue_mod.Empty:
                    self.log.append("empty")
                    raise
                self.log.append("item" if item is not None else "sentinel")
                return item

        monkeypatch.setitem(runners._RUNNERS, _EchoRunner.name, _EchoRunner)
        monkeypatch.setattr(multiprocessing, "Queue", CountingQueue)
        points = [{"k": i} for i in range(6)]
        done = []
        wq.WorkQueue(_EchoRunner, None, _EchoRunner.name, b"", jobs=2).execute(
            range(len(points)), points,
            on_done=lambda i, rec, src: done.append(i),
            should_stop=lambda: False)
        assert sorted(done) == list(range(6))
        (mp_results,) = made
        log = mp_results.log
        last = max(i for i, what in enumerate(log) if what == "item")
        assert log[last + 1:].count("empty") == 0, log
        assert log[-1] == "sentinel", log
