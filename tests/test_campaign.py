"""The one campaign driver and the one study CLI.

``repro.service.run_campaign`` runs every study campaign: fail-fast by
the report class's ok key, parent-side cache puts, and a report built
once.  ``repro jobs resume`` finds a job's study by its experiment and
prints the same report, JSON file and exit code as ``jobs submit``.
"""

import json
import pickle
import time

import pytest

from repro.__main__ import _STUDIES, main
from repro.apps.congestion import CongestionExperiment, CongestionReport
from repro.apps.topo_scale import TopoScaleReport
from repro.collectives.engine import CollectiveExperiment
from repro.config import default_config
from repro.faults.campaign import FaultsExperiment
from repro.runtime import Experiment, ResultCache, Sweep
from repro.runtime.record import RunRecord, config_fingerprint
from repro.service import Job, JobSpec, JobStore, run_campaign
from repro.validate.fuzz import ValidateExperiment


class ThirdPointFails(Experiment):
    """Point ``i`` takes ``delay_s`` and passes unless ``i == 2``; the
    verdict lands under ``ok_key``."""

    name = "third-point-fails"

    def __init__(self, ok_key):
        self.ok_key = ok_key

    def run(self, params=None, config=None, trace=None, *, observers=None):
        p, _, config_fp = self.resolve_point(params, config)
        time.sleep(p["delay_s"])
        return RunRecord(experiment=self.name, params=p,
                         config_fingerprint=config_fp,
                         metrics={self.ok_key: p["i"] != 2})


def _points(n, delay_s=0.0):
    return [{"i": i, "delay_s": delay_s} for i in range(n)]


class CountingCache(ResultCache):
    """A result cache that lists the key of every record it stores."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = []

    def put(self, record):
        self.puts.append(record.cache_key())
        return super().put(record)


# ------------------------------------------------------------ fail-fast
@pytest.mark.parametrize("report", [CongestionReport, TopoScaleReport],
                         ids=lambda cls: cls.ok_key)
class TestFailFast:
    def test_inline_stops_at_the_failing_point(self, report):
        out = run_campaign(ThirdPointFails(report.ok_key), _points(6),
                           report=report, fail_fast=True)
        assert [r.params["i"] for r in out.records] == [0, 1, 2]
        assert [r.params["i"] for r in out.failures] == [2]
        assert not out.ok

    def test_parallel_finishes_in_flight_points_only(self, report):
        n = 12
        out = run_campaign(ThirdPointFails(report.ok_key),
                           _points(n, delay_s=0.05), report=report,
                           jobs=2, fail_fast=True)
        indices = [r.params["i"] for r in out.records]
        # Dispatch is in point order and in-flight points finish, so the
        # records are a prefix; dispatch stopped, so it is a short one.
        assert indices == list(range(len(indices)))
        assert 3 <= len(indices) < n
        assert [r.params["i"] for r in out.failures] == [2]

    def test_without_fail_fast_every_point_runs(self, report):
        out = run_campaign(ThirdPointFails(report.ok_key), _points(5),
                           report=report)
        assert out.total == 5
        assert [r.params["i"] for r in out.failures] == [2]
        assert out.cache_stats is None


# ---------------------------------------------------------- parent puts
class TestParentCachePuts:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_executed_record_is_put_once(self, tmp_path, jobs):
        cache = CountingCache(tmp_path)
        out = run_campaign(ThirdPointFails("ok"), _points(4),
                           report=CongestionReport, jobs=jobs, cache=cache)
        assert sorted(cache.puts) == sorted(r.cache_key()
                                            for r in out.records)
        assert len(cache.puts) == len(set(cache.puts)) == 4
        assert out.cache_stats == {"hits": 0, "misses": 4}

        again = CountingCache(tmp_path)
        warm = run_campaign(ThirdPointFails("ok"), _points(4),
                            report=CongestionReport, jobs=jobs, cache=again)
        assert again.puts == []
        assert warm.cache_stats == {"hits": 4, "misses": 0}
        assert ([r.to_json() for r in warm.records]
                == [r.to_json() for r in out.records])

    def test_cache_path_is_accepted(self, tmp_path):
        out = run_campaign(ThirdPointFails("ok"), _points(2),
                           report=CongestionReport, cache=tmp_path / "c")
        assert out.cache_stats == {"hits": 0, "misses": 2}
        assert len(ResultCache(tmp_path / "c")) == 2

    @pytest.mark.parametrize("extra", [(), (None,)], ids=["3-tuple",
                                                         "4-tuple"])
    def test_resumed_job_keeps_its_payload_cache(self, tmp_path, extra):
        experiment, config = ThirdPointFails("ok"), default_config()
        payload = pickle.dumps((experiment, config,
                                str(tmp_path / "cache"), *extra))
        points = _points(4)
        spec = JobSpec(runner="sweep", experiment=experiment.name,
                       points=tuple(Sweep(experiment, points=points)
                                    .sweep_points()),
                       config_fingerprint=config_fingerprint(config),
                       payload=payload)
        store = JobStore(tmp_path / "jobs")
        store.create(spec)
        job = Job.load(store, spec.job_id())
        assert job.cache.root == tmp_path / "cache"
        records = job.run()
        assert len(ResultCache(tmp_path / "cache")) == 4
        assert ([r.to_json() for r in records]
                == [experiment.run(p).to_json() for p in points])


# ---------------------------------------------------------------- CLI
TOPO_ARGS = ["--topologies", "fat-tree", "--schedules", "ring",
             "--strategies", "gputn", "gds", "--nodes", "8",
             "--nbytes", "8192"]


def _only_job(store_dir):
    (job_id,) = JobStore(store_dir).jobs()
    return job_id


class TestStudyCli:
    def test_registry_names_each_studys_experiment(self):
        experiments = {"validate": ValidateExperiment,
                       "faults": FaultsExperiment,
                       "topo": CollectiveExperiment,
                       "congestion": CongestionExperiment}
        assert {name: study.experiment for name, study in _STUDIES.items()} \
            == {name: cls.name for name, cls in experiments.items()}

    def test_resume_renders_the_submit_report(self, tmp_path, capsys):
        store = str(tmp_path / "jobs")
        submitted = tmp_path / "submit.json"
        assert main(["jobs", "submit", "topo", "--store", store, *TOPO_ARGS,
                     "--json", str(submitted)]) == 0
        submit_out = capsys.readouterr().out
        resumed = tmp_path / "resume.json"
        assert main(["jobs", "resume", _only_job(store), "--store", store,
                     "--json", str(resumed)]) == 0
        resume_out = capsys.readouterr().out
        assert resumed.read_bytes() == submitted.read_bytes()
        assert "2 journaled, 0 cached, 0 ran" in resume_out
        table = submit_out[submit_out.index("topology "):
                           submit_out.index("report written")]
        assert table in resume_out
        assert "2/2 points verified" in resume_out

    def test_failing_point_exits_1_on_submit_and_resume(self, tmp_path,
                                                        monkeypatch, capsys):
        finish = CollectiveExperiment.finish

        def diverge(self, cluster, ctx, params):
            metrics, raw = finish(self, cluster, ctx, params)
            return dict(metrics, correct=params["strategy"] != "gds"), raw

        monkeypatch.setattr(CollectiveExperiment, "finish", diverge)
        store = str(tmp_path / "jobs")
        assert main(["jobs", "submit", "topo", "--store", store,
                     *TOPO_ARGS]) == 1
        capsys.readouterr()
        report = tmp_path / "resume.json"
        assert main(["jobs", "resume", _only_job(store), "--store", store,
                     "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "FAIL fat-tree ring gds n=8" in out
        assert "1/2 points verified, 1 FAILED" in out
        assert json.loads(report.read_text())["ok"] is False

    def test_resume_of_a_plain_sweep_counts_points(self, tmp_path, capsys):
        store = JobStore(tmp_path)
        job = Job.from_sweep(Sweep(ThirdPointFails("ok"),
                                   points=_points(3)), store=store)
        job.run()
        capsys.readouterr()
        assert main(["jobs", "resume", job.id, "--store",
                     str(tmp_path)]) == 0
        assert "3/3 points complete" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["jobs", "resume", job.id, "--store", str(tmp_path),
                  "--json", str(tmp_path / "x.json")])
        assert exc.value.code == 2
