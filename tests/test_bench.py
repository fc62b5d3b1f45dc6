"""The repro.bench harness and the ``repro bench`` CLI."""

import json

import pytest

from repro.bench import (
    DEFAULT_REPORT_PATH,
    REFERENCE_S,
    WORKLOADS,
    BenchReport,
    WorkloadResult,
    compare_to_baseline,
    reference_seconds,
    run_bench,
)
from repro.bench.harness import SCHEMA_VERSION
from repro.bench.workloads import engine_stress


class TestWorkloads:
    def test_registry_names(self):
        assert set(WORKLOADS) == {"engine", "microbench", "jacobi",
                                  "allreduce", "transport"}

    def test_engine_stress_counts_callbacks(self):
        events = engine_stress(n_rounds=2_000)
        assert events >= 2_000

    @pytest.mark.parametrize("name", ["microbench", "jacobi", "allreduce",
                                      "transport"])
    def test_system_workloads_return_events(self, name):
        assert WORKLOADS[name]() > 0


def _result(name, events, walls, refs):
    return WorkloadResult(name=name, events=events, best_wall_s=min(walls),
                          wall_s=list(walls), ref_s=list(refs))


def _baseline(**best_corrected_s):
    return {"workloads": {name: {"best_corrected_s": s, "events": 1000,
                                 "events_per_sec": 1000 / s}
                          for name, s in best_corrected_s.items()}}


class TestGate:
    """``compare_to_baseline`` gates on best wall time at reference host
    speed, not on events/sec."""

    def test_reference_work_is_timed(self):
        assert reference_seconds() > 0

    def test_corrected_time_scales_by_bracketing_references(self):
        r = _result("engine", 1000, [0.4, 0.3], [0.2, 0.2, 0.1])
        # Run 0 ran at half the reference speed, run 1 between the two.
        assert r.corrected_wall_s == pytest.approx(
            [0.4 * REFERENCE_S / 0.2, 0.3 * REFERENCE_S / 0.15])
        assert r.best_corrected_s == min(r.corrected_wall_s)

    def test_slow_host_is_not_a_regression(self):
        # Twice the baseline's wall time on a host that runs the
        # reference twice as slowly: the same speed.
        report = BenchReport(repeat=1, results=[
            _result("engine", 1000, [0.4], [2 * REFERENCE_S] * 2)])
        assert compare_to_baseline(report, _baseline(engine=0.2)) == []

    def test_fewer_events_in_less_time_is_not_a_regression(self):
        # The rate falls (600 ev in 0.15 s < 1000 ev in 0.2 s) while the
        # workload got faster.
        report = BenchReport(repeat=1, results=[
            _result("transport", 600, [0.15], [REFERENCE_S] * 2)])
        assert compare_to_baseline(report, _baseline(transport=0.2)) == []

    def test_slowdown_beyond_max_drop_fails(self):
        report = BenchReport(repeat=1, results=[
            _result("engine", 1000, [0.3], [REFERENCE_S] * 2),
            _result("jacobi", 1000, [0.24], [REFERENCE_S] * 2)])
        failures = compare_to_baseline(
            report, _baseline(engine=0.2, jacobi=0.2), max_drop=0.20)
        # engine: speed fell by a third; jacobi: by 1/6, within 20%.
        assert len(failures) == 1 and failures[0].startswith("engine:")

    def test_baselines_without_corrected_times_are_ignored(self):
        report = BenchReport(repeat=1, results=[
            _result("engine", 1000, [9.0], [REFERENCE_S] * 2),
            _result("jacobi", 1000, [9.0], [])])
        old = {"workloads": {"engine": {"events_per_sec": 1e9}}}
        assert compare_to_baseline(report, old) == []
        assert compare_to_baseline(report, _baseline(jacobi=0.1)) == []

    def test_bad_max_drop_rejected(self):
        with pytest.raises(ValueError):
            compare_to_baseline(BenchReport(repeat=1), {}, max_drop=1.5)


class TestHarness:
    def test_report_schema(self, monkeypatch):
        monkeypatch.setitem(WORKLOADS, "engine",
                            lambda: engine_stress(n_rounds=2_000))
        report = run_bench(workloads=["engine"], repeat=2, quiet=True)
        doc = report.to_dict()
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["repeat"] == 2
        wl = doc["workloads"]["engine"]
        assert wl["events"] > 0
        assert wl["events_per_sec"] > 0
        assert len(wl["wall_s"]) == 2
        assert wl["best_wall_s"] == min(wl["wall_s"])
        # Each run is bracketed by the host-speed reference.
        assert len(wl["ref_s"]) == 3 and min(wl["ref_s"]) > 0
        assert wl["best_corrected_s"] > 0
        # A millisecond workload is timed over many calls per run.
        assert wl["loops"] > 1

    def test_peak_rss_reported_on_linux(self, monkeypatch):
        monkeypatch.setitem(WORKLOADS, "engine",
                            lambda: engine_stress(n_rounds=500))
        report = run_bench(workloads=["engine"], repeat=1, quiet=True)
        assert report.peak_rss_kb is None or report.peak_rss_kb > 0

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_bench(workloads=["nope"], repeat=1, quiet=True)

    def test_bad_repeat_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            run_bench(workloads=["engine"], repeat=0, quiet=True)

    def test_write_round_trips(self, tmp_path, monkeypatch):
        monkeypatch.setitem(WORKLOADS, "engine",
                            lambda: engine_stress(n_rounds=500))
        report = run_bench(workloads=["engine"], repeat=1, quiet=True)
        path = report.write(str(tmp_path / "bench.json"))
        doc = json.loads(open(path).read())
        assert doc == json.loads(json.dumps(report.to_dict()))


class TestCli:
    def test_bench_subcommand_writes_default_path(self, tmp_path,
                                                  monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(WORKLOADS, "engine",
                            lambda: engine_stress(n_rounds=500))
        rc = main(["bench", "--repeat", "1", "--workloads", "engine",
                   "--json"])
        assert rc == 0
        doc = json.loads((tmp_path / DEFAULT_REPORT_PATH).read_text())
        assert doc["workloads"]["engine"]["events_per_sec"] > 0
        out = capsys.readouterr().out
        assert "engine" in out and DEFAULT_REPORT_PATH in out

    def test_bench_subcommand_explicit_path(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setitem(WORKLOADS, "engine",
                            lambda: engine_stress(n_rounds=500))
        target = tmp_path / "custom.json"
        rc = main(["bench", "--repeat", "1", "--workloads", "engine",
                   "--json", str(target)])
        assert rc == 0
        assert json.loads(target.read_text())["repeat"] == 1

    def test_bench_rejects_bad_repeat(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["bench", "--repeat", "0"])
