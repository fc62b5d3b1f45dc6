"""CLI smoke tests and Chrome trace-event export validation."""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.apps.microbench import MicrobenchExperiment
from repro.runtime import chrome_trace, export_chrome_trace

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


class TestCliSmoke:
    def test_fig8_tab1_jobs2(self, tmp_path):
        proc = _run_cli(["fig8", "tab1", "--jobs", "2"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "Figure 8" in proc.stdout
        assert "Table 1" in proc.stdout
        assert "latency decomposition" in proc.stdout
        assert "qualitative comparison" in proc.stdout

    def test_cached_rerun_identical(self, tmp_path):
        # fig1 is the cheapest sweeping exhibit: empty-kernel launches only.
        first = _run_cli(["fig1", "--jobs", "2"], cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        assert (tmp_path / ".repro-cache").is_dir()
        second = _run_cli(["fig1"], cwd=tmp_path)
        assert second.returncode == 0, second.stderr
        assert second.stdout == first.stdout

    def test_no_cache_flag_skips_cache_dir(self, tmp_path):
        proc = _run_cli(["fig1", "--no-cache"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert not (tmp_path / ".repro-cache").exists()

    def test_bad_jobs_rejected(self, tmp_path):
        proc = _run_cli(["tab1", "--jobs", "0"], cwd=tmp_path)
        assert proc.returncode != 0

    def test_jobs_submit_help_lists_the_studys_flags(self, tmp_path):
        proc = _run_cli(["jobs", "submit", "congestion", "--help"],
                        cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "jobs submit congestion" in proc.stdout
        for flag in ("--loads", "--disciplines", "--transports",
                     "--strategies", "--jobs", "--cache-dir", "--store"):
            assert flag in proc.stdout, flag
        assert not (tmp_path / ".repro-jobs").exists()

    def test_jobs_submit_help_without_a_study(self, tmp_path):
        proc = _run_cli(["jobs", "submit", "--help"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "--store" in proc.stdout and "congestion" in proc.stdout


class TestTraceExport:
    @pytest.fixture(scope="class")
    def trace_doc(self):
        execution = MicrobenchExperiment().execute({"strategy": "gputn"})
        return chrome_trace(execution.cluster.tracer)

    def test_required_keys(self, trace_doc):
        assert "traceEvents" in trace_doc
        for event in trace_doc["traceEvents"]:
            assert {"name", "ph", "pid", "tid"} <= set(event)
            if event["ph"] != "M":
                assert "ts" in event

    def test_ts_monotone(self, trace_doc):
        ts = [e["ts"] for e in trace_doc["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_matched_begin_end_pairs(self, trace_doc):
        begins = Counter((e["pid"], e["tid"], e["name"])
                         for e in trace_doc["traceEvents"] if e["ph"] == "B")
        ends = Counter((e["pid"], e["tid"], e["name"])
                       for e in trace_doc["traceEvents"] if e["ph"] == "E")
        assert begins and begins == ends

    def test_process_thread_metadata(self, trace_doc):
        meta = [e for e in trace_doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
        threads = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names == {"node0", "node1"}
        assert "gpu" in threads and "nic" in threads

    def test_file_export_is_valid_json(self, tmp_path):
        execution = MicrobenchExperiment().execute({"strategy": "hdn"})
        path = export_chrome_trace(execution.cluster.tracer,
                                   tmp_path / "out" / "t.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_cli_export_trace_flag(self, tmp_path):
        proc = _run_cli(["fig8", "--export-trace", "traces"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        files = sorted((tmp_path / "traces").glob("fig8-*.json"))
        assert [f.name for f in files] == [
            "fig8-cpu.json", "fig8-gds.json", "fig8-gputn.json",
            "fig8-hdn.json"]
        for f in files:
            doc = json.loads(f.read_text())
            real = [e for e in doc["traceEvents"] if e["ph"] != "M"]
            ts = [e["ts"] for e in real]
            assert ts == sorted(ts)
            begins = Counter((e["pid"], e["tid"], e["name"])
                             for e in real if e["ph"] == "B")
            ends = Counter((e["pid"], e["tid"], e["name"])
                           for e in real if e["ph"] == "E")
            assert begins == ends

    def test_tracer_convenience_method(self, tmp_path):
        execution = MicrobenchExperiment().execute({"strategy": "gds"})
        path = execution.cluster.tracer.export_chrome(tmp_path / "x.json")
        assert json.loads(Path(path).read_text())["traceEvents"]


class TestStatsCommand:
    def test_smoke_default_microbench(self, tmp_path):
        proc = _run_cli(["stats"], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "microbench (gputn)" in proc.stdout
        assert "sim.events" in proc.stdout
        assert "nic.message_latency_ns" in proc.stdout
        assert "cu_occupancy" in proc.stdout

    def test_json_schema_and_nonzero_counters(self, tmp_path):
        out = tmp_path / "stats.json"
        proc = _run_cli(["stats", "microbench", "degraded", "--json",
                         str(out)], cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert set(doc) == {"microbench", "degraded"}
        for workload, entry in doc.items():
            assert set(entry) == {"params", "metrics", "telemetry"}
            telemetry = entry["telemetry"]
            assert set(telemetry) <= {"counters", "gauges", "histograms",
                                      "series"}
            counters = telemetry["counters"]
            assert counters["sim.events"] > 0
            assert counters["fabric.link.node0->node1.bytes"] > 0
            latency = telemetry["histograms"]["nic.message_latency_ns"]
            assert latency["count"] > 0
            assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]
        # The degraded run must cross-check its app-level histogram
        # against the study's exact percentiles (within log2 rounding).
        deg = doc["degraded"]
        app = deg["telemetry"]["histograms"]["app.message_latency_ns"]
        exact_p50 = deg["metrics"]["p50_latency_ns"]
        assert exact_p50 / 2 <= app["p50"] <= exact_p50 * 2

    def test_export_trace_emits_counter_tracks(self, tmp_path):
        proc = _run_cli(["stats", "microbench", "--export-trace", "traces"],
                        cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        path = tmp_path / "traces" / "microbench-gputn.json"
        assert path.is_file()
        doc = json.loads(path.read_text())
        kinds = Counter(e["ph"] for e in doc["traceEvents"])
        assert kinds["C"] > 0 and kinds["B"] > 0

    def test_bad_workload_rejected(self, tmp_path):
        proc = _run_cli(["stats", "nonsense"], cwd=tmp_path)
        assert proc.returncode != 0
