"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root:

    python -m pytest perfbench/tests -q

Each workload runs as the command line runs it, in a subprocess with
``--seconds 1`` (one timed call, or one untraced + traced pass pair).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def bench(workload: str, trace: int, cwd: Path = ROOT,
          check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=check)


def parse(out: subprocess.CompletedProcess):
    lines = out.stdout.strip().splitlines()
    digest = next(line.split()[2] for line in lines
                  if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs of every workload at one seed."""
    return {name: [parse(bench(name, 1)) for _ in range(2)]
            for name in WORKLOADS}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metric_names_and_units():
    doc, _ = parse(bench("congestion-cold", 0))
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in doc["metrics"].values())


def test_per_layer_metric_names_and_units(traced_runs):
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced_runs.values():
        for doc, _ in runs:
            assert doc["correct"] and doc["failed"] == 0
            assert {k: v["unit"] for k, v in doc["metrics"].items()} == spec


def test_exact_counts_and_digest_repeat(traced_runs):
    for name, ((first, d1), (second, d2)) in traced_runs.items():
        assert d1 == d2, name
        for metric in layers.EXACT_METRICS:
            assert (first["metrics"][metric]["value"]
                    == second["metrics"][metric]["value"]), (name, metric)


def test_layers_are_exercised(traced_runs):
    def value(workload, metric):
        return traced_runs[workload][0][0]["metrics"][metric]["value"]

    assert value("fig10-allreduce", "nic.trigger.calls") > 0
    assert value("fig10-allreduce", "memory.record_read.calls") > 0
    assert value("fig10-allreduce", "gpu.launch.calls") > 0
    assert value("congestion-cold", "net.admit.calls") > 0
    assert value("congestion-cold", "nic.transport_send.calls") > 0
    assert value("congestion-cold", "service.journal_append.calls") == 12
    for workload in WORKLOADS:
        assert value(workload, "memory.hazards") == 0
        assert value(workload, "host.calls") > 0 or workload == "congestion-warm"


def test_cache_hit_ratio_is_reported_with_its_base(traced_runs):
    """congestion-cold starts from an empty cache every call; warm reports
    what its lookups measured (0 of 12 hits while the cache key is keyed
    on the pre-``configure()`` config)."""
    def metrics(workload):
        return {k: v["value"] for k, v in traced_runs[workload][0][0]["metrics"].items()}

    cold, warm = metrics("congestion-cold"), metrics("congestion-warm")
    assert cold["service.cache_lookups"] == 12
    assert cold["service.cache_hit_ratio"] == 0.0
    assert cold["service.points.cache"] == 0
    assert warm["service.cache_lookups"] == 12
    assert warm["service.cache_hit_ratio"] * 12 == warm["service.points.cache"]
    assert warm["service.points.cache"] + warm["service.points.run"] == 12


def test_wrappers_are_removed_after_a_traced_pass():
    from repro.sim import Simulator

    targets = layers.targets()
    originals = layers.snapshot(targets)
    tracer = layers.Tracer()
    with tracer.installed(targets):
        assert all(vars(cls)[attr] is not originals[(cls, attr)]
                   for _, cls, attr in targets)
        sim = Simulator()
        sim.timeout(5)
        sim.run()
    layers.assert_pristine(originals)
    assert tracer.calls["sim.run"] == 1 and tracer.events == 1

    with pytest.raises(KeyError):
        with layers.Tracer().installed(targets):
            raise KeyError("boom")
    layers.assert_pristine(originals)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("congestion-cold", 0, cwd=tmp_path, check=False)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
