"""Golden-record regression tests for the paper's headline exhibits.

Each fixture under ``tests/golden/`` is a canonical
:class:`~repro.runtime.record.RunRecord` (spans stripped) pinning one
simulated data point: Figure 8's microbenchmark latency decomposition,
Figure 9's 2x2 GPU-TN Jacobi point plus every Jacobi strategy on a 3x3
grid, Figure 10's 8-node / 8 MiB ring Allreduce, and the routed fabric:
congestion points under load and collective-zoo points on a dragonfly
and a torus.
A drift in any metric, parameter default or config fingerprint fails
here with a field-level diff.

To regenerate after an *intended* timing-model change::

    PYTHONPATH=src python tests/regen_golden.py
"""

import json
import pathlib

import pytest

from repro.runtime.record import RunRecord

from regen_golden import GOLDEN_DIR, GOLDEN_POINTS, _experiment

_NAMES = sorted(GOLDEN_POINTS)


def _load(name: str) -> dict:
    path = GOLDEN_DIR / f"{name}.json"
    if not path.exists():
        pytest.fail(f"missing golden fixture {path}; run "
                    "`PYTHONPATH=src python tests/regen_golden.py`")
    return json.loads(path.read_text(encoding="utf-8"))


def _fresh(name: str) -> dict:
    kind, params = GOLDEN_POINTS[name]
    record = _experiment(kind).run(params=params)
    record.spans = ()
    return json.loads(record.to_json())


def _diff(golden: dict, fresh: dict) -> list:
    lines = []
    for key in sorted(set(golden) | set(fresh)):
        if key == "code_version":  # releases bump this; metrics must not move
            continue
        if golden.get(key) != fresh.get(key):
            lines.append(f"  {key}: golden={golden.get(key)!r} "
                         f"fresh={fresh.get(key)!r}")
    return lines


@pytest.mark.parametrize("name", _NAMES)
def test_golden_record_matches(name):
    golden, fresh = _load(name), _fresh(name)
    delta = _diff(golden, fresh)
    assert not delta, (
        f"golden record {name!r} drifted (regenerate only if the change "
        "is intended):\n" + "\n".join(delta))


def test_fixtures_cover_every_golden_point():
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == set(GOLDEN_POINTS), (
        "tests/golden/ out of sync with regen_golden.GOLDEN_POINTS")


def test_figure8_headline_scale():
    """The pinned Figure 8 numbers are the paper's: GPU-TN ~2.71 us beats
    GDS ~3.76 us beats HDN ~4.21 us (+-15% each)."""
    norm = {s: _load(f"microbench-{s}")["metrics"]
            ["normalized_target_completion_ns"]
            for s in ("gputn", "gds", "hdn")}
    assert norm["gputn"] < norm["gds"] < norm["hdn"]
    for strategy, paper_ns in (("gputn", 2710), ("gds", 3760), ("hdn", 4210)):
        assert abs(norm[strategy] - paper_ns) / paper_ns < 0.15, (
            strategy, norm[strategy], paper_ns)


def test_figure10_headline_order():
    """8-node 8 MiB Allreduce: GPU-TN completes ahead of the CPU and HDN
    paths, and all three fixtures agree on the verified-correct flag."""
    totals = {}
    for strategy in ("gputn", "cpu", "hdn"):
        doc = _load(f"allreduce-{strategy}")
        assert doc["metrics"]["correct"] is True, strategy
        totals[strategy] = doc["metrics"]["total_ns"]
    assert totals["gputn"] < min(totals["cpu"], totals["hdn"])


def test_fixture_roundtrips_as_runrecord():
    for name in _NAMES:
        record = RunRecord.from_json((GOLDEN_DIR / f"{name}.json").read_text())
        assert record.metrics, name
