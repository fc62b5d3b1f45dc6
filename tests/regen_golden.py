#!/usr/bin/env python
"""Regenerate the golden RunRecord fixtures under ``tests/golden/``.

One command::

    PYTHONPATH=src python tests/regen_golden.py

The fixtures pin the paper's headline exhibits as canonical records --
Figure 8's latency decomposition (GPU-TN ~2.71 us vs GDS ~3.76 us vs HDN
~4.21 us target completion), Figure 9's 2x2 GPU-TN Jacobi point plus
every Jacobi strategy on a 3x3 grid, and Figure 10's
8-node / 8 MiB Allreduce -- plus the routed fabric under load: two
congestion points (switch queues, RED/ECN draws, drops and retransmits
on a 16-node fat tree) and two collective-zoo points on a dragonfly
(with its own global-link latency) and a torus -- so any code change
that shifts a simulated metric fails ``tests/test_golden_records.py``
with a field-level diff.
Only regenerate after verifying the new numbers are *intended* (e.g. a
deliberate timing-model change), and say why in the commit message.

Span tables are stripped: fixtures pin metrics, not trace layout.
"""

from __future__ import annotations

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"

#: fixture name -> (experiment factory, params overlay)
GOLDEN_POINTS = {
    "microbench-gputn": ("microbench", {"strategy": "gputn"}),
    "microbench-gds": ("microbench", {"strategy": "gds"}),
    "microbench-hdn": ("microbench", {"strategy": "hdn"}),
    "jacobi-gputn": ("jacobi", {"strategy": "gputn"}),
    # A 3x3 grid at iters=4: the interior rank has four neighbours, and
    # the GPU-TN re-arm window starts freeing entries at iteration 3.
    **{f"jacobi-3x3-{s}": ("jacobi", {"strategy": s, "px": 3, "py": 3,
                                      "n": 32, "iters": 4})
       for s in ("cpu", "hdn", "gds", "gputn", "gputn-persistent",
                 "gputn-overlap")},
    "allreduce-gputn": ("allreduce", {"strategy": "gputn", "n_nodes": 8}),
    "allreduce-cpu": ("allreduce", {"strategy": "cpu", "n_nodes": 8}),
    "allreduce-hdn": ("allreduce", {"strategy": "hdn", "n_nodes": 8}),
    # The loaded reliable path: background Poisson load at 0.8 of link
    # rate through finite switch queues, selective repeat with pacing.
    **{f"congestion-{s}-{d}": ("congestion", {
        "strategy": s, "discipline": d, "transport": "selective-repeat",
        "load": 0.8, "topology": "fat-tree:k=4", "n_nodes": 16,
        "messages": 16, "bg_horizon_ns": 60_000})
       for s, d in (("gputn", "red-ecn"), ("hdn", "drop-tail"))},
    # Routed fabrics without queues: per-hop port contention, and on the
    # dragonfly a global-link latency unlike the local one.
    "zoo-dragonfly-gputn": ("collective-zoo", {
        "schedule": "halving-doubling", "strategy": "gputn", "n_nodes": 8,
        "topology": "dragonfly:a=2,g=3,p=2,global_latency_ns=300"}),
    "zoo-torus-gds": ("collective-zoo", {
        "schedule": "alltoall", "strategy": "gds", "n_nodes": 8,
        "topology": "torus:2x4"}),
}


def _experiment(kind: str):
    if kind == "microbench":
        from repro.apps.microbench import MicrobenchExperiment
        return MicrobenchExperiment()
    if kind == "jacobi":
        from repro.apps.jacobi import JacobiExperiment
        return JacobiExperiment()
    if kind == "congestion":
        from repro.apps.congestion import CongestionExperiment
        return CongestionExperiment()
    if kind == "collective-zoo":
        from repro.collectives import CollectiveExperiment
        return CollectiveExperiment()
    from repro.collectives import AllreduceExperiment
    return AllreduceExperiment()


def regenerate(only=None) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, (kind, params) in GOLDEN_POINTS.items():
        if only and name not in only:
            continue
        record = _experiment(kind).run(params=params)
        record.spans = ()
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(record.to_json() + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(GOLDEN_DIR.parent.parent)}")


if __name__ == "__main__":
    regenerate(only=set(sys.argv[1:]) or None)
