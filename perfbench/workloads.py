"""The benchmark's workloads: what each one runs, and how it is checked.

Each workload calls a public campaign entry point of ``repro`` exactly as
a user does.  ``call`` is the timed part; ``check`` applies the
program's own oracles to what the call returned and produces the
simulated-result document the run digests.  The benchmark seed reaches
the program only as ``SystemConfig.seed`` and as the campaign ``seed=``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Fig 10 grid: 1 MiB allreduce over 2..11 nodes, every evaluated
#: strategy (the exhibit's 8 MiB x 2..32 grid scaled to a run of seconds).
FIG10_NODES = (2, 5, 8, 11)
FIG10_NBYTES = 1 << 20

#: Congestion grid: 2 loads x 2 disciplines x selective repeat x 3
#: strategies on a 16-node fat tree.
CONGESTION = dict(loads=(0.2, 0.8), disciplines=("drop-tail", "red-ecn"),
                  transports=("selective-repeat",),
                  strategies=("hdn", "gds", "gputn"),
                  topology="fat-tree:k=4", n_nodes=16, messages=16,
                  bg_horizon_ns=60_000)


@dataclasses.dataclass
class Outcome:
    """What one call produced, judged by the program's oracles."""

    attempted: int
    failed: int
    #: JSON-safe simulated results (``None`` when the call raised).
    results: Any
    #: ``ResultCache.stats()`` of the call's cache (empty without one).
    cache_stats: Dict[str, int]


def digest(results: Any) -> str:
    """sha256 of the canonical JSON of a call's simulated results."""
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def seeded_config(seed: int):
    from repro.config import default_config

    return dataclasses.replace(default_config(), seed=seed)


def _record_failures(records: Sequence[Any], oracle: str) -> int:
    return sum(1 for r in records
               if not r.metrics.get(oracle) or r.hazards != 0)


class Fig10Allreduce:
    """``strong_scaling_study``: the Fig 10 exhibit, inline, no cache."""

    name = "fig10-allreduce"
    uses_workers = False

    def __init__(self, seed: int):
        from repro.strategies import EVALUATED_STRATEGIES

        self.seed = seed
        self.config = seeded_config(seed)
        self.strategies: Tuple[str, ...] = tuple(EVALUATED_STRATEGIES)
        self.points = len(self.strategies) * len(FIG10_NODES)

    def warmup(self) -> None:
        from repro.collectives import AllreduceExperiment

        AllreduceExperiment().run({"strategy": "gputn", "n_nodes": 2,
                                   "nbytes": FIG10_NBYTES}, self.config)

    def prepare(self, scratch: Path, jobs: int) -> None:
        return None

    def call(self, state: None, scratch: Path, jobs: int) -> Any:
        from repro.apps.allreduce_bench import strong_scaling_study

        return strong_scaling_study(self.config, node_counts=FIG10_NODES,
                                    nbytes=FIG10_NBYTES,
                                    strategies=self.strategies, jobs=1)

    def check(self, study: Any, records: Optional[List[Any]]) -> Outcome:
        """The study raises on any point whose ``metrics["correct"]`` is
        false; a point missing from its dataset fails too.  Per-point
        hazards are only visible in ``records`` (the traced run)."""
        if study is None:
            return Outcome(self.points, self.points, None, {})
        failed = 0
        for strategy in self.strategies:
            times = study.total_ns.get(strategy, [])
            ok = [t for t in times if isinstance(t, int) and t > 0]
            failed += len(FIG10_NODES) - min(len(ok), len(FIG10_NODES))
        if records is not None:
            failed += _record_failures(records, "correct")
        results = {"nbytes": study.nbytes, "node_counts": study.node_counts,
                   "total_ns": study.total_ns}
        return Outcome(self.points, min(failed, self.points), results, {})


class CongestionCold:
    """``run_congestion_campaign`` into a fresh, empty cache and job store."""

    name = "congestion-cold"
    uses_workers = True

    def __init__(self, seed: int):
        self.seed = seed
        self.config = seeded_config(seed)
        self.points = (len(CONGESTION["loads"]) * len(CONGESTION["disciplines"])
                       * len(CONGESTION["transports"])
                       * len(CONGESTION["strategies"]))

    def warmup(self) -> None:
        from repro.apps.congestion import CongestionExperiment

        c = CONGESTION
        CongestionExperiment().run(
            {"strategy": c["strategies"][0], "transport": c["transports"][0],
             "discipline": c["disciplines"][0], "load": c["loads"][0],
             "topology": c["topology"], "n_nodes": c["n_nodes"],
             "messages": c["messages"], "bg_horizon_ns": c["bg_horizon_ns"],
             "seed": self.seed}, self.config)

    def prepare(self, scratch: Path, jobs: int) -> Optional[Path]:
        return None

    def _campaign(self, cache_root: Path, store_root: Path, jobs: int) -> Any:
        from repro.apps.congestion import run_congestion_campaign
        from repro.runtime import ResultCache
        from repro.service import JobStore

        return run_congestion_campaign(
            **CONGESTION, seed=self.seed, config=self.config, jobs=jobs,
            cache=ResultCache(cache_root), store=JobStore(store_root))

    def call(self, state: Optional[Path], scratch: Path, jobs: int) -> Any:
        return self._campaign(scratch / "cache", scratch / "jobs", jobs)

    def check(self, report: Any, records: Optional[List[Any]]) -> Outcome:
        """Every point must be present with ``metrics["ok"]`` (packet
        conservation, reliable delivery, all messages delivered) and no
        memory hazard."""
        if report is None:
            return Outcome(self.points, self.points, None, {})
        failed = (self.points - len(report.records)
                  + _record_failures(report.records, "ok"))
        results = [json.loads(r.to_json()) for r in report.records]
        return Outcome(self.points, failed, results,
                       dict(report.cache_stats or {}))


class CongestionWarm(CongestionCold):
    """The cold campaign resubmitted under a fresh job store against the
    cache that set-up filled with the identical campaign."""

    name = "congestion-warm"

    def prepare(self, scratch: Path, jobs: int) -> Path:
        cache_root = scratch / "cache"
        report = self._campaign(cache_root, scratch / "jobs", jobs)
        if not report.ok or len(report.records) != self.points:
            raise RuntimeError("congestion-warm: the cache fill failed")
        return cache_root

    def call(self, state: Path, scratch: Path, jobs: int) -> Any:
        return self._campaign(state, scratch / "jobs", jobs)


WORKLOADS = {w.name: w for w in (Fig10Allreduce, CongestionCold, CongestionWarm)}
