"""Tests for collective schedules and executors: the ring Allreduce of the
paper plus the schedule zoo (recursive-doubling / halving-doubling /
allgather / reduce-scatter / alltoall), each checked bitwise against the
NumPy schedule oracle on every backend and on multiple topologies, with
exactly-once trigger monitors armed on the GPU-TN runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.allreduce_bench import run_allreduce
from repro.collectives import (SCHEDULE_BUILDERS, AllreduceExperiment,
                               ring_allreduce_schedule, run_collective,
                               schedule_reference)
from repro.collectives.algorithms import (
    halving_doubling_allreduce_schedule,
    recursive_doubling_allreduce_schedule, ring_allgather_schedule,
    ring_reduce_scatter_schedule)
from repro.collectives.engine import CollectiveExperiment
from repro.collectives.schedule import OpKind
from repro.config import default_config
from repro.runtime import Observers
from repro.validate import attach_monitors

ZOO_SCHEDULES = ("recursive-doubling", "halving-doubling", "allgather",
                 "reduce-scatter", "alltoall")
POW2_ONLY = {"recursive-doubling", "halving-doubling"}


class TestScheduleStructure:
    def test_round_count(self):
        s = ring_allreduce_schedule(0, 8)
        assert s.n_rounds == 14  # 2 * (P - 1)

    def test_each_round_sends_and_recvs(self):
        s = ring_allreduce_schedule(2, 5)
        for rnd in s.rounds:
            kinds = [op.kind for op in rnd]
            assert OpKind.SEND in kinds and OpKind.RECV in kinds

    def test_reduce_only_in_first_phase(self):
        s = ring_allreduce_schedule(1, 4)
        for i, rnd in enumerate(s.rounds):
            has_reduce = any(op.kind is OpKind.REDUCE for op in rnd)
            assert has_reduce == (i < 3)

    def test_ring_neighbors(self):
        s = ring_allreduce_schedule(3, 4)
        for rnd in s.rounds:
            for op in rnd:
                if op.kind is OpKind.SEND:
                    assert op.peer == 0   # right of rank 3 in a 4-ring
                elif op.kind is OpKind.RECV:
                    assert op.peer == 2

    def test_bad_args_rejected(self):
        with pytest.raises(ValueError):
            ring_allreduce_schedule(0, 1)
        with pytest.raises(ValueError):
            ring_allreduce_schedule(5, 4)

    @settings(max_examples=30, deadline=None)
    @given(n_ranks=st.integers(min_value=2, max_value=16))
    def test_property_every_chunk_fully_reduced_and_distributed(self, n_ranks):
        """Across all ranks' schedules: each chunk is sent exactly 2(P-1)
        times in total, each rank reduces P-1 distinct chunks, and every
        rank receives every chunk it doesn't compute."""
        schedules = [ring_allreduce_schedule(r, n_ranks) for r in range(n_ranks)]
        total_sends = sum(len(s.sends()) for s in schedules)
        assert total_sends == n_ranks * 2 * (n_ranks - 1)
        for s in schedules:
            reduced = [op.chunk for rnd in s.rounds for op in rnd
                       if op.kind is OpKind.REDUCE]
            assert len(set(reduced)) == n_ranks - 1
            received = {op.chunk for rnd in s.rounds for op in rnd
                        if op.kind is OpKind.RECV}
            assert len(received) == n_ranks  # touches every chunk index

    @settings(max_examples=20, deadline=None)
    @given(n_ranks=st.integers(min_value=2, max_value=12))
    def test_property_send_matches_peer_recv(self, n_ranks):
        """What rank r sends in round k is exactly what rank r+1 expects
        to receive in round k."""
        schedules = [ring_allreduce_schedule(r, n_ranks) for r in range(n_ranks)]
        for r, s in enumerate(schedules):
            peer = schedules[(r + 1) % n_ranks]
            for k, rnd in enumerate(s.rounds):
                send = next(op for op in rnd if op.kind is OpKind.SEND)
                recv = next(op for op in peer.rounds[k]
                            if op.kind is OpKind.RECV)
                assert send.chunk == recv.chunk


def allreduce_reference(vectors, n_ranks):
    """Closed-form ring Allreduce: replay the ring reduce order in NumPy.

    Chunk ``c`` accumulates contributions in ring order starting from rank
    ``(c + 1) mod P``: rank c sends v_c, rank c+1 computes v_{c+1} + v_c,
    rank c+k computes v_{c+k} + acc.  Replaying that association order
    makes the check bitwise, not approximate.
    """
    n = vectors[0].size
    chunk = n // n_ranks
    out = np.empty(n, dtype=np.float32)
    for c in range(n_ranks):
        sl = slice(c * chunk, (c + 1) * chunk)
        acc = vectors[(c + 1) % n_ranks][sl] + vectors[c][sl]
        for k in range(2, n_ranks):
            acc = vectors[(c + k) % n_ranks][sl] + acc
        out[sl] = acc
    return out


class TestReference:
    def test_reference_matches_float64_sum_closely(self):
        rng = np.random.default_rng(0)
        vecs = [rng.random(64, dtype=np.float32) for _ in range(4)]
        ref = allreduce_reference(vecs, 4)
        exact = np.sum(np.stack(vecs).astype(np.float64), axis=0)
        assert np.allclose(ref, exact, rtol=1e-5)

    @pytest.mark.parametrize("nbytes", (64 * 1024, 100_000))
    @pytest.mark.parametrize("n", (2, 3, 4, 8))
    def test_schedule_interpreter_equals_closed_form_ring(self, n, nbytes):
        """The schedule oracle every collective is checked against agrees
        bitwise with the independent closed-form ring reference, padded
        payloads included."""
        padded = AllreduceExperiment.padded_nbytes(n, nbytes)
        vecs = [np.random.default_rng([11, r]).random(padded // 4,
                                                      dtype=np.float32)
                for r in range(n)]
        schedules = [ring_allreduce_schedule(r, n) for r in range(n)]
        expected = allreduce_reference(vecs, n)
        for out in schedule_reference(schedules, vecs):
            assert out.dtype == np.float32
            assert np.array_equal(out, expected)


class TestExecutors:
    @pytest.mark.parametrize("strategy", ("cpu", "hdn", "gds", "gputn"))
    def test_bitwise_correct(self, strategy):
        r = run_allreduce(strategy=strategy, n_nodes=4, nbytes=64 * 1024)
        assert r.correct

    @pytest.mark.parametrize("strategy", ("cpu", "hdn", "gds", "gputn"))
    def test_no_memory_hazards(self, strategy):
        r = run_allreduce(strategy=strategy, n_nodes=3, nbytes=48 * 1024)
        assert r.memory_hazards == 0

    def test_two_nodes_minimum(self):
        r = run_allreduce(strategy="gputn", n_nodes=2, nbytes=32 * 1024)
        assert r.correct

    def test_ragged_payload_padded(self):
        # 100 KB over 3 nodes does not divide; the runner pads.
        r = run_allreduce(strategy="cpu", n_nodes=3, nbytes=100_000)
        assert r.correct
        assert r.nbytes % (3 * 4) == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError):
            run_allreduce(strategy="rdma2000")

    @settings(max_examples=6, deadline=None)
    @given(
        n_nodes=st.integers(min_value=2, max_value=6),
        kbytes=st.sampled_from([16, 48, 96]),
        strategy=st.sampled_from(["hdn", "gputn"]),
    )
    def test_property_any_shape_correct(self, n_nodes, kbytes, strategy):
        r = run_allreduce(strategy=strategy, n_nodes=n_nodes,
                          nbytes=kbytes * 1024)
        assert r.correct and r.memory_hazards == 0


class TestFigure10Shape:
    """The paper's Figure 10 claims as assertions (reduced sweep)."""

    @pytest.fixture(scope="class")
    def study(self):
        from repro.apps.allreduce_bench import strong_scaling_study

        return strong_scaling_study(default_config(),
                                    node_counts=(2, 8, 16, 24, 32),
                                    nbytes=8 * 1024 * 1024)

    def test_gpu_strategies_beat_cpu_at_small_node_counts(self, study):
        for s in ("hdn", "gds", "gputn"):
            assert study.speedup_vs_cpu(s)[0] > 1.0, s

    def test_hdn_crosses_below_cpu_near_24_nodes(self, study):
        crossover = study.crossover_node_count("hdn")
        assert crossover is not None and 16 <= crossover <= 32

    def test_gds_and_gputn_never_cross(self, study):
        assert study.crossover_node_count("gds") is None
        assert study.crossover_node_count("gputn") is None

    def test_gputn_beats_hdn_at_scale(self, study):
        at32 = {s: study.speedup_vs_cpu(s)[-1] for s in ("hdn", "gds", "gputn")}
        assert at32["gputn"] > at32["gds"] > at32["hdn"]

    def test_hdn_declines_monotonically(self, study):
        sp = study.speedup_vs_cpu("hdn")
        assert all(a >= b for a, b in zip(sp, sp[1:]))

    def test_cpu_busy_time_lower_for_gputn_than_hdn(self):
        """Table 1's CPU-overhead column, quantified: GPU-TN keeps the
        CPU off the critical path."""
        hdn = run_allreduce(strategy="hdn", n_nodes=4, nbytes=1024 * 1024)
        tn = run_allreduce(strategy="gputn", n_nodes=4, nbytes=1024 * 1024)
        assert tn.cpu_busy_ns < hdn.cpu_busy_ns


#: ``(total_ns, cpu_busy_ns)`` of the 1 MiB Figure 10 grid, as measured
#: with the hand-specialized ring executor this repo had before the ring
#: Allreduce moved onto the generic engine.  The engine's slice pipelining
#: must keep reproducing them to the nanosecond.
FIG10_1MIB = {
    ("cpu", 2): (116_798, 195_596), ("cpu", 5): (196_556, 804_780),
    ("cpu", 8): (226_443, 1_453_144), ("cpu", 11): (249_000, 2_156_000),
    ("hdn", 2): (112_149, 159_200), ("hdn", 5): (217_560, 784_000),
    ("hdn", 8): (280_525, 1_635_200), ("hdn", 11): (337_500, 2_728_000),
    ("gds", 2): (101_050, 2_400), ("gds", 5): (172_800, 24_000),
    ("gds", 8): (201_300, 67_200), ("gds", 11): (221_900, 132_000),
    ("gputn", 2): (88_600, 7_200), ("gputn", 5): (138_960, 66_000),
    ("gputn", 8): (151_496, 182_400), ("gputn", 11): (157_300, 356_400),
}


@pytest.mark.parametrize("strategy,n_nodes", sorted(FIG10_1MIB))
def test_fig10_1mib_grid_is_pinned(strategy, n_nodes):
    record = AllreduceExperiment().run(
        {"strategy": strategy, "n_nodes": n_nodes, "nbytes": 1 << 20})
    assert record.metrics["correct"] and record.hazards == 0
    assert ((record.metrics["total_ns"], record.metrics["cpu_busy_ns"])
            == FIG10_1MIB[strategy, n_nodes])


# --------------------------------------------------------------------------
# The schedule zoo
# --------------------------------------------------------------------------

def zoo_counts(schedule):
    """Node counts a schedule supports, within the test budget."""
    return (2, 4, 8, 16)  # all zoo schedules accept powers of two


class TestZooScheduleStructure:
    def test_registry_is_complete(self):
        assert set(SCHEDULE_BUILDERS) == {"ring", *ZOO_SCHEDULES}

    @pytest.mark.parametrize("builder", [
        recursive_doubling_allreduce_schedule,
        halving_doubling_allreduce_schedule,
    ])
    def test_pow2_builders_reject_other_counts(self, builder):
        for bad in (0, 1, 3, 6, 12):
            with pytest.raises(ValueError):
                builder(0, bad)
        with pytest.raises(ValueError):
            builder(4, 4)  # rank out of range

    def test_round_counts(self):
        assert recursive_doubling_allreduce_schedule(0, 8).n_rounds == 3
        assert halving_doubling_allreduce_schedule(0, 8).n_rounds == 6
        assert ring_allgather_schedule(0, 8).n_rounds == 7
        assert ring_reduce_scatter_schedule(0, 8).n_rounds == 7

    def test_reduce_scatter_result_chunk(self):
        for n in (2, 4, 8):
            for r in range(n):
                s = ring_reduce_scatter_schedule(r, n)
                assert s.result_chunk == (r + 1) % n

    @pytest.mark.parametrize("name", ["allgather", "alltoall"])
    def test_data_movement_schedules_never_reduce(self, name):
        for r in range(8):
            s = SCHEDULE_BUILDERS[name](r, 8)
            assert not any(op.kind is OpKind.REDUCE
                           for rnd in s.rounds for op in rnd)

    @pytest.mark.parametrize("name", sorted(SCHEDULE_BUILDERS))
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_property_sends_match_peer_recvs(self, name, n):
        """What rank r sends to p in round k, p expects from r in round k
        -- the pairing contract every executor leans on."""
        schedules = [SCHEDULE_BUILDERS[name](r, n) for r in range(n)]
        for r, s in enumerate(schedules):
            for k, rnd in enumerate(s.rounds):
                send = next(op for op in rnd if op.kind is OpKind.SEND)
                peer_rnd = schedules[send.peer].rounds[k]
                recv = next(op for op in peer_rnd if op.kind is OpKind.RECV)
                assert recv.peer == r
                assert recv.nchunks == send.nchunks


def _fire_plans(name, n_nodes, nbytes=16 * 1024):
    """Rank 0's GPU-TN fire plan for every round boundary of a schedule."""
    from repro.cluster import Cluster
    from repro.collectives.engine import _ZooRank

    sched = SCHEDULE_BUILDERS[name](0, n_nodes)
    nbytes = CollectiveExperiment.padded_nbytes(sched.n_chunks, nbytes)
    state = _ZooRank(Cluster(n_nodes=n_nodes, with_gpu=False)[0], sched,
                     nbytes, seed=0)
    return [state.fire_plan(k) for k in range(sched.n_rounds - 1)]


class TestSlicePlan:
    """The GPU-TN slice contract: trigger points follow the data, and a
    round's slices leave in index order, each exactly once."""

    @pytest.mark.parametrize("name", ["ring", "recursive-doubling"])
    def test_slice_releases_same_slice_of_next_round(self, name):
        for plan in _fire_plans(name, 8):
            assert plan == [[0], [1], [2], [3]]

    def test_alltoall_keeps_round_gating(self):
        for plan in _fire_plans("alltoall", 8):
            assert plan == [[], [], [], [0, 1, 2, 3]]

    @pytest.mark.parametrize("n_nodes", [4, 8])
    @pytest.mark.parametrize("name", sorted(SCHEDULE_BUILDERS))
    def test_slices_leave_in_index_order(self, name, n_nodes):
        for plan in _fire_plans(name, n_nodes):
            assert [t for fired in plan for t in fired] == [0, 1, 2, 3]

    @pytest.mark.parametrize("topology", ["star", "fat-tree"])
    def test_out_of_order_slices_would_corrupt_halving_doubling(self, topology):
        """At this size halving-doubling's data dependencies alone would
        send a round's slices out of index order, and the arrival-count
        flag would then release the wrong slice (wrong data, no hazard)."""
        r = run_collective(schedule="halving-doubling", strategy="gputn",
                           topology=topology, n_nodes=8, nbytes=256 * 1024)
        assert r.correct and r.memory_hazards == 0


class TestZooOracle:
    """Acceptance: every schedule, bitwise-correct vs the NumPy oracle, on
    >=3 node counts x 3 backends x >=2 topologies."""

    NBYTES = 16 * 1024

    @pytest.mark.parametrize("strategy", ("hdn", "gds", "gputn"))
    @pytest.mark.parametrize("n_nodes", (2, 4, 8, 16))
    @pytest.mark.parametrize("schedule", ZOO_SCHEDULES)
    def test_star_bitwise_correct(self, schedule, n_nodes, strategy):
        r = run_collective(schedule=schedule, strategy=strategy,
                           n_nodes=n_nodes, nbytes=self.NBYTES)
        assert r.correct and r.memory_hazards == 0

    @pytest.mark.parametrize("schedule", ZOO_SCHEDULES)
    def test_cpu_backend_matches_oracle(self, schedule):
        r = run_collective(schedule=schedule, strategy="cpu", n_nodes=8,
                           nbytes=self.NBYTES)
        assert r.correct and r.memory_hazards == 0

    @pytest.mark.parametrize("strategy", ("hdn", "gds", "gputn"))
    @pytest.mark.parametrize("topology", ("fat-tree", "torus:4x4",
                                          "dragonfly"))
    @pytest.mark.parametrize("schedule", ZOO_SCHEDULES)
    def test_multiswitch_topologies_bitwise_correct(self, schedule, topology,
                                                    strategy):
        r = run_collective(schedule=schedule, strategy=strategy,
                           topology=topology, n_nodes=16, nbytes=self.NBYTES)
        assert r.correct and r.memory_hazards == 0
        assert r.topology == topology

    def test_ragged_payload_padded(self):
        r = run_collective(schedule="alltoall", strategy="gputn", n_nodes=8,
                           nbytes=10_000)  # not divisible by 8 chunks
        assert r.correct and r.nbytes % (8 * 4) == 0

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            run_collective(schedule="double-binary-tree")
        with pytest.raises(KeyError):
            run_collective(strategy="rdma2000")


class TestZooExactlyOnce:
    """GPU-TN zoo runs with the full validation monitor suite armed: every
    trigger entry fires exactly once, fabric order and transport acceptance
    invariants hold, and the result still matches the oracle."""

    @staticmethod
    def _monitored_run(schedule, topology, n_nodes):
        monitors = []
        execution = CollectiveExperiment().execute(
            {"schedule": schedule, "strategy": "gputn", "topology": topology,
             "n_nodes": n_nodes, "nbytes": 8 * 1024, "seed": 11},
            observers=Observers(
                instruments=(lambda c: monitors.extend(attach_monitors(c)),)),
        )
        assert monitors  # the suite actually armed
        for monitor in monitors:  # raises InvariantViolation on failure
            monitor.finalize()
        assert execution.raw.correct and execution.raw.memory_hazards == 0
        exactly_once = [m for m in monitors
                        if m.invariant == "trigger-exactly-once"]
        assert exactly_once
        fires = [n for _, _, n in exactly_once[0]._entries.values()]
        assert fires and all(n == 1 for n in fires)
        return execution, fires

    @pytest.mark.parametrize("topology", ("star", "fat-tree"))
    @pytest.mark.parametrize("schedule", ZOO_SCHEDULES)
    def test_monitored_gputn_run_is_clean(self, schedule, topology):
        execution, fires = self._monitored_run(schedule, topology, 8)
        # The GPU-TN run exercised real triggered ops: the monitor saw
        # every slice entry fire exactly once.  Every block here holds at
        # least 4 float32s, so each round is 4 slices per rank.
        assert len(fires) == 8 * 4 * execution.raw.n_rounds

    @pytest.mark.parametrize("topology", ("star", "fat-tree"))
    @pytest.mark.parametrize("schedule,n_nodes",
                             [(s, 4) for s in sorted(SCHEDULE_BUILDERS)]
                             + [("ring", 8)])
    def test_pipelined_slices_stay_correct(self, schedule, n_nodes, topology):
        """The rest of the zoo x {star, fat-tree} x {4, 8} grid: slice
        pipelining keeps every schedule bitwise-correct and hazard-free
        under the full monitor suite (naive slice-to-slice triggering
        broke halving-doubling at 4 and 8 nodes)."""
        execution, fires = self._monitored_run(schedule, topology, n_nodes)
        assert len(fires) == n_nodes * 4 * execution.raw.n_rounds
