"""The collective oracle and the staging lifetime.

The oracle interprets the schedules blockwise in ``setup`` and keeps only
the distinct expected results; ``finish`` compares.  These tests pin that
it is exact (bitwise :func:`schedule_reference`), that it still fails
wrong answers, and that a reduce round's staging lives only while the
round is in flight."""

import numpy as np
import pytest

from repro.collectives import (SCHEDULE_BUILDERS, CollectiveExperiment,
                               schedule_reference)
from repro.collectives import engine
from repro.collectives.engine import _ORACLE_BLOCKS, _expected_results

STRATEGIES = ("cpu", "hdn", "gds", "gputn")
POW2_ONLY = {"recursive-doubling", "halving-doubling"}


class _Inspected(CollectiveExperiment):
    """Keeps the run context; ``tamper(ctx)`` runs just before ``finish``."""

    def __init__(self, tamper=None):
        self.tamper = tamper
        self.ctx = None

    def finish(self, cluster, ctx, params):
        self.ctx = ctx
        if self.tamper is not None:
            self.tamper(ctx)
        return super().finish(cluster, ctx, params)


def _run(experiment, schedule="ring", strategy="cpu", n_nodes=4,
         nbytes=16 * 1024, **kw):
    return experiment.execute({"schedule": schedule, "strategy": strategy,
                               "topology": "star", "n_nodes": n_nodes,
                               "nbytes": nbytes}, **kw)


def _flip_one_float(rank):
    """Flip the low mantissa bit of one float of ``rank``'s result."""
    def tamper(ctx):
        st = ctx["states"][rank]
        ch = ctx["nbytes"] // st.schedule.n_chunks // 4
        first = max(st.schedule.result_chunk, 0) * ch
        st.dest.view(np.uint32)[first + ch // 2] ^= 1
    return tamper


class TestOracleCatchesWrongAnswers:
    @pytest.mark.parametrize("strategy", ["cpu", "gputn"])
    def test_flipped_float_in_ring_result(self, strategy):
        assert _run(_Inspected(), strategy=strategy).record.metrics["correct"]
        ex = _run(_Inspected(_flip_one_float(2)), strategy=strategy)
        assert ex.record.metrics["correct"] is False
        assert ex.raw.correct is False

    @pytest.mark.parametrize("schedule", ["alltoall", "reduce-scatter"])
    def test_flipped_float_in_distinct_per_rank_results(self, schedule):
        assert _run(_Inspected(), schedule=schedule).record.metrics["correct"]
        ex = _run(_Inspected(_flip_one_float(3)), schedule=schedule)
        assert ex.record.metrics["correct"] is False

    @pytest.mark.parametrize("honest_blocks", [0, _ORACLE_BLOCKS - 1])
    def test_perturbed_semantic_reference(self, monkeypatch, honest_blocks):
        """Every column block is checked: perturbing the reference of the
        last block alone fails the point too."""
        honest = engine._semantic_reference
        calls = []

        def perturbed(schedules, block):
            calls.append(block.shape)
            refs = honest(schedules, block)
            if len(calls) <= honest_blocks:
                return refs
            return [ref * (1 + 1e-3) for ref in refs]

        monkeypatch.setattr(engine, "_semantic_reference", perturbed)
        ex = _run(_Inspected())
        assert len(calls) == _ORACLE_BLOCKS
        assert ex.record.metrics["correct"] is False


class TestBlockwiseOracleExact:
    @staticmethod
    def _check(name, n, nbytes):
        schedules = [SCHEDULE_BUILDERS[name](r, n) for r in range(n)]
        n_chunks = schedules[0].n_chunks
        nbytes = CollectiveExperiment.padded_nbytes(n_chunks, nbytes)
        vectors = [np.random.default_rng([5, r]).random(nbytes // 4,
                                                         dtype=np.float32)
                   for r in range(n)]
        before = [v.copy() for v in vectors]
        expected, semantic_ok = _expected_results(schedules, vectors)
        assert semantic_ok
        assert all(np.array_equal(v, b) for v, b in zip(vectors, before))
        ch = nbytes // 4 // n_chunks
        for sched, exp, ref in zip(schedules, expected,
                                   schedule_reference(schedules, vectors)):
            if sched.result_chunk >= 0:
                ref = ref[sched.result_chunk * ch:(sched.result_chunk + 1) * ch]
            assert np.array_equal(exp.reshape(-1).view(np.uint32),
                                  ref.view(np.uint32)), (name, n, nbytes)
        return ch

    @pytest.mark.parametrize("name,n", [
        (name, n) for name in sorted(SCHEDULE_BUILDERS) for n in (2, 3, 8, 11)
        if not (n & (n - 1) and name in POW2_ONLY)])
    def test_bitwise_equal_to_schedule_reference(self, name, n):
        self._check(name, n, 64 * 1024)

    def test_padded_alltoall_with_ragged_last_block(self):
        ch = self._check("alltoall", 11, 10_000)
        width = -(-ch // _ORACLE_BLOCKS)
        assert ch % width, (ch, width)

    @pytest.mark.parametrize("name", ["ring", "reduce-scatter"])
    def test_chunk_narrower_than_the_block_count(self, name):
        # 5 floats per chunk: five one-column blocks.
        self._check(name, 3, 3 * 5 * 4)

    def test_allreduce_keeps_one_expected_array(self):
        schedules = [SCHEDULE_BUILDERS["ring"](r, 8) for r in range(8)]
        vectors = [np.full(8 * 16, r, np.float32) for r in range(8)]
        expected, _ = _expected_results(schedules, vectors)
        assert len({id(e) for e in expected}) == 1


def _staging(node):
    return [b for b in node.space.buffers() if ".zstage" in b.name]


def _live_staging_probe(peak):
    """Instrument recording the most staging buffers any rank had mapped
    at once."""
    def instrument(cluster):
        def probe(*_):
            peak[0] = max([peak[0]] + [len(_staging(node)) for node in cluster])
        cluster.sim.probes.step.append(probe)
    return instrument


#: Most live staging buffers per rank, whatever the node count: a reduce
#: round is addressed at most this many rounds before it retires (cpu and
#: hdn post each receive in its own round; gds stages the next round's
#: put; GPU-TN registers up to 12 slice puts, three rounds, ahead).
LIVE_BOUND = {"cpu": 1, "hdn": 1, "gds": 3, "gputn": 5}


class TestStagingLifetime:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_four_node_ring(self, strategy):
        peak = [0]
        retired = []

        def keep_retired(ctx):
            retired.extend(ctx["states"][1].staging)

        experiment = _Inspected(keep_retired)
        ex = _run(experiment, strategy=strategy,
                  observers=_live_staging_probe(peak))
        assert ex.record.metrics["correct"]
        assert ex.record.hazards == 0
        assert 1 <= peak[0] <= LIVE_BOUND[strategy]
        assert not [b for node in ex.cluster for b in _staging(node)]
        # Reduce rounds 0..2 were staged and retired; 3..5 land in place.
        assert [b is not None for b in retired] == [True] * 3 + [False] * 3
        node = ex.cluster[1]
        for buf in retired[:3]:
            assert buf.data is None
            with pytest.raises(IndexError, match="unmapped"):
                node.space.dma_write(buf.addr(), b"\0" * 4)
        expected = experiment.ctx["expected"]
        assert len(expected) == 4 and len({id(e) for e in expected}) == 1

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_live_staging_does_not_grow_with_ranks(self, strategy):
        peak = [0]
        ex = _run(_Inspected(), strategy=strategy, n_nodes=16,
                  observers=_live_staging_probe(peak))
        assert ex.record.metrics["correct"]
        assert peak[0] <= LIVE_BOUND[strategy] < 15
