"""Tests for the 2D Jacobi application (repro.apps.jacobi, Figure 9)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.jacobi import jacobi_reference, run_jacobi
from repro.config import default_config

ALL = ("cpu", "hdn", "gds", "gputn", "gputn-persistent", "gputn-overlap")


class TestNumericalCorrectness:
    @pytest.mark.parametrize("strategy", ALL)
    def test_matches_reference(self, strategy):
        ref = jacobi_reference(24, 2, 2, 3, seed=5)
        r = run_jacobi(strategy=strategy, n=24, px=2, py=2, iters=3, seed=5)
        assert np.allclose(r.grid, ref, rtol=1e-6), strategy

    @pytest.mark.parametrize("strategy", ("hdn", "gputn"))
    def test_non_square_decomposition(self, strategy):
        ref = jacobi_reference(16, 4, 1, 2, seed=3)
        r = run_jacobi(strategy=strategy, n=16, px=4, py=1, iters=2, seed=3)
        assert np.allclose(r.grid, ref, rtol=1e-6)

    @pytest.mark.parametrize("strategy", ALL)
    def test_no_memory_hazards(self, strategy):
        r = run_jacobi(strategy=strategy, n=16, iters=2)
        assert r.memory_hazards == 0

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        iters=st.integers(min_value=1, max_value=4),
        layout=st.sampled_from([(2, 2), (1, 2), (2, 1), (3, 1)]),
        strategy=st.sampled_from(["hdn", "gputn"]),
    )
    def test_property_distributed_equals_reference(self, n, iters, layout,
                                                   strategy):
        px, py = layout
        ref = jacobi_reference(n, px, py, iters, seed=1)
        r = run_jacobi(strategy=strategy, n=n, px=px, py=py, iters=iters,
                       seed=1)
        assert np.allclose(r.grid, ref, rtol=1e-6)


class TestTiming:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(KeyError, match="unknown strategy"):
            run_jacobi(strategy="warp")

    def test_per_iteration_helper(self):
        r = run_jacobi(strategy="hdn", n=16, iters=4)
        assert r.per_iteration_ns == pytest.approx(r.total_ns / 4)

    def test_more_iterations_cost_more(self):
        a = run_jacobi(strategy="gputn", n=32, iters=1).total_ns
        b = run_jacobi(strategy="gputn", n=32, iters=3).total_ns
        assert b > a

    def test_bigger_grids_cost_more(self):
        a = run_jacobi(strategy="hdn", n=64, iters=1).total_ns
        b = run_jacobi(strategy="hdn", n=512, iters=1).total_ns
        assert b > a


class TestFigure9Shape:
    """The paper's qualitative Figure 9 claims, as assertions."""

    @pytest.fixture(scope="class")
    def sweep(self):
        cfg = default_config()
        out = {}
        for n in (16, 128, 1024):
            out[n] = {s: run_jacobi(cfg, s, n=n, iters=2).total_ns
                      for s in ("cpu", "hdn", "gds", "gputn")}
        return out

    def test_gputn_beats_gds_beats_hdn_everywhere(self, sweep):
        for n, row in sweep.items():
            assert row["gputn"] < row["gds"] < row["hdn"], n

    def test_cpu_wins_small_grids(self, sweep):
        assert sweep[16]["cpu"] < sweep[16]["hdn"]

    def test_cpu_loses_large_grids(self, sweep):
        assert sweep[1024]["cpu"] > sweep[1024]["hdn"]

    def test_gains_shrink_with_grid_size(self, sweep):
        """Speedups converge toward 1 as compute dominates."""
        gain_small = sweep[16]["hdn"] / sweep[16]["gputn"]
        gain_large = sweep[1024]["hdn"] / sweep[1024]["gputn"]
        assert gain_small > gain_large
        assert gain_large < 1.10

    def test_gds_gain_on_medium_grids_about_10pct(self, sweep):
        gain = sweep[128]["hdn"] / sweep[128]["gds"]
        assert 1.02 <= gain <= 1.25, f"paper: ~1.1, got {gain:.3f}"

    def test_persistent_extension_fastest(self):
        cfg = default_config()
        gputn = run_jacobi(cfg, "gputn", n=64, iters=4).total_ns
        persist = run_jacobi(cfg, "gputn-persistent", n=64, iters=4).total_ns
        assert persist < gputn

    def test_cpu_uses_no_gpu(self):
        r = run_jacobi(strategy="cpu", n=16, iters=1)
        assert r.cpu_busy_ns > 0

    def test_overlap_variant_never_slower(self):
        """Extension finding (DESIGN.md): boundary-first overlap cannot
        lose, and for this geometry gains ~nothing (halos are 4N bytes
        against 8N^2 of interior traffic)."""
        cfg = default_config()
        for n in (64, 512):
            base = run_jacobi(cfg, "gputn", n=n, iters=2).total_ns
            over = run_jacobi(cfg, "gputn-overlap", n=n, iters=2).total_ns
            assert over <= base * 1.001

    def test_weak_scaling_holds(self):
        """Paper: 'weak scaling would stay at the same point, since the
        communication patterns do not significantly change with the
        introduction of more nodes' -- per-iteration time at fixed local
        N is nearly flat in the node count."""
        cfg = default_config()
        t4 = run_jacobi(cfg, "gputn", n=128, px=2, py=2, iters=2).per_iteration_ns
        t9 = run_jacobi(cfg, "gputn", n=128, px=3, py=3, iters=2).per_iteration_ns
        assert t9 <= t4 * 1.30  # interior nodes gain 4th neighbour, no more


_STRATEGIES = ("cpu", "hdn", "gds", "gputn", "gputn-persistent",
               "gputn-overlap")


@pytest.mark.parametrize("strategy", _STRATEGIES)
@pytest.mark.parametrize("iters", [0, -1])
def test_iters_below_one_rejected_before_the_cluster(strategy, iters,
                                                     monkeypatch):
    import repro.apps.jacobi as jacobi

    def no_cluster(*args, **kwargs):
        raise AssertionError("cluster built for a rejected point")

    monkeypatch.setattr(jacobi, "Cluster", no_cluster)
    with pytest.raises(ValueError, match="iters must be >= 1"):
        run_jacobi(strategy=strategy, n=16, iters=iters)


def test_strategy_list_covers_every_driver():
    from repro.apps.jacobi import _NODE_DRIVERS

    assert set(_STRATEGIES) == set(_NODE_DRIVERS)
