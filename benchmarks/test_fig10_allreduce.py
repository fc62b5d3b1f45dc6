"""Figure 10: 8 MB ring Allreduce strong scaling (speedup vs CPU).

Paper: all GPU strategies ~1.4x at small node counts; HDN declines and
drops below the CPU near ~24 nodes; GDS declines less; GPU-TN keeps
providing speedup through 32 nodes and beyond.
"""

import pytest

from repro.analysis import figure10_report
from repro.apps.allreduce_bench import PAYLOAD_8MB, run_allreduce, strong_scaling_study

NODE_COUNTS = (2, 8, 16, 24, 32)


@pytest.mark.exhibit("figure10")
def test_figure10_regenerate(benchmark, config, capsys):
    study = benchmark.pedantic(
        strong_scaling_study,
        kwargs={"config": config, "node_counts": NODE_COUNTS,
                "nbytes": PAYLOAD_8MB},
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print()
        figure10_report(node_counts=NODE_COUNTS, config=config)

    hdn = study.speedup_vs_cpu("hdn")
    gds = study.speedup_vs_cpu("gds")
    gputn = study.speedup_vs_cpu("gputn")
    # All GPU strategies beat the CPU at small node counts.
    assert hdn[0] > 1.0 and gds[0] > 1.0 and gputn[0] > 1.0
    # HDN declines monotonically and crosses below the CPU near 24 nodes.
    assert all(a >= b for a, b in zip(hdn, hdn[1:]))
    crossover = study.crossover_node_count("hdn")
    assert crossover is not None and 16 <= crossover <= 32, \
        f"paper: ~24 nodes, got {crossover}"
    # GDS and GPU-TN never drop below the CPU; GPU-TN leads at scale.
    assert study.crossover_node_count("gds") is None
    assert study.crossover_node_count("gputn") is None
    assert gputn[-1] > gds[-1] > hdn[-1]


@pytest.mark.exhibit("figure10")
@pytest.mark.parametrize("strategy", ("cpu", "hdn", "gds", "gputn"))
def test_figure10_single_point(benchmark, config, strategy):
    result = benchmark(run_allreduce, config, strategy, 8, PAYLOAD_8MB)
    assert result.correct and result.memory_hazards == 0
