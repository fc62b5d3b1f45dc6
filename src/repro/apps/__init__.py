"""The paper's evaluation applications.

* :mod:`~repro.apps.launch_study` -- the Figure 1 kernel-launch study;
* :mod:`~repro.apps.microbench` -- the Section 5.2 latency microbenchmark
  and its Figure 8 decomposition;
* :mod:`~repro.apps.jacobi` -- the Section 5.3 2D Jacobi relaxation with
  halo exchange (Figure 9);
* :mod:`~repro.apps.allreduce_bench` -- the Section 5.4.1 ring Allreduce
  strong-scaling study (Figure 10);
* :mod:`~repro.apps.deeplearning` -- the Section 5.4.2 deep-learning
  projection (Table 3 workloads, Figure 11);
* :mod:`~repro.apps.degraded` -- strategy goodput and tail latency under
  packet loss with the reliable transport recovering
  (``python -m repro faults --degraded``);
* :mod:`~repro.apps.topo_scale` -- the scale-out study: the collective
  schedule zoo across datacenter topologies at 16-256 nodes
  (``python -m repro topo``);
* :mod:`~repro.apps.congestion` -- the under-load study: strategies vs
  background traffic, finite switch queues and congestion-controlled
  transports (``python -m repro congestion``);
"""

from repro.apps.allreduce_bench import run_allreduce, strong_scaling_study
from repro.apps.congestion import (
    CongestionExperiment,
    CongestionReport,
    run_congestion_campaign,
)
from repro.apps.deeplearning import WORKLOADS, project_deep_learning
from repro.apps.degraded import (
    DegradedExperiment,
    degraded_report,
    run_degraded_sweep,
)
from repro.apps.jacobi import (
    JacobiExperiment,
    JacobiResult,
    jacobi_reference,
    run_jacobi,
)
from repro.apps.launch_study import LaunchLatencyExperiment, measure_launch_latency
from repro.apps.microbench import (
    MicrobenchExperiment,
    MicrobenchResult,
    run_microbenchmark,
)
from repro.apps.topo_scale import TopoScaleReport, run_topo_campaign

__all__ = [
    "CongestionExperiment",
    "CongestionReport",
    "DegradedExperiment",
    "JacobiExperiment",
    "JacobiResult",
    "LaunchLatencyExperiment",
    "MicrobenchExperiment",
    "MicrobenchResult",
    "TopoScaleReport",
    "WORKLOADS",
    "degraded_report",
    "jacobi_reference",
    "measure_launch_latency",
    "project_deep_learning",
    "run_allreduce",
    "run_congestion_campaign",
    "run_degraded_sweep",
    "run_jacobi",
    "run_microbenchmark",
    "run_topo_campaign",
    "strong_scaling_study",
]
