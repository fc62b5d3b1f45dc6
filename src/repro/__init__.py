"""repro — a simulation-based reproduction of GPU Triggered Networking (SC17).

The package implements, in pure Python + NumPy:

* a discrete-event simulator (``repro.sim``) standing in for gem5,
* a coherent-SoC node model: CPU (``repro.host``), GPU (``repro.gpu``),
  NIC with Portals-4-style triggered operations (``repro.nic``), shared
  memory with a scoped memory model (``repro.memory``),
* a switched fabric with star / fat-tree / dragonfly / torus topologies
  (``repro.net``),
* the GPU-TN programming model (``repro.api``) -- the paper's contribution,
* four end-to-end networking strategies (``repro.strategies``): CPU, HDN,
  GDS and GPU-TN,
* libNBC-style non-blocking collectives (``repro.collectives``),
* the paper's applications (``repro.apps``): latency microbenchmark,
  2D Jacobi relaxation, ring Allreduce, deep-learning projection, and
* the supporting subsystems: experiment runtime (``repro.runtime``),
  invariant fuzzing (``repro.validate``), fault injection
  (``repro.faults``), background traffic generation (``repro.traffic``),
  metrics (``repro.metrics``) and the simulator performance harness
  (``repro.bench``).

This module is the **public facade**: every blessed entry point is
importable directly from ``repro`` (lazily, so ``import repro`` stays
light).  Deep imports (``from repro.runtime import Experiment``) keep
working -- the facade re-exports, it does not relocate.

Quickstart::

    from repro import Cluster, GpuTnEndpoint, default_config
    # ... build a cluster, register triggered puts, launch kernels; see
    # examples/quickstart.py for the end-to-end Figure 6/7 flow.

Or at the experiment level::

    from repro import Experiment, Observers, attach_metrics  # noqa: F401
    from repro.apps.microbench import MicrobenchExperiment
    record = MicrobenchExperiment().run({"strategy": "gputn"})
    print(record.metrics["target_completion_ns"])
"""

from repro.config import SystemConfig, default_config
from repro.version import __version__

#: The blessed public surface.  Names not importable eagerly above are
#: provided lazily through ``__getattr__`` (PEP 562).
__all__ = [
    "Cluster",
    "CollectiveExperiment",
    "Experiment",
    "FaultPlan",
    "GpuTnEndpoint",
    "Job",
    "JobStore",
    "MetricsRegistry",
    "Observers",
    "QueueConfig",
    "ReliabilityConfig",
    "ResultCache",
    "RunRecord",
    "STRATEGIES",
    "Sweep",
    "SystemConfig",
    "__version__",
    "attach_metrics",
    "attach_traffic",
    "default_config",
    "discrete_gpu_config",
    "make_topology",
    "project_deep_learning",
    "run_allreduce",
    "run_bench",
    "run_collective",
    "run_congestion_campaign",
    "run_jacobi",
    "run_microbenchmark",
    "run_topo_campaign",
]

#: Lazy re-exports: public name -> (module, attribute).
_LAZY = {
    "Cluster": ("repro.cluster", "Cluster"),
    "CollectiveExperiment": ("repro.collectives", "CollectiveExperiment"),
    "Experiment": ("repro.runtime", "Experiment"),
    "FaultPlan": ("repro.faults", "FaultPlan"),
    "GpuTnEndpoint": ("repro.api", "GpuTnEndpoint"),
    "Job": ("repro.service", "Job"),
    "JobStore": ("repro.service", "JobStore"),
    "MetricsRegistry": ("repro.metrics", "MetricsRegistry"),
    "Observers": ("repro.runtime", "Observers"),
    "QueueConfig": ("repro.config", "QueueConfig"),
    "ReliabilityConfig": ("repro.config", "ReliabilityConfig"),
    "ResultCache": ("repro.runtime", "ResultCache"),
    "RunRecord": ("repro.runtime", "RunRecord"),
    "STRATEGIES": ("repro.strategies", "STRATEGIES"),
    "Sweep": ("repro.runtime", "Sweep"),
    "attach_metrics": ("repro.metrics", "attach_metrics"),
    "attach_traffic": ("repro.traffic", "attach_traffic"),
    "discrete_gpu_config": ("repro.presets", "discrete_gpu_config"),
    "make_topology": ("repro.net", "make_topology"),
    "project_deep_learning": ("repro.apps.deeplearning", "project_deep_learning"),
    "run_allreduce": ("repro.apps.allreduce_bench", "run_allreduce"),
    "run_bench": ("repro.bench", "run_bench"),
    "run_collective": ("repro.collectives", "run_collective"),
    "run_congestion_campaign": ("repro.apps.congestion",
                                "run_congestion_campaign"),
    "run_jacobi": ("repro.apps.jacobi", "run_jacobi"),
    "run_microbenchmark": ("repro.apps.microbench", "run_microbenchmark"),
    "run_topo_campaign": ("repro.apps.topo_scale", "run_topo_campaign"),
}


def __getattr__(name: str):
    # Lazy re-exports keep `import repro` light while exposing the full API.
    try:
        module, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module), attr)


def __dir__():
    return sorted(set(globals()) | set(__all__))
