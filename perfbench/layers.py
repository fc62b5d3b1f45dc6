"""Outside-in per-layer tracer for the repro benchmark.

The tracer never edits ``src/``: it replaces layer methods on their
classes with timing wrappers for the duration of one traced pass and puts
the original class attributes back afterwards (:meth:`Tracer.installed`).
Every wrapped call records one span -- name, start, end, parent span and
sweep-point index -- into column arrays kept in memory, and the self time
of each span name (duration minus the child spans it covers) is summed
online.  :func:`layer_metrics` turns one pass's tallies into the
per-layer metrics named in ``BENCHMARK.json``.

Generator methods (most ``Host`` calls are simulation processes) are
counted once per call and timed per resume: each step the simulator
drives through them is a span of the method's name.

What no span covers is charged to the nearest enclosing span.  In
particular ``sim.self_s`` -- ``Simulator.run`` minus its child spans --
includes the model process bodies and callbacks that no public layer
call wraps.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import statistics
from array import array
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterator, List, Tuple
from contextlib import contextmanager

#: (span name, module, class, method).  Subclasses that override the
#: method in their own ``__dict__`` are wrapped too, under the same name.
LAYER_METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("runtime.execute", "repro.runtime.experiment", "Experiment", "execute"),
    ("runtime.build_cluster", "repro.runtime.experiment", "Experiment",
     "build_cluster"),
    ("runtime.finish", "repro.runtime.experiment", "Experiment", "finish"),
    ("sim.run", "repro.sim.engine", "Simulator", "run"),
    ("net.transmit", "repro.net.fabric", "Fabric", "transmit"),
    ("net.admit", "repro.net.queues", "SwitchQueues", "admit"),
    ("net.route", "repro.net.topology", "Topology", "route"),
    ("nic.transport_send", "repro.nic.transport", "ReliableTransport", "send"),
    ("nic.transport_accept", "repro.nic.transport", "ReliableTransport",
     "on_peer_accept"),
    ("nic.post_put", "repro.nic.device", "Nic", "post_put"),
    ("nic.mmio_write", "repro.nic.device", "Nic", "mmio_write"),
    ("nic.trigger", "repro.nic.triggered", "TriggerList", "trigger"),
    ("gpu.launch", "repro.gpu.device", "Gpu", "launch"),
    ("gpu.enqueue_doorbell", "repro.gpu.device", "Gpu", "enqueue_doorbell"),
    ("memory.record_read", "repro.memory.model", "ScopedMemoryModel",
     "record_read"),
    ("memory.record_write", "repro.memory.model", "ScopedMemoryModel",
     "record_write"),
    ("memory.release", "repro.memory.model", "ScopedMemoryModel", "release"),
    ("memory.acquire", "repro.memory.model", "ScopedMemoryModel", "acquire"),
    ("service.job_run", "repro.service.job", "Job", "run"),
    ("service.run_point", "repro.service.runners", "SweepRunner", "run"),
    ("service.cache_get", "repro.runtime.cache", "ResultCache", "get"),
    ("service.cache_put", "repro.runtime.cache", "ResultCache", "put"),
    ("service.journal_append", "repro.service.store", "JobStore",
     "append_point"),
)

#: Every public method of ``Host`` is a ``host.<method>`` span.
HOST_CLASS = ("repro.host.runtime", "Host")


def import_all_repro() -> List[str]:
    """Import every ``repro`` module (not the CLI entry point); returns
    their names.  Subclass discovery for :func:`targets` relies on it."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)
        names.append(info.name)
    return names


def _subclasses(cls: type) -> Iterator[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def targets() -> List[Tuple[str, type, str]]:
    """``(span name, class, attribute)`` for every wrapped class attribute."""
    out = []
    for span, module, clsname, attr in LAYER_METHODS:
        base = getattr(importlib.import_module(module), clsname)
        seen = set()
        for cls in _subclasses(base):
            if cls not in seen and attr in vars(cls):
                seen.add(cls)
                out.append((span, cls, attr))
    host = getattr(importlib.import_module(HOST_CLASS[0]), HOST_CLASS[1])
    for attr, value in vars(host).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            out.append((f"host.{attr}", host, attr))
    return out


def snapshot(targets_: List[Tuple[str, type, str]]) -> Dict[Tuple[type, str], Any]:
    """The current class attributes behind ``targets_``, keyed by
    ``(class, attribute)``; compare with :func:`assert_pristine`."""
    return {(cls, attr): vars(cls)[attr] for _, cls, attr in targets_}


def assert_pristine(originals: Dict[Tuple[type, str], Any]) -> None:
    """Raise unless every class attribute is the original object."""
    patched = [f"{cls.__qualname__}.{attr}"
               for (cls, attr), value in originals.items()
               if vars(cls).get(attr) is not value]
    if patched:
        raise RuntimeError(f"traced wrappers still installed: {patched}")


class Tracer:
    """Span recorder for one traced pass (see module docstring)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        # One row per span, column-wise (compact: ~40 bytes a span).
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_point = array("l")
        #: Open spans: [span index, name id, start ns, child ns, receiver].
        self._stack: List[list] = []
        #: Sweep-point index of the point being executed (-1 outside).
        self.point = -1
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.incl_ns: Dict[str, int] = {}
        #: Inclusive duration of every ``Experiment.execute`` call.
        self.execute_ns: List[int] = []
        #: ``events_processed`` advanced inside ``Simulator.run``.
        self.events = 0
        #: Records returned by ``Experiment.execute``, in call order.
        self.records: List[Any] = []
        #: ``Job.stats`` of every finished ``Job.run``.
        self.job_stats: List[Dict[str, int]] = []

    # ----------------------------------------------------------- span core
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_ns[name] = 0
            self.incl_ns[name] = 0
        return nid

    def _enter(self, nid: int, receiver: Any) -> list:
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_point.append(self.point)
        self.span_end.append(0)
        frame = [index, nid, 0, 0, receiver]
        stack.append(frame)
        start = frame[2] = perf_counter_ns()
        self.span_start.append(start)
        return frame

    def _exit(self, frame: list) -> int:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        index, nid, start, child, _ = frame
        self.span_end[index] = end
        duration = end - start
        name = self.names[nid]
        self.self_ns[name] += duration - child
        self.incl_ns[name] += duration
        if stack:
            stack[-1][3] += duration
        return duration

    # -------------------------------------------------------------- wrappers
    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        after = {"runtime.execute": self._after_execute,
                 "service.job_run": self._after_job_run}.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                tracer.calls[name] += 1
                return tracer._resumes(nid, fn(*args, **kwargs))
            return gen_wrapper

        if name == "sim.run":
            def sim_wrapper(sim, *args, **kwargs):
                tracer.calls[name] += 1
                before = sim.events_processed
                frame = tracer._enter(nid, sim)
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    tracer._exit(frame)
                    tracer.events += sim.events_processed - before
            return sim_wrapper

        if name == "service.run_point":
            def point_wrapper(state, index, point):
                tracer.calls[name] += 1
                outer, tracer.point = tracer.point, index
                frame = tracer._enter(nid, state)
                try:
                    return fn(state, index, point)
                finally:
                    tracer._exit(frame)
                    tracer.point = outer
            return point_wrapper

        def wrapper(receiver, *args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == nid and stack[-1][4] is receiver:
                # A subclass override calling super(): one logical call.
                return fn(receiver, *args, **kwargs)
            tracer.calls[name] += 1
            frame = tracer._enter(nid, receiver)
            try:
                result = fn(receiver, *args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            if after is not None:
                after(receiver, result, duration)
            return result
        return wrapper

    def _resumes(self, nid: int, gen):
        """Drive ``gen`` step by step, one span per resume."""
        value: Any = None
        error: Any = None
        while True:
            frame = self._enter(nid, gen)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                self._exit(frame)
                return stop.value
            except BaseException:
                self._exit(frame)
                raise
            self._exit(frame)
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into the simulation process
                value, error = None, exc

    def _after_execute(self, experiment: Any, execution: Any,
                       duration: int) -> None:
        self.execute_ns.append(duration)
        self.records.append(execution.record)

    def _after_job_run(self, job: Any, records: Any, duration: int) -> None:
        self.job_stats.append(dict(job.stats))

    # --------------------------------------------------------- install/undo
    @contextmanager
    def installed(self, targets_: List[Tuple[str, type, str]]):
        """Wrap every target for the body of the ``with`` block, then put
        each original class attribute back (also on error)."""
        originals = snapshot(targets_)
        try:
            for name, cls, attr in targets_:
                value = originals[(cls, attr)]
                if isinstance(value, staticmethod):
                    setattr(cls, attr, staticmethod(
                        self._wrap(name, value.__func__)))
                else:
                    setattr(cls, attr, self._wrap(name, value))
            yield self
        finally:
            for (cls, attr), value in originals.items():
                setattr(cls, attr, value)
            assert_pristine(originals)

    # --------------------------------------------------------------- output
    def spans(self) -> Dict[str, Any]:
        """All recorded spans as column lists plus the name table."""
        return {"names": list(self.names),
                "name": self.span_name.tolist(),
                "start_ns": self.span_start.tolist(),
                "end_ns": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "point": self.span_point.tolist()}


def _s(tracer: Tracer, name: str) -> float:
    return tracer.self_ns.get(name, 0) / 1e9


def _calls(tracer: Tracer, name: str) -> int:
    return tracer.calls.get(name, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cache_stats: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``cache_stats`` is the pass's ``ResultCache.stats()`` (empty when the
    workload runs without a cache).  Simulated counters (queue drops,
    ECN marks, retransmits, hazards) are read from the records the pass
    produced, so they are exact.
    """
    transport: Dict[str, int] = {}
    hazards = 0
    for record in tracer.records:
        hazards += record.hazards
        for key, value in record.transport.items():
            transport[key] = transport.get(key, 0) + value
    retransmits = transport.get("retransmits", 0) + transport.get(
        "fast_retransmits", 0)
    data_tx = transport.get("tx_data", 0) + retransmits
    execute_s = [ns / 1e9 for ns in tracer.execute_ns]
    sim_incl_s = tracer.incl_ns.get("sim.run", 0) / 1e9
    memory = ("memory.record_read", "memory.record_write", "memory.release",
              "memory.acquire")
    host = [n for n in tracer.names if n.startswith("host.")]
    service = ("service.job_run", "service.run_point", "service.cache_get",
               "service.cache_put", "service.journal_append")
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    points = {"run": 0, "cache": 0, "journal": 0}
    for stats in tracer.job_stats:
        points["run"] += stats.get("run", 0) + stats.get("restored", 0)
        points["cache"] += stats.get("cache", 0)
        points["journal"] += stats.get("journal", 0)
    return {
        "runtime.execute.count": len(execute_s),
        "runtime.execute_s.p50": statistics.median(execute_s) if execute_s else 0.0,
        "runtime.execute_s.max": max(execute_s, default=0.0),
        "runtime.build_cluster.self_s": _s(tracer, "runtime.build_cluster"),
        "runtime.finish.self_s": _s(tracer, "runtime.finish"),
        "sim.events": tracer.events,
        "sim.self_s": _s(tracer, "sim.run"),
        "sim.events_per_s": _ratio(tracer.events, sim_incl_s),
        "net.transmit.calls": _calls(tracer, "net.transmit"),
        "net.transmit.self_s": _s(tracer, "net.transmit"),
        "net.admit.calls": _calls(tracer, "net.admit"),
        "net.admit.self_s": _s(tracer, "net.admit"),
        "net.route.calls": _calls(tracer, "net.route"),
        "net.route.self_s": _s(tracer, "net.route"),
        "net.admit_per_transmit": _ratio(_calls(tracer, "net.admit"),
                                         _calls(tracer, "net.transmit")),
        "net.queue_drops": transport.get("queue_dropped", 0),
        "net.ecn_marks": transport.get("queue_ecn_marked", 0),
        "nic.transport_send.calls": _calls(tracer, "nic.transport_send"),
        "nic.transport_send.self_s": _s(tracer, "nic.transport_send"),
        "nic.transport_accept.calls": _calls(tracer, "nic.transport_accept"),
        "nic.transport_accept.self_s": _s(tracer, "nic.transport_accept"),
        "nic.post_put.calls": _calls(tracer, "nic.post_put"),
        "nic.post_put.self_s": _s(tracer, "nic.post_put"),
        "nic.mmio_write.calls": _calls(tracer, "nic.mmio_write"),
        "nic.trigger.calls": _calls(tracer, "nic.trigger"),
        "nic.trigger.self_s": _s(tracer, "nic.trigger"),
        "nic.retransmits": retransmits,
        "nic.data_tx": data_tx,
        "nic.useful_ratio": _ratio(_calls(tracer, "nic.transport_accept"),
                                   data_tx),
        "gpu.launch.calls": _calls(tracer, "gpu.launch"),
        "gpu.launch.self_s": _s(tracer, "gpu.launch"),
        "gpu.enqueue_doorbell.calls": _calls(tracer, "gpu.enqueue_doorbell"),
        "memory.record_read.calls": _calls(tracer, "memory.record_read"),
        "memory.record_read.self_s": _s(tracer, "memory.record_read"),
        "memory.record_write.calls": _calls(tracer, "memory.record_write"),
        "memory.fence.calls": (_calls(tracer, "memory.release")
                               + _calls(tracer, "memory.acquire")),
        "memory.self_s": sum(_s(tracer, n) for n in memory),
        "memory.hazards": hazards,
        "host.calls": sum(_calls(tracer, n) for n in host),
        "host.self_s": sum(_s(tracer, n) for n in host),
        "service.cache_get.calls": _calls(tracer, "service.cache_get"),
        "service.cache_get.self_s": _s(tracer, "service.cache_get"),
        "service.cache_lookups": lookups,
        "service.cache_hit_ratio": _ratio(cache_stats.get("hits", 0), lookups),
        "service.cache_put.calls": _calls(tracer, "service.cache_put"),
        "service.cache_put.self_s": _s(tracer, "service.cache_put"),
        "service.journal_append.calls": _calls(tracer, "service.journal_append"),
        "service.journal_append.self_s": _s(tracer, "service.journal_append"),
        "service.points.run": points["run"],
        "service.points.cache": points["cache"],
        "service.points.journal": points["journal"],
        "service.self_s": sum(_s(tracer, n) for n in service),
    }


#: Metrics that must repeat exactly between passes and runs at one seed.
EXACT_METRICS = tuple(
    name for name in layer_metrics(Tracer(), {})
    if name.endswith((".calls", ".count")) or name in (
        "sim.events", "net.queue_drops", "net.ecn_marks", "nic.retransmits",
        "nic.data_tx", "memory.hazards", "service.cache_lookups",
        "service.points.run", "service.points.cache",
        "service.points.journal"))
