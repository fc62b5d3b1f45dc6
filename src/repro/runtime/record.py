"""Typed results of one simulated experiment run.

A :class:`RunRecord` is the unit of everything downstream: sweeps return
lists of them, the on-disk cache stores them, and reports assemble their
figures from their ``metrics``.  Records therefore restrict themselves to
JSON-safe scalars so that (a) a record round-trips the cache bit-exactly
and (b) serial and parallel sweeps can be compared byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.version import __version__

__all__ = ["RunRecord", "canonical_json", "config_fingerprint", "json_safe"]

#: One closed tracer span: (node, actor, phase, start_ns, end_ns).
SpanRow = Tuple[str, str, str, int, int]

_SCALARS = (str, int, float, bool, type(None))


def json_safe(value: Any) -> Any:
    """Coerce ``value`` into the JSON-stable subset records may carry.

    Scalars pass through; numpy scalars are unwrapped; sequences become
    lists; mappings keep string keys.  Anything else raises so experiments
    fail loudly instead of caching unpicklable or unstable objects.
    """
    if isinstance(value, bool):  # before int: bool is an int subclass
        return value
    if isinstance(value, _SCALARS):
        return value
    if hasattr(value, "item") and not isinstance(value, (list, tuple, dict)):
        return json_safe(value.item())  # numpy scalar
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): json_safe(v) for k, v in value.items()}
    raise TypeError(f"value {value!r} of type {type(value).__name__} is not "
                    "JSON-safe; experiments must emit scalar metrics")


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, with the
#: encoder built once instead of per call.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return _CANONICAL.encode(obj)


def config_fingerprint(config: Any) -> str:
    """Stable digest of a :class:`~repro.config.SystemConfig` (or any
    dataclass tree of scalars).

    The digest is ``sha256(canonical_json(json_safe(asdict(config))))``,
    but the JSON is assembled from per-instance fragments memoised on
    every frozen dataclass in the tree.  ``SystemConfig.with_()`` and
    ``dataclasses.replace`` keep the unchanged sections' instances, so a
    per-point ``configure()`` re-serialises only the section it replaced.
    The memo is keyed by identity, never by equality: ``1``, ``1.0`` and
    ``True`` compare equal but serialise differently.
    """
    digest = hashlib.sha256(_fragment(config)[0].encode())
    return digest.hexdigest()[:16]


#: Instance attribute holding a frozen dataclass's canonical JSON.  It
#: travels with pickles and copies, which stay valid: the fields they
#: carry are the ones the fragment was built from.
_FRAGMENT_ATTR = "_repro_json_fragment"


@functools.lru_cache(maxsize=None)
def _sorted_fields(cls: type) -> Tuple[Tuple[str, str], ...]:
    """``(name, '"name":')`` per field of dataclass ``cls``, key-sorted."""
    return tuple((name, json.dumps(name) + ":")
                 for name in sorted(f.name for f in dataclasses.fields(cls)))


def _fragment(value: Any) -> Tuple[str, bool]:
    """``(canonical_json(json_safe(asdict-form of value)), immutable)``.

    ``immutable`` is true when nothing below ``value`` can change in
    place (only scalars, tuples and frozen dataclasses): only then may
    an enclosing frozen dataclass memoise its fragment.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        state = getattr(value, "__dict__", None)
        memo = state.get(_FRAGMENT_ATTR) if state is not None else None
        if memo is not None:
            return memo, True
        immutable = type(value).__dataclass_params__.frozen
        parts = []
        for name, key in _sorted_fields(type(value)):
            text, fixed = _fragment(getattr(value, name))
            parts.append(key + text)
            immutable = immutable and fixed
        text = "{" + ",".join(parts) + "}"
        if immutable and state is not None:
            object.__setattr__(value, _FRAGMENT_ATTR, text)
        return text, immutable
    if isinstance(value, (list, tuple)):
        items = [_fragment(v) for v in value]
        return ("[" + ",".join(t for t, _ in items) + "]",
                isinstance(value, tuple) and all(fixed for _, fixed in items))
    return canonical_json(json_safe(value)), isinstance(value, _SCALARS)


@dataclass
class RunRecord:
    """The typed result of one experiment run at one sweep point."""

    experiment: str
    params: Dict[str, Any]
    config_fingerprint: str
    metrics: Dict[str, Any]
    hazards: int = 0
    #: Figure-8-style span decomposition (closed tracer spans), present
    #: only when the run traced.
    spans: Tuple[SpanRow, ...] = ()
    #: Reliability/fault counters (retransmits, timeouts, drops, ...),
    #: populated only when a run armed the reliable transport or a fault
    #: plan.  Empty for plain runs -- and omitted from the JSON form, so
    #: pre-reliability golden fixtures stay byte-identical.
    transport: Dict[str, int] = field(default_factory=dict)
    #: Structured observability dump (:meth:`repro.metrics.MetricsRegistry.
    #: dump`): counters/gauges/histograms/series, populated only when a
    #: run attached a metrics registry.  Empty for plain runs -- and
    #: omitted from the JSON form, so pre-metrics golden fixtures stay
    #: byte-identical.
    telemetry: Dict[str, Any] = field(default_factory=dict)
    code_version: str = field(default=__version__)

    def __post_init__(self) -> None:
        self.params = {str(k): json_safe(v) for k, v in self.params.items()}
        self.metrics = {str(k): json_safe(v) for k, v in self.metrics.items()}
        self.transport = {str(k): int(v) for k, v in self.transport.items()}
        self.telemetry = {str(k): json_safe(v)
                          for k, v in self.telemetry.items()}
        self.spans = tuple(
            (str(n), str(a), str(p), int(s), int(e))
            for n, a, p, s, e in self.spans
        )

    # ------------------------------------------------------------ identity
    def cache_key(self) -> str:
        """Digest identifying this record's sweep point (not its outcome):
        (code version, experiment, config hash, params)."""
        return make_cache_key(self.experiment, self.params,
                              self.config_fingerprint, self.code_version)

    def fingerprint(self) -> str:
        """Digest of the record's full content (outcome included)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -------------------------------------------------------- serialization
    def to_json(self) -> str:
        doc = {
            "experiment": self.experiment,
            "params": self.params,
            "config_fingerprint": self.config_fingerprint,
            "metrics": self.metrics,
            "hazards": self.hazards,
            "spans": [list(s) for s in self.spans],
            "code_version": self.code_version,
        }
        if self.transport:
            doc["transport"] = self.transport
        if self.telemetry:
            doc["telemetry"] = self.telemetry
        return canonical_json(doc)

    @classmethod
    def from_json(cls, text: str) -> "RunRecord":
        doc = json.loads(text)
        return cls(
            experiment=doc["experiment"],
            params=doc["params"],
            config_fingerprint=doc["config_fingerprint"],
            metrics=doc["metrics"],
            hazards=doc["hazards"],
            spans=tuple(tuple(s) for s in doc["spans"]),
            transport=doc.get("transport", {}),
            telemetry=doc.get("telemetry", {}),
            code_version=doc["code_version"],
        )


def make_cache_key(experiment: str, params: Mapping[str, Any],
                   config_fp: str, code_version: str = __version__) -> str:
    digest = hashlib.sha256(canonical_json({
        "experiment": experiment,
        "params": json_safe(dict(params)),
        "config": config_fp,
        "version": code_version,
    }).encode())
    return digest.hexdigest()
