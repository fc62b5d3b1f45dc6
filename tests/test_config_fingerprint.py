"""``config_fingerprint`` equals its defining formula.

The fingerprint is ``sha256(canonical_json(json_safe(asdict(config))))``
cut to 16 hex digits.  It is assembled from JSON fragments memoised per
frozen config section, so these properties compare it with that formula
over configs built by ``with_()``/``replace()`` on every section, fault
configs with flap and stall tuples, and int/float/bool field values
that compare equal but serialise differently.
"""

import dataclasses
import hashlib
import json
import pathlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.config import (CacheConfig, FaultConfig, LinkFlap,  # noqa: E402
                          NicStall, SystemConfig, default_config)
from repro.runtime.record import (canonical_json,  # noqa: E402
                                  config_fingerprint, json_safe)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def legacy_fingerprint(config) -> str:
    payload = json_safe(dataclasses.asdict(config))
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


_names = st.sampled_from(["n0", "n1", "n2", "n3"])
_ints = st.integers(min_value=0, max_value=10**6)
# Values whose JSON differs although they compare equal: 1 / 1.0 / True.
_numbers = st.one_of(st.booleans(), st.integers(0, 3),
                     st.sampled_from([0.0, 1.0, 2.0, 0.5]))

_flaps = st.builds(
    lambda node, start, width: LinkFlap(node, start, start + width),
    _names, _ints, st.integers(1, 1000))
_stalls = st.builds(
    lambda node, start, width: NicStall(node, start, start + width),
    _names, _ints, st.integers(1, 1000))
_faults = st.builds(
    FaultConfig,
    drop_prob=st.sampled_from([0.0, 0, 0.25, 1, 1.0, True, False]),
    corrupt_prob=st.sampled_from([0.0, 0.1]),
    jitter_ns=st.integers(0, 100),
    link_drop=st.lists(st.tuples(st.sampled_from(["n0->n1", "n1->n0"]),
                                 st.sampled_from([0.5, 0, 1.0])),
                       max_size=2).map(tuple),
    flaps=st.lists(_flaps, max_size=3).map(tuple),
    stalls=st.lists(_stalls, max_size=3).map(tuple))

_cache_sections = st.builds(CacheConfig, size_bytes=st.sampled_from(
    [16 * 1024, 64 * 1024]), assoc=st.sampled_from([2, 4]),
    latency_cycles=_numbers.filter(lambda v: v >= 1))

#: One ``replace()`` per section, each touching int, float and bool-ish
#: fields, so the tree mixes memoised and fresh sections.
_section_edits = st.one_of(
    st.builds(lambda v: ("cpu", {"cores": v}), st.integers(1, 16)),
    st.builds(lambda v: ("cpu", {"freq_ghz": v}), _numbers),
    st.builds(lambda c: ("cpu", {"l2": c}), _cache_sections),
    st.builds(lambda v: ("gpu", {"compute_units": v}), st.integers(1, 64)),
    st.builds(lambda c: ("gpu", {"l1d": c}), _cache_sections),
    st.builds(lambda v: ("kernel", {"launch_ns": v}), _ints),
    st.builds(lambda v: ("memory", {"bytes_per_ns": v}), _numbers),
    st.builds(lambda v: ("nic", {"trigger_lookup_ns": v}), _numbers),
    st.builds(lambda v: ("network", {"bandwidth_gbps": v}), _numbers),
    st.builds(lambda v: ("network", {"topology": v}),
              st.sampled_from(["star", "fat-tree:k=4", "torus:4x4"])),
    st.builds(lambda v: ("seed", v), st.one_of(_ints, st.booleans())),
)


def _apply(config: SystemConfig, edit) -> SystemConfig:
    section, change = edit
    if section == "seed":
        return dataclasses.replace(config, seed=change)
    return config.with_(**{section: dataclasses.replace(
        getattr(config, section), **change)})


@given(st.lists(_section_edits, max_size=6))
def test_fingerprint_matches_legacy_formula_after_edits(edits):
    config = default_config()
    config_fingerprint(config)  # memoise every section of the base
    for edit in edits:
        config = _apply(config, edit)
        assert config_fingerprint(config) == legacy_fingerprint(config)
    # Repeated calls on the same instance serve the memo unchanged.
    assert config_fingerprint(config) == config_fingerprint(config)
    assert config_fingerprint(config) == legacy_fingerprint(config)


@given(_faults)
def test_fault_config_fingerprint_matches_legacy_formula(faults):
    first = config_fingerprint(faults)
    assert first == legacy_fingerprint(faults)
    assert config_fingerprint(faults) == first


def test_equal_configs_with_different_json_keep_distinct_fingerprints():
    base = default_config()
    as_int = base.with_(memory=dataclasses.replace(base.memory,
                                                   bytes_per_ns=1))
    as_float = base.with_(memory=dataclasses.replace(base.memory,
                                                     bytes_per_ns=1.0))
    as_bool = base.with_(memory=dataclasses.replace(base.memory,
                                                    bytes_per_ns=True))
    assert as_int == as_float == as_bool
    fps = [config_fingerprint(c) for c in (as_int, as_float, as_bool)]
    assert len(set(fps)) == 3
    assert fps == [legacy_fingerprint(c) for c in (as_int, as_float, as_bool)]


def test_mutable_values_are_never_memoised():
    @dataclasses.dataclass(frozen=True)
    class Holder:
        values: list
        table: dict

    holder = Holder([1, 2], {"a": 1})
    assert config_fingerprint(holder) == legacy_fingerprint(holder)
    holder.values.append(3)
    assert config_fingerprint(holder) == legacy_fingerprint(holder)
    holder.table["b"] = 2.0
    assert config_fingerprint(holder) == legacy_fingerprint(holder)


def test_golden_fixture_fingerprints_are_unchanged():
    docs = {p.stem: json.loads(p.read_text())
            for p in sorted(GOLDEN_DIR.glob("*.json"))}
    # A point that names its topology runs on the default config with
    # that topology swapped into the network section (its configure()).
    fingerprints = {doc["config_fingerprint"] for doc in docs.values()
                    if "topology" not in doc["params"]}
    assert fingerprints == {"8dfb8f1d172fc7b9"}
    assert fingerprints == {config_fingerprint(default_config())}
    routed = {name: doc["config_fingerprint"] for name, doc in docs.items()
              if "topology" in doc["params"]}
    assert routed == {"congestion-gputn-red-ecn": "1abc72fbd9364ff8",
                      "congestion-hdn-drop-tail": "1abc72fbd9364ff8",
                      "zoo-dragonfly-gputn": "d1dedd12053ceed4",
                      "zoo-torus-gds": "484da434f4ef100d"}
    base = default_config()
    for name, fp in routed.items():
        network = dataclasses.replace(
            base.network, topology=docs[name]["params"]["topology"])
        assert fp == config_fingerprint(base.with_(network=network)), name
