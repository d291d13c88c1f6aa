"""Generative codec tests: arbitrary values round-trip, mangled bytes fail closed.

Two properties over Hypothesis-drawn inputs:

* every value built from the supported types -- scalars of any size,
  lists, tuples, frozensets, dicts, enums and every registered record --
  decodes to the same value with the same types, and re-encodes to the
  same bytes (floats are compared by bit pattern, so -0.0 and NaN count);
* a valid payload that is truncated, has a byte flipped, has a hostile
  length or count written over it, or is replaced by arbitrary bytes
  decodes to a value or raises :class:`~repro.errors.WireError` -- never
  another exception -- quickly and without a large allocation.

The example count comes from the active Hypothesis profile (see
``tests/conftest.py``); CI's ``wire-fuzz`` step runs these at a higher
count.
"""

from __future__ import annotations

import struct
import time
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from repro.core.differentiation import ClassifierRule
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRate,
    EnforceJobRateBatch,
    JobAggregate,
)
from repro.core.requests import OperationClass, OperationType
from repro.core.rpc import (
    CollectStats,
    CreateChannel,
    EnforceRate,
    InstallRule,
    Ping,
    RemoveChannel,
    RemoveRule,
)
from repro.core.stage import ChannelSnapshot, StageIdentity, StageStats
from repro.core.wire import decode_payload, encode_payload, registered_tags
from repro.errors import WireError

names = st.text(min_size=1, max_size=12)
floats = st.floats()
maybe_float = st.none() | floats
enums = st.sampled_from(list(OperationType)) | st.sampled_from(list(OperationClass))
scalars = st.none() | st.booleans() | st.integers() | floats | st.text() | enums

snapshots = st.builds(ChannelSnapshot, names, floats, floats, floats, floats, floats, floats)
rules = st.builds(
    ClassifierRule,
    name=names,
    channel_id=names,
    op_types=st.frozensets(st.sampled_from(list(OperationType)), min_size=1),
    op_classes=st.none() | st.frozensets(st.sampled_from(list(OperationClass))),
    path_prefixes=st.none() | st.lists(names.map(lambda s: "/" + s.strip("/")), min_size=1, max_size=3).map(tuple),
    job_ids=st.none() | st.frozensets(names, max_size=3),
    priority=st.integers(),
)
job_aggregates = st.builds(JobAggregate, names, floats, st.integers())

#: One strategy per registered record tag.
RECORDS = {
    "Ping": st.builds(Ping, scalars),
    "CollectStats": st.builds(CollectStats, floats),
    "EnforceRate": st.builds(EnforceRate, names, floats, floats, maybe_float),
    "CreateChannel": st.builds(CreateChannel, names, floats, floats, maybe_float),
    "InstallRule": st.builds(InstallRule, rules),
    "RemoveRule": st.builds(RemoveRule, names),
    "RemoveChannel": st.builds(RemoveChannel, names),
    "CollectAggregate": st.builds(CollectAggregate, floats, names, floats),
    "EnforceJobRate": st.builds(EnforceJobRate, names, names, floats, floats, maybe_float),
    "EnforceJobRateBatch": st.builds(
        EnforceJobRateBatch,
        names,
        floats,
        st.lists(st.tuples(names, floats, maybe_float), max_size=4).map(tuple),
    ),
    "ClassifierRule": rules,
    "StageIdentity": st.builds(StageIdentity, names, names, st.text(), st.integers(), st.text()),
    "ChannelSnapshot": snapshots,
    "StageStats": st.builds(
        StageStats, names, names, floats, floats,
        st.lists(snapshots, max_size=3).map(tuple), floats,
    ),
    "JobAggregate": job_aggregates,
    "AggregateStats": st.builds(
        AggregateStats, names, floats, st.lists(job_aggregates, max_size=3).map(tuple)
    ),
}
ENUM_TAGS = {"OperationType", "OperationClass"}

records = st.one_of(*RECORDS.values())
values = st.recursive(
    scalars | records,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.frozensets(scalars, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4)
    ),
    max_leaves=16,
)


def assert_same(got, want):
    """Structural equality that also pins types and float bit patterns."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert struct.pack("!d", got) == struct.pack("!d", want)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    elif isinstance(want, dict):
        assert list(got) == sorted(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, frozenset):
        # Members may hold NaN; canonical bytes compare them exactly.
        assert encode_payload(got) == encode_payload(want)
    elif hasattr(want, "__dataclass_fields__"):
        for name, spec in want.__dataclass_fields__.items():
            if spec.init:
                assert_same(getattr(got, name), getattr(want, name))
    else:
        assert got == want


def test_every_registered_tag_has_a_strategy():
    assert set(RECORDS) | ENUM_TAGS == set(registered_tags())


@given(values)
def test_round_trip(value):
    payload = encode_payload(value)
    decoded = decode_payload(payload)
    assert_same(decoded, value)
    assert encode_payload(decoded) == payload


#: Values a hostile peer would write over a length or count field.
HOSTILE_U32 = (0xFFFFFFFF, 0x80000000, 0x7FFFFFFF, 1 << 24, 1 << 16)


@st.composite
def mangled_payloads(draw):
    payload = encode_payload(draw(values))
    how = draw(st.sampled_from(("truncate", "flip", "length", "random")))
    if how == "truncate":
        return payload[: draw(st.integers(0, len(payload) - 1))]
    if how == "flip":
        data = bytearray(payload)
        data[draw(st.integers(0, len(data) - 1))] ^= draw(st.integers(1, 255))
        return bytes(data)
    if how == "length":
        data = bytearray(payload)
        at = draw(st.integers(0, len(data)))
        hostile = draw(st.sampled_from(HOSTILE_U32 + (len(data), len(data) + 1)))
        data[at:at + 4] = struct.pack("!I", hostile)
        return bytes(data)
    return draw(st.binary(max_size=64))


@given(mangled_payloads())
def test_mangled_payload_fails_closed(data):
    tracemalloc.start()
    started = time.perf_counter()
    try:
        decode_payload(data)
    except WireError:
        pass
    finally:
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < (1 << 20) + 256 * len(data)
