"""Versioned wire codec for the control-plane RPC verbs.

The transport refactor splits :mod:`repro.core.rpc` into two layers:
this module owns the *codec* -- how verbs, replies, and telemetry
documents become bytes -- and :mod:`repro.core.transport` /
:mod:`repro.net` own *delivery*.  Keeping the codec pure (no sockets, no
clocks, no threads) lets it live in the deterministic layer and be
golden-tested byte-for-byte.

Framing
-------
Every frame is a fixed 20-byte header followed by a binary payload::

    !4s B    B    H        Q       I
    PDLL ver  kind reserved corr_id payload_length

``kind`` is one of HELLO / REQUEST / REPLY / ERROR / PUSH.  ``corr_id``
correlates a REPLY or ERROR with the REQUEST that caused it; HELLO and
PUSH frames use 0.  Frames above :data:`MAX_FRAME` payload bytes are
refused by :class:`FrameDecoder` before any allocation.

Payloads
--------
A payload is one value in a compact tagged binary encoding: a one-byte
tag, then the body.  Floats are packed ``!d``, so every double -- -0.0,
NaN and the infinities included -- survives the wire bit-exactly, the
property the cross-transport bit-identity test pins.  Integers of any
size survive; strings are length-prefixed UTF-8.  Tuples, lists,
frozensets, dicts, enums and registered records keep their types, so
a ``StageStats`` decoded from the wire compares equal to the one that
was sent.  The encoding is canonical: dict keys are sorted by
``str(key)`` and frozenset members by their encoded bytes.  Decoding
fails closed: an unknown tag, a length or count past the end of the
payload, nesting past :data:`MAX_DEPTH`, or trailing bytes raise
:class:`~repro.errors.WireError`.

Every RPC verb must be registered here via :func:`register_codec` with
an explicit positional field tuple; the lint rules WIRE001/WIRE002
statically check that every :class:`~repro.core.rpc.RpcMessage`
subclass has a registration and that the registered arity matches the
class's declared fields.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import repro.errors as _errors
from repro.errors import RPCError, WireError
from repro.core.differentiation import ClassifierRule
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
from repro.core.hierarchy import (
    AggregateStats,
    CollectAggregate,
    EnforceJobRate,
    EnforceJobRateBatch,
    JobAggregate,
)

__all__ = [
    "WIRE_VERSION",
    "MAGIC",
    "MAX_FRAME",
    "MAX_DEPTH",
    "HEADER_SIZE",
    "FRAME_HELLO",
    "FRAME_REQUEST",
    "FRAME_REPLY",
    "FRAME_ERROR",
    "FRAME_PUSH",
    "Frame",
    "FrameDecoder",
    "encode_frame",
    "encode_payload",
    "decode_payload",
    "hello_payload",
    "check_hello",
    "error_payload",
    "raise_error",
    "register_codec",
    "register_enum",
    "registered_tags",
]

#: Protocol version carried in every frame header and the HELLO payload.
#: Bump on any incompatible codec or framing change; peers refuse a
#: mismatched HELLO before exchanging any verb.
WIRE_VERSION = 2

MAGIC = b"PDLL"

#: Refuse payloads above this size before buffering them (a corrupted or
#: hostile length field must not drive an allocation).
MAX_FRAME = 4 * 1024 * 1024

_HEADER = struct.Struct("!4sBBHQI")
HEADER_SIZE = _HEADER.size

FRAME_HELLO = 1
FRAME_REQUEST = 2
FRAME_REPLY = 3
FRAME_ERROR = 4
FRAME_PUSH = 5

_FRAME_KINDS = frozenset(
    {FRAME_HELLO, FRAME_REQUEST, FRAME_REPLY, FRAME_ERROR, FRAME_PUSH}
)


class Frame(NamedTuple):
    """One decoded frame: header fields plus the raw payload bytes."""

    kind: int
    corr_id: int
    payload: bytes
    version: int = WIRE_VERSION


# -- binary value codec ------------------------------------------------------
# One value is a one-byte tag followed by its body.  Lengths and counts
# are unsigned 32-bit big-endian; see docs/TRANSPORT.md for the table.

#: Containers (lists, tuples, frozensets, dicts, records, enums) may nest
#: at most this deep.  Both directions enforce it, so anything encode
#: accepts the peer can decode, and a hostile payload cannot drive the
#: decoder's recursion.
MAX_DEPTH = 64

_T_NONE = 0x4E  # N
_T_TRUE = 0x54  # T
_T_FALSE = 0x46  # F
_T_INT = 0x69  # i: !q
_T_BIGINT = 0x49  # I: length, signed big-endian two's complement
_T_FLOAT = 0x64  # d: !d
_T_STR = 0x73  # s: length, UTF-8
_T_LIST = 0x6C  # l: count, values
_T_TUPLE = 0x74  # t: count, values
_T_FROZENSET = 0x7A  # z: count, values ordered by their encoded bytes
_T_DICT = 0x6D  # m: count, (length, UTF-8 key, value) ordered by key
_T_RECORD = 0x72  # r: u8 name length, name, one value per registered field
_T_ENUM = 0x65  # e: u8 name length, name, the member's value

_pack_tagged_int = struct.Struct("!Bq").pack
_pack_tagged_float = struct.Struct("!Bd").pack
_pack_tagged_len = struct.Struct("!BI").pack
_pack_len = struct.Struct("!I").pack
_unpack_int = struct.Struct("!q").unpack_from
_unpack_float = struct.Struct("!d").unpack_from
_unpack_len = struct.Struct("!I").unpack_from
_INT_MIN = -(1 << 63)
_INT_MAX = (1 << 63) - 1
#: Lone surrogates survive the wire instead of failing to encode.
_UTF8 = "utf-8"
_SURROGATES = "surrogatepass"


class _Codec(NamedTuple):
    cls: type
    tag: str
    fields: Tuple[str, ...]
    #: ``r`` or ``e``, the name length and the name: the encoded prefix.
    header: bytes


_BY_CLASS: Dict[type, _Codec] = {}
_BY_TAG: Dict[bytes, _Codec] = {}


def _register(cls: type, tag: str, fields: Tuple[str, ...], kind: int) -> None:
    if not (tag.isascii() and 0 < len(tag) < 256):
        raise WireError(f"wire tag {tag!r} must be 1-255 ASCII characters")
    name = tag.encode("ascii")
    if name in _BY_TAG:
        raise WireError(f"wire tag {tag!r} already registered")
    if cls in _BY_CLASS:
        raise WireError(f"class {cls.__name__} already has a wire codec")
    codec = _Codec(cls, tag, tuple(fields), bytes((kind, len(name))) + name)
    _BY_CLASS[cls] = codec
    _BY_TAG[name] = codec


def register_codec(cls: type, tag: str, fields: Tuple[str, ...]) -> None:
    """Register a positional-field codec for ``cls`` under ``tag``.

    ``fields`` is the exact constructor-argument order; encode reads the
    attributes in that order and decode calls ``cls(*decoded)``.  The
    field tuple is validated against the class's actual attributes at
    registration time, and statically (arity vs. declared fields) by the
    WIRE002 lint rule.
    """
    declared = getattr(cls, "__dataclass_fields__", None)
    if declared is not None:
        init_fields = tuple(
            name for name, f in declared.items() if f.init
        )
        if tuple(fields) != init_fields:
            raise WireError(
                f"wire codec for {cls.__name__} registers fields {fields}, "
                f"but the dataclass declares {init_fields}"
            )
    named = getattr(cls, "_fields", None)
    if named is not None and tuple(fields) != tuple(named):
        raise WireError(
            f"wire codec for {cls.__name__} registers fields {fields}, "
            f"but the NamedTuple declares {tuple(named)}"
        )
    _register(cls, tag, fields, _T_RECORD)


def register_enum(cls: type, tag: str) -> None:
    """Register an :class:`enum.Enum` codec: members travel by value."""
    _register(cls, tag, (), _T_ENUM)


def registered_tags() -> Tuple[str, ...]:
    return tuple(sorted(codec.tag for codec in _BY_TAG.values()))


def _too_deep() -> WireError:
    return WireError(f"wire value nests deeper than MAX_DEPTH {MAX_DEPTH}")


def _encode_str(value: str, out: bytearray) -> None:
    data = value.encode(_UTF8, _SURROGATES)
    out += _pack_tagged_len(_T_STR, len(data))
    out += data


def _encode_int(value: int, out: bytearray) -> None:
    if _INT_MIN <= value <= _INT_MAX:
        out += _pack_tagged_int(_T_INT, value)
        return
    data = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
    out += _pack_tagged_len(_T_BIGINT, len(data))
    out += data


def _encode(value: Any, out: bytearray, depth: int) -> None:
    """Append ``value``'s encoding to ``out``; ``depth`` counts enclosing containers."""
    cls = type(value)
    if cls is float:
        out += _pack_tagged_float(_T_FLOAT, value)
    elif cls is str:
        _encode_str(value, out)
    elif cls in _BY_CLASS:
        if depth >= MAX_DEPTH:
            raise _too_deep()
        codec = _BY_CLASS[cls]
        out += codec.header
        if codec.fields:
            for name in codec.fields:
                _encode(getattr(value, name), out, depth + 1)
        else:
            _encode(value.value, out, depth + 1)
    elif value is None:
        out.append(_T_NONE)
    elif cls is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    # Unregistered subclasses of the scalars (numpy scalars, int enums)
    # travel as the plain scalar.
    elif isinstance(value, int):
        _encode_int(int(value), out)
    elif isinstance(value, float):
        out += _pack_tagged_float(_T_FLOAT, value)
    elif isinstance(value, str):
        _encode_str(value, out)
    elif depth >= MAX_DEPTH and isinstance(value, (list, tuple, dict, frozenset, set)):
        raise _too_deep()
    elif isinstance(value, (list, tuple)):
        out += _pack_tagged_len(_T_LIST if isinstance(value, list) else _T_TUPLE, len(value))
        for item in value:
            _encode(item, out, depth + 1)
    elif isinstance(value, dict):
        items = {key if type(key) is str else str(key): item for key, item in value.items()}
        out += _pack_tagged_len(_T_DICT, len(items))
        for key in sorted(items):
            data = key.encode(_UTF8, _SURROGATES)
            out += _pack_len(len(data))
            out += data
            _encode(items[key], out, depth + 1)
    elif isinstance(value, (frozenset, set)):
        members = []
        for item in value:
            member = bytearray()
            _encode(item, member, depth + 1)
            members.append(bytes(member))
        members.sort()
        out += _pack_tagged_len(_T_FROZENSET, len(members))
        for member in members:
            out += member
    else:
        raise WireError(f"no wire codec for {cls.__module__}.{cls.__qualname__}")


def _malformed(reason: str) -> WireError:
    return WireError(f"malformed frame payload: {reason}")


def _decode(data: bytes, pos: int, depth: int) -> Tuple[Any, int]:
    """Decode the value starting at ``pos``; returns it and the next offset."""
    tag = data[pos]
    pos += 1
    if tag == _T_FLOAT:
        return _unpack_float(data, pos)[0], pos + 8
    if tag == _T_STR:
        end = pos + 4 + _unpack_len(data, pos)[0]
        if end > len(data):
            raise _malformed(f"string at offset {pos - 1} runs past the end")
        return data[pos + 4:end].decode(_UTF8, _SURROGATES), end
    if tag == _T_INT:
        return _unpack_int(data, pos)[0], pos + 8
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    if tag == _T_BIGINT:
        end = pos + 4 + _unpack_len(data, pos)[0]
        if end > len(data):
            raise _malformed(f"integer at offset {pos - 1} runs past the end")
        return int.from_bytes(data[pos + 4:end], "big", signed=True), end
    if depth >= MAX_DEPTH:
        raise _too_deep()
    depth += 1
    if tag == _T_RECORD or tag == _T_ENUM:
        end = pos + 1 + data[pos]
        codec = _BY_TAG.get(data[pos + 1:end])
        if codec is None or codec.header[0] != tag:
            raise WireError(f"unknown wire tag {data[pos + 1:end]!r}")
        try:
            if tag == _T_ENUM:
                value, end = _decode(data, end, depth)
                return codec.cls(value), end
            fields, end = _decode_seq(data, end, len(codec.fields), depth)
            return codec.cls(*fields), end
        except (WireError, IndexError, struct.error, UnicodeDecodeError):
            raise
        except Exception as exc:  # noqa: BLE001 - a hostile field fails closed
            raise WireError(f"cannot rebuild {codec.tag}: {exc}") from exc
    if tag == _T_LIST or tag == _T_TUPLE or tag == _T_FROZENSET or tag == _T_DICT:
        count = _unpack_len(data, pos)[0]
        pos += 4
        # Every entry takes at least one byte (a dict entry five): a count
        # the remaining bytes cannot hold is refused before any work.
        if count * (5 if tag == _T_DICT else 1) > len(data) - pos:
            raise _malformed(f"count {count} at offset {pos - 5} runs past the end")
        if tag == _T_DICT:
            doc = {}
            for _ in range(count):
                end = pos + 4 + _unpack_len(data, pos)[0]
                if end > len(data):
                    raise _malformed(f"dict key at offset {pos} runs past the end")
                key = data[pos + 4:end].decode(_UTF8, _SURROGATES)
                doc[key], pos = _decode(data, end, depth)
            return doc, pos
        items, pos = _decode_seq(data, pos, count, depth)
        if tag == _T_LIST:
            return items, pos
        if tag == _T_TUPLE:
            return tuple(items), pos
        try:
            return frozenset(items), pos
        except TypeError as exc:
            raise _malformed(f"frozenset member: {exc}") from exc
    raise WireError(f"unknown wire tag 0x{tag:02x} at offset {pos - 1}")


def _decode_seq(data: bytes, pos: int, count: int, depth: int) -> Tuple[List[Any], int]:
    """Decode ``count`` consecutive values: a record's fields or a sequence's items."""
    items: List[Any] = []
    for _ in range(count):
        item, pos = _decode(data, pos, depth)
        items.append(item)
    return items, pos


def encode_payload(value: Any) -> bytes:
    """Canonical binary bytes for one frame payload."""
    out = bytearray()
    _encode(value, out, 0)
    return bytes(out)


def decode_payload(data: bytes) -> Any:
    """Inverse of :func:`encode_payload`; any malformed input raises :class:`WireError`."""
    try:
        value, end = _decode(data, 0, 0)
    except (IndexError, struct.error) as exc:
        raise _malformed(f"truncated ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise _malformed(str(exc)) from exc
    if end != len(data):
        raise _malformed(f"{len(data) - end} trailing byte(s)")
    return value


# -- error transport ---------------------------------------------------------

def error_payload(exc: BaseException) -> Dict[str, Any]:
    """The ERROR-frame body for one handler exception."""
    return {"error": type(exc).__name__, "detail": str(exc)}


def raise_error(doc: Any) -> None:
    """Re-raise an ERROR-frame body as the nearest local exception class.

    Only :class:`~repro.errors.ReproError` subclasses travel by name;
    anything else (or an unknown name) degrades to :class:`RPCError` so
    a remote stage can never make the controller raise arbitrary types.
    """
    name = doc.get("error", "RPCError") if isinstance(doc, dict) else "RPCError"
    detail = doc.get("detail", "") if isinstance(doc, dict) else str(doc)
    cls = getattr(_errors, str(name), None)
    if not (isinstance(cls, type) and issubclass(cls, _errors.ReproError)):
        cls = RPCError
    raise cls(str(detail))


# -- framing -----------------------------------------------------------------

def encode_frame(kind: int, corr_id: int, payload: bytes) -> bytes:
    """One header + payload, ready for the socket."""
    if kind not in _FRAME_KINDS:
        raise WireError(f"unknown frame kind {kind}")
    if len(payload) > MAX_FRAME:
        raise WireError(
            f"frame payload {len(payload)} bytes exceeds MAX_FRAME {MAX_FRAME}"
        )
    header = _HEADER.pack(
        MAGIC, WIRE_VERSION, kind, 0, corr_id & ((1 << 64) - 1), len(payload)
    )
    return header + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    ``feed`` accepts any chunking (including single bytes) and yields
    complete frames; partial frames wait in the buffer.  Malformed input
    -- wrong magic, unknown kind, oversized length -- raises
    :class:`~repro.errors.WireError` immediately: framing errors are not
    recoverable mid-stream, the connection must be torn down.

    A header with a foreign protocol version is accepted only for HELLO
    frames (the peer must be able to *parse* a newer hello in order to
    refuse it); any other kind with a version mismatch is fatal.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending(self) -> int:
        """Bytes buffered but not yet framed (mid-frame indicator)."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[Frame]:
        self._buffer.extend(data)
        frames: List[Frame] = []
        while True:
            frame = self._next_frame()
            if frame is None:
                return frames
            frames.append(frame)

    def _next_frame(self) -> Optional[Frame]:
        if len(self._buffer) < HEADER_SIZE:
            return None
        magic, version, kind, _reserved, corr_id, length = _HEADER.unpack_from(
            self._buffer
        )
        if magic != MAGIC:
            raise WireError(f"bad frame magic {bytes(magic)!r}")
        if kind not in _FRAME_KINDS:
            raise WireError(f"unknown frame kind {kind}")
        if length > MAX_FRAME:
            raise WireError(
                f"frame payload {length} bytes exceeds MAX_FRAME {MAX_FRAME}"
            )
        if version != WIRE_VERSION and kind != FRAME_HELLO:
            raise WireError(
                f"frame version {version} != WIRE_VERSION {WIRE_VERSION}"
            )
        if len(self._buffer) < HEADER_SIZE + length:
            return None
        payload = bytes(self._buffer[HEADER_SIZE:HEADER_SIZE + length])
        del self._buffer[:HEADER_SIZE + length]
        return Frame(kind=kind, corr_id=corr_id, payload=payload, version=version)


# -- handshake ---------------------------------------------------------------

def hello_payload(peer: str = "") -> Dict[str, Any]:
    """The HELLO body each side sends before any other frame."""
    return {"version": WIRE_VERSION, "peer": peer}


def check_hello(frame: Frame) -> Dict[str, Any]:
    """Validate a peer's HELLO; raises :class:`WireError` on mismatch.

    The header's version is compared before the payload is decoded: a
    peer on another version encodes its payload in another format, and
    its refusal must name the versions, not a malformed payload.
    """
    if frame.kind != FRAME_HELLO:
        raise WireError(
            f"expected HELLO as the first frame, got kind {frame.kind}"
        )
    if frame.version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer speaks version {frame.version}, "
            f"this side speaks version {WIRE_VERSION}"
        )
    doc = decode_payload(frame.payload)
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: peer's HELLO claims version {version!r}, "
            f"this side speaks version {WIRE_VERSION}"
        )
    return doc


# -- verb registrations ------------------------------------------------------
# Every RpcMessage subclass must appear here (or in its defining module)
# with its full positional field tuple; WIRE001/WIRE002 enforce coverage
# and arity statically, and register_codec re-validates at import time.

register_enum(OperationType, "OperationType")
register_enum(OperationClass, "OperationClass")

register_codec(Ping, "Ping", ("payload",))
register_codec(CollectStats, "CollectStats", ("now",))
register_codec(EnforceRate, "EnforceRate", ("channel_id", "rate", "now", "burst"))
register_codec(CreateChannel, "CreateChannel", ("channel_id", "rate", "now", "burst"))
register_codec(InstallRule, "InstallRule", ("rule",))
register_codec(RemoveRule, "RemoveRule", ("name",))
register_codec(RemoveChannel, "RemoveChannel", ("channel_id",))

register_codec(CollectAggregate, "CollectAggregate", ("now", "channel", "loop_interval"))
register_codec(
    EnforceJobRate, "EnforceJobRate", ("job_id", "channel_id", "rate", "now", "burst")
)
register_codec(EnforceJobRateBatch, "EnforceJobRateBatch", ("channel_id", "now", "entries"))

register_codec(
    ClassifierRule,
    "ClassifierRule",
    ("name", "channel_id", "op_types", "op_classes", "path_prefixes", "job_ids", "priority"),
)
register_codec(
    StageIdentity, "StageIdentity", ("stage_id", "job_id", "hostname", "pid", "user")
)
register_codec(
    ChannelSnapshot,
    "ChannelSnapshot",
    ("channel_id", "granted_ops", "enqueued_ops", "backlog", "rate_limit", "mean_wait", "max_wait"),
)
register_codec(
    StageStats,
    "StageStats",
    ("stage_id", "job_id", "timestamp", "window", "channels", "passthrough_ops"),
)
register_codec(JobAggregate, "JobAggregate", ("job_id", "demand", "n_stages"))
register_codec(AggregateStats, "AggregateStats", ("local_id", "timestamp", "jobs"))
