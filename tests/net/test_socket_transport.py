"""Socket transport failure edges: the wire must fail loudly and cleanly.

Each test drives a real localhost TCP pair.  The edges pinned here are
the ones an out-of-process control plane actually meets: a worker dying
mid-frame, a corrupt or hostile length field, a peer speaking the wrong
protocol version, and replies landing after their request's deadline
already expired (stale correlation ids must be discarded, never
mistaken for fresh replies).
"""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.core.rpc import CollectStats, Ping, StageEndpoint
from repro.core.stage import DataPlaneStage, StageIdentity
from repro.core.wire import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_REPLY,
    FRAME_REQUEST,
    MAX_FRAME,
    WIRE_VERSION,
    FrameDecoder,
    decode_payload,
    encode_frame,
    encode_payload,
    hello_payload,
)
from repro.errors import RPCError, StageNotRegistered, WireError
from repro.net import SocketTransport


def _drain_frames(sock, decoder, want, timeout=5.0):
    """Read frames off a raw socket until ``want`` arrived (or timeout)."""
    sock.settimeout(timeout)
    frames = []
    while len(frames) < want:
        data = sock.recv(65536)
        if not data:
            break
        frames.extend(decoder.feed(data))
    return frames


class _Pair:
    """A listening transport plus captured accepted connections."""

    def __init__(self, **listen_kwargs):
        self.transport = SocketTransport()
        self.accepted = []
        self._seen = threading.Event()
        self.host, self.port = self.transport.listen(
            "127.0.0.1", 0, on_connect=self._on_connect, **listen_kwargs
        )

    def _on_connect(self, connection):
        self.accepted.append(connection)
        self._seen.set()

    def wait_accepted(self, timeout=5.0):
        assert self._seen.wait(timeout), "peer never connected"
        return self.accepted[-1]

    def close(self):
        self.transport.close()


@pytest.fixture()
def pair():
    p = _Pair()
    yield p
    p.close()


def _wait(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestRoundTrip:
    def test_reverse_tunnel_request(self, pair):
        """The dialing side's endpoints answer requests from the listener."""
        worker = SocketTransport()
        stage = DataPlaneStage(
            StageIdentity("job0/s0", "job0"), sink=lambda req: None
        )
        stage.create_channel("metadata", 100.0, now=0.0)
        worker.bind("job0/s0", StageEndpoint(stage).handle)
        worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.attach("job0/s0", accepted)
        stats = pair.transport.call("job0/s0", CollectStats(now=1.0))
        assert stats.stage_id == "job0/s0"
        assert stats.channels[0].channel_id == "metadata"
        worker.close()

    def test_unbound_address_raises_remotely(self, pair):
        worker = SocketTransport()
        worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.attach("ghost", accepted)
        with pytest.raises(StageNotRegistered, match="'ghost' not bound"):
            pair.transport.call("ghost", Ping())
        worker.close()

    def test_threads_join_on_close(self):
        pair = _Pair()
        worker = SocketTransport()
        worker.connect(pair.host, pair.port, name="worker")
        pair.wait_accepted()
        worker.close()
        pair.close()
        assert _wait(
            lambda: not [
                t
                for t in threading.enumerate()
                if t.name.startswith("padll-net")
            ]
        ), [t.name for t in threading.enumerate()]


class TestMidFrameDisconnect:
    def test_partial_frame_then_eof(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        # A frame whose header promises more payload than ever arrives.
        partial = encode_frame(FRAME_ERROR, 9, b'{"error":"x","detail":"y"}')
        raw.sendall(partial[:-5])
        raw.close()
        assert _wait(lambda: accepted.closed)
        assert "mid-frame" in accepted.close_reason
        assert "bytes buffered" in accepted.close_reason

    def test_clean_eof_is_not_mid_frame(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        raw.close()
        assert _wait(lambda: accepted.closed)
        assert accepted.close_reason == "peer disconnected"


class TestOversizedFrame:
    def test_hostile_length_field_refused(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        decoder = FrameDecoder()
        _drain_frames(raw, decoder, 1)  # the listener's own HELLO
        # Header declares a payload far beyond MAX_FRAME; the peer must
        # refuse *before* buffering, with an ERROR frame explaining why.
        evil = struct.pack(
            "!4sBBHQI", b"PDLL", WIRE_VERSION, FRAME_ERROR, 0, 0, MAX_FRAME + 1
        )
        raw.sendall(evil)
        frames = _drain_frames(raw, decoder, 1)
        assert frames, "expected an ERROR frame before teardown"
        doc = decode_payload(frames[-1].payload)
        assert doc["error"] == "WireError"
        assert "MAX_FRAME" in doc["detail"]
        assert _wait(lambda: accepted.closed)
        assert "protocol error" in accepted.close_reason
        raw.close()


class TestVersionMismatch:
    def _foreign_hello(self) -> bytes:
        body = dict(hello_payload())
        body["version"] = WIRE_VERSION + 1
        payload = encode_payload(body)
        return struct.pack(
            "!4sBBHQI",
            b"PDLL",
            WIRE_VERSION + 1,
            FRAME_HELLO,
            0,
            0,
            len(payload),
        ) + payload

    def test_listener_refuses_foreign_version(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        decoder = FrameDecoder()
        accepted_hello = _drain_frames(raw, decoder, 1)
        assert accepted_hello[0].kind == FRAME_HELLO
        raw.sendall(self._foreign_hello())
        accepted = pair.wait_accepted()
        frames = _drain_frames(raw, decoder, 1)
        doc = decode_payload(frames[-1].payload)
        assert doc["error"] == "WireError"
        assert "version mismatch" in doc["detail"]
        assert _wait(lambda: accepted.closed)
        raw.close()

    def test_listener_names_both_versions_to_a_v1_peer(self, pair):
        # A peer from before the binary codec: a version-1 header and a
        # JSON HELLO body.  It must be refused as a version mismatch, not
        # as a malformed payload.
        raw = socket.create_connection((pair.host, pair.port))
        decoder = FrameDecoder()
        _drain_frames(raw, decoder, 1)
        body = b'{"peer":"old","version":1}'
        raw.sendall(struct.pack("!4sBBHQI", b"PDLL", 1, FRAME_HELLO, 0, 0, len(body)) + body)
        accepted = pair.wait_accepted()
        frames = _drain_frames(raw, decoder, 1)
        doc = decode_payload(frames[-1].payload)
        assert doc["error"] == "WireError"
        assert "version mismatch" in doc["detail"]
        assert "version 1" in doc["detail"]
        assert f"version {WIRE_VERSION}" in doc["detail"]
        assert _wait(lambda: accepted.closed)
        raw.close()

    def test_dialer_handshake_raises_on_foreign_version(self):
        # A fake "controller" that speaks tomorrow's protocol.
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()[:2]

        def serve():
            conn, _ = server.accept()
            conn.sendall(self._foreign_hello())
            try:
                conn.recv(65536)  # the dialer's HELLO + its ERROR refusal
            except OSError:
                pass

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        transport = SocketTransport()
        with pytest.raises(WireError, match="version mismatch"):
            transport.connect(host, port, timeout=5.0)
        thread.join(5.0)
        server.close()
        transport.close()


class TestStaleReplies:
    def test_deadline_miss_discards_late_reply(self, pair):
        worker = SocketTransport()
        gate = threading.Event()

        def slow_handler(message):
            gate.wait(5.0)
            return "late"

        def fast_handler(message):
            return "fresh"

        worker.bind("slow", slow_handler)
        worker.bind("fast", fast_handler)
        worker.connect(pair.host, pair.port, name="worker")
        accepted = pair.wait_accepted()
        pair.transport.attach("slow", accepted, deadline=0.1)
        pair.transport.attach("fast", accepted)
        with pytest.raises(RPCError, match="missed its 0.1s deadline"):
            pair.transport.call("slow", Ping())
        gate.set()  # let the late reply sail in
        assert _wait(lambda: accepted.stale_replies == 1)
        # The abandoned id's reply must not bleed into the next call.
        assert pair.transport.call("fast", Ping()) == "fresh"
        assert accepted.stale_replies == 1
        worker.close()

    def test_never_issued_corr_id_discarded(self, pair):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        raw.sendall(encode_frame(FRAME_REPLY, 999, encode_payload("phantom")))
        assert _wait(lambda: accepted.stale_replies == 1)
        assert not accepted.closed
        raw.close()


#: Payloads nested far past any sane depth: JSON text (what a parser
#: with an unbounded recursive descent chokes on) and the binary
#: encoding's own list tag.
_DEEP_PAYLOADS = {
    "json-text": b"[" * 100_000,
    "binary-lists": b"l\x00\x00\x00\x01" * 100_000 + b"N",
}


class TestHostileNesting:
    """A deeply nested payload must never kill a connection's reader.

    A dead reader leaves the connection reporting ``closed == False``
    while every later request on it hangs until its deadline.  Either
    outcome below is acceptable -- an ERROR reply, or a teardown with a
    ``close_reason`` -- but the connection must stay responsive or say
    it is gone.
    """

    @pytest.mark.parametrize("payload", _DEEP_PAYLOADS.values(), ids=_DEEP_PAYLOADS)
    def test_deep_request(self, pair, payload):
        pair.transport.bind("echo", lambda message: message)
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        decoder = FrameDecoder()
        _drain_frames(raw, decoder, 1)  # the listener's HELLO
        raw.sendall(encode_frame(FRAME_REQUEST, 5, payload))
        frames = _drain_frames(raw, decoder, 1, timeout=3.0)
        if frames:
            assert frames[0].kind == FRAME_ERROR
            assert frames[0].corr_id in (0, 5)
        if not accepted.closed:
            # Still open: the reader must still be serving requests.
            request = encode_payload({"to": "echo", "msg": Ping(payload="alive")})
            raw.sendall(encode_frame(FRAME_REQUEST, 6, request))
            frames = _drain_frames(raw, decoder, 1, timeout=3.0)
            assert frames, "connection open but its reader is dead"
            assert frames[0].kind == FRAME_REPLY
            assert decode_payload(frames[0].payload) == Ping(payload="alive")
        else:
            assert accepted.close_reason
        raw.close()

    @pytest.mark.parametrize("payload", _DEEP_PAYLOADS.values(), ids=_DEEP_PAYLOADS)
    def test_deep_reply(self, pair, payload):
        raw = socket.create_connection((pair.host, pair.port))
        raw.sendall(encode_frame(FRAME_HELLO, 0, encode_payload(hello_payload())))
        accepted = pair.wait_accepted()
        decoder = FrameDecoder()
        _drain_frames(raw, decoder, 1)  # the listener's HELLO
        pair.transport.attach("stage", accepted, deadline=3.0)
        outcomes = []

        def call():
            try:
                outcomes.append(pair.transport.call("stage", Ping()))
            except RPCError as exc:
                outcomes.append(exc)

        caller = threading.Thread(target=call)
        caller.start()
        request = _drain_frames(raw, decoder, 1)[0]
        assert request.kind == FRAME_REQUEST
        started = time.monotonic()
        raw.sendall(encode_frame(FRAME_REPLY, request.corr_id, payload))
        caller.join(5.0)
        # The caller hears of the bad reply at once, not at its deadline.
        assert time.monotonic() - started < 2.0
        assert isinstance(outcomes[0], RPCError)
        assert "deadline" not in str(outcomes[0])
        if not accepted.closed:
            caller = threading.Thread(target=call)
            caller.start()
            request = _drain_frames(raw, decoder, 1)[0]
            raw.sendall(encode_frame(FRAME_REPLY, request.corr_id, encode_payload("ok")))
            caller.join(5.0)
            assert outcomes[1] == "ok", "connection open but its reader is dead"
        else:
            assert accepted.close_reason
        raw.close()
