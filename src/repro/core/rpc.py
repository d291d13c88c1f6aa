"""RPC fabric between the control plane and data-plane stages.

The paper uses gRPC; what the control loop actually needs is ordered
request/response messaging with three verbs -- register, collect
statistics, enforce rule -- plus failure visibility.  We model that with
typed messages over a pluggable fabric.

This module owns the *verbs* (typed messages) and the server-side
dispatcher (:class:`StageEndpoint`).  The wire stack around them is
layered:

* :mod:`repro.core.wire` -- the codec: versioned, length-prefixed
  binary framing for every verb defined here (``WIRE_VERSION``
  handshake, exact float round-trip);
* :mod:`repro.core.transport` -- the delivery interface
  (:class:`~repro.core.transport.Transport`) with the in-process
  implementation; :mod:`repro.net` adds the socket implementation;
* :mod:`repro.core.fabric` -- :class:`~repro.core.fabric.FaultyFabric`,
  a fault-injection decorator over any transport with per-link seeded
  latency/jitter/loss and scripted partitions.

Callers construct :class:`~repro.core.fabric.FaultyFabric` directly:
with no engine it is the synchronous in-process fabric, with an engine
and a latency it defers delivery, and ``sync_messages`` keeps chosen
verbs (collects) synchronous while enforcement lags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import RPCError
from repro.core.differentiation import ClassifierRule
from repro.core.stage import DataPlaneStage, StageIdentity, StageStats

__all__ = [
    "RpcMessage",
    "Ping",
    "CollectStats",
    "EnforceRate",
    "CreateChannel",
    "InstallRule",
    "RemoveRule",
    "RemoveChannel",
    "StageEndpoint",
]


@dataclass(frozen=True, slots=True)
class RpcMessage:
    """Base class for control-plane -> stage messages."""


@dataclass(frozen=True, slots=True)
class Ping(RpcMessage):
    """Liveness probe; a healthy endpoint echoes the payload."""

    payload: Any = None


@dataclass(frozen=True, slots=True)
class CollectStats(RpcMessage):
    """Ask the stage for its window statistics."""

    now: float = 0.0


@dataclass(frozen=True, slots=True)
class EnforceRate(RpcMessage):
    """Provision one enforcement channel with a new rate."""

    channel_id: str
    rate: float
    now: float
    burst: Optional[float] = None


@dataclass(frozen=True, slots=True)
class CreateChannel(RpcMessage):
    """Create an enforcement channel on the stage."""

    channel_id: str
    rate: float
    now: float
    burst: Optional[float] = None


@dataclass(frozen=True, slots=True)
class InstallRule(RpcMessage):
    """Install a differentiation rule on the stage."""

    rule: ClassifierRule


@dataclass(frozen=True, slots=True)
class RemoveRule(RpcMessage):
    """Remove a differentiation rule from the stage."""

    name: str


@dataclass(frozen=True, slots=True)
class RemoveChannel(RpcMessage):
    """Tear down an enforcement channel (refused while it holds backlog)."""

    channel_id: str


class StageEndpoint:
    """Server-side adapter: dispatches RPC messages onto a stage."""

    def __init__(self, stage: DataPlaneStage) -> None:
        self.stage = stage

    def handle(self, message: RpcMessage) -> Any:
        # CollectStats first: it is the once-per-loop-tick hot message.
        if isinstance(message, CollectStats):
            return self.stage.collect(message.now)
        if isinstance(message, Ping):
            return message.payload
        if isinstance(message, EnforceRate):
            self.stage.set_channel_rate(
                message.channel_id, message.rate, message.now, message.burst
            )
            return True
        if isinstance(message, CreateChannel):
            self.stage.create_channel(
                message.channel_id, message.rate, message.burst, now=message.now
            )
            return True
        if isinstance(message, InstallRule):
            self.stage.add_classifier_rule(message.rule)
            return True
        if isinstance(message, RemoveRule):
            self.stage.remove_classifier_rule(message.name)
            return True
        if isinstance(message, RemoveChannel):
            self.stage.remove_channel(message.channel_id)
            return True
        raise RPCError(f"unhandled message type {type(message).__name__}")
