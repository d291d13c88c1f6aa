"""Tests for the RPC fabric's delivery modes and the stage endpoint.

:class:`FaultyFabric` without an engine is the synchronous in-memory
fabric; with an engine and a latency it is the simulated fabric; with
``sync_messages`` it is the delayed-enforcement fabric of the control-lag
ablation.  Fault injection proper lives in ``test_fabric.py``.
"""

from __future__ import annotations

import pytest

from repro.errors import RPCError, StageNotRegistered
from repro.core.differentiation import ClassifierRule
from repro.core.fabric import FaultyFabric, LinkProfile
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.rpc import (
    CollectStats,
    CreateChannel,
    EnforceRate,
    InstallRule,
    Ping,
    StageEndpoint,
)
from repro.core.stage import DataPlaneStage, StageIdentity


def make_stage():
    return DataPlaneStage(StageIdentity("s0", "job0"), lambda req: None)


def sim_fabric(env, latency):
    return FaultyFabric(env, link=LinkProfile(latency=latency))


def delayed_enforce_fabric(env, latency):
    return FaultyFabric(
        env, link=LinkProfile(latency=latency), sync_messages=(CollectStats, Ping)
    )


class TestInMemoryFabric:
    """Engine-less FaultyFabric: synchronous dispatch, drops raise."""

    def test_bind_call(self):
        fabric = FaultyFabric()
        fabric.bind("addr", lambda msg: "pong")
        assert fabric.call("addr", Ping()) == "pong"
        assert fabric.calls == 1

    def test_double_bind_rejected(self):
        fabric = FaultyFabric()
        fabric.bind("addr", lambda m: None)
        with pytest.raises(RPCError):
            fabric.bind("addr", lambda m: None)

    def test_unknown_address(self):
        fabric = FaultyFabric()
        with pytest.raises(StageNotRegistered):
            fabric.call("ghost", Ping())

    def test_unbind(self):
        fabric = FaultyFabric()
        fabric.bind("addr", lambda m: None)
        fabric.unbind("addr")
        with pytest.raises(StageNotRegistered):
            fabric.call("addr", Ping())
        with pytest.raises(StageNotRegistered):
            fabric.unbind("addr")

    def test_drop_injection(self):
        fabric = FaultyFabric(drop_fn=lambda addr, msg: isinstance(msg, Ping))
        fabric.bind("addr", lambda m: "ok")
        with pytest.raises(RPCError, match="dropped"):
            fabric.call("addr", Ping())
        assert fabric.dropped == 1
        assert fabric.call("addr", CollectStats(now=0.0)) is not None or True


class TestStageEndpoint:
    def test_full_dialogue(self):
        stage = make_stage()
        endpoint = StageEndpoint(stage)
        assert endpoint.handle(Ping(payload="x")) == "x"
        assert endpoint.handle(CreateChannel(channel_id="metadata", rate=5.0, now=0.0))
        assert endpoint.handle(
            InstallRule(
                rule=ClassifierRule(
                    name="md",
                    channel_id="metadata",
                    op_classes=frozenset({OperationClass.METADATA}),
                )
            )
        )
        stage.submit(Request(OperationType.OPEN, path="/f", count=10.0), 0.0)
        assert endpoint.handle(
            EnforceRate(channel_id="metadata", rate=2.0, now=0.0)
        )
        assert stage.channel_rate("metadata") == 2.0
        stats = endpoint.handle(CollectStats(now=1.0))
        assert stats.channels[0].enqueued_ops == 10.0

    def test_unknown_message(self):
        endpoint = StageEndpoint(make_stage())

        class Bogus:
            pass

        with pytest.raises(RPCError):
            endpoint.handle(Bogus())  # type: ignore[arg-type]


class TestSimFabric:
    """Engine-attached FaultyFabric with a fixed-latency link."""

    def test_latency_defers_effect(self, env):
        fabric = sim_fabric(env, latency=3.0)
        stage = make_stage()
        stage.create_channel("metadata", rate=100.0)
        fabric.bind("s0", StageEndpoint(stage).handle)
        fabric.call("s0", EnforceRate(channel_id="metadata", rate=1.0, now=0.0))
        assert stage.channel_rate("metadata") == 100.0  # not yet applied
        env.run(until=3.5)
        assert stage.channel_rate("metadata") == 1.0

    def test_call_async_returns_response(self, env):
        fabric = sim_fabric(env, latency=2.0)
        fabric.bind("s0", lambda m: "answer")
        got = []

        def proc():
            result = yield fabric.call_async("s0", Ping())
            got.append((env.now, result))

        env.process(proc())
        env.run()
        # The request and the reply each cross the 2 s link.
        assert got == [(4.0, "answer")]

    def test_endpoint_error_becomes_rpc_error(self, env):
        fabric = sim_fabric(env, latency=1.0)

        def broken(msg):
            raise ValueError("internal")

        fabric.bind("s0", broken)
        caught = []

        def proc():
            try:
                yield fabric.call_async("s0", Ping())
            except RPCError as exc:
                caught.append(str(exc))

        env.process(proc())
        env.run()
        assert caught == ["internal"]

    def test_negative_latency_rejected(self, env):
        with pytest.raises(RPCError):
            sim_fabric(env, latency=-1.0)


class TestDelayedEnforceFabric:
    """Collects stay synchronous while enforcement lags the link."""

    def test_enforcement_delayed_and_clock_rewritten(self, env):
        fabric = delayed_enforce_fabric(env, latency=3.0)
        stage = make_stage()
        stage.create_channel("metadata", rate=100.0)
        fabric.bind("s0", StageEndpoint(stage).handle)
        # Advance simulated time first so a stale message timestamp would
        # move the bucket clock backwards if not rewritten.
        env.run(until=5.0)
        fabric.call("s0", EnforceRate(channel_id="metadata", rate=1.0, now=5.0))
        assert stage.channel_rate("metadata") == 100.0
        env.run(until=8.5)
        assert stage.channel_rate("metadata") == 1.0

    def test_collect_stays_synchronous(self, env):
        fabric = delayed_enforce_fabric(env, latency=5.0)
        stage = make_stage()
        fabric.bind("s0", StageEndpoint(stage).handle)
        stats = fabric.call("s0", CollectStats(now=0.0))
        assert stats is not None

    def test_message_to_deregistered_stage_dropped(self, env):
        fabric = delayed_enforce_fabric(env, latency=2.0)
        stage = make_stage()
        stage.create_channel("metadata", rate=100.0)
        fabric.bind("s0", StageEndpoint(stage).handle)
        fabric.call("s0", EnforceRate(channel_id="metadata", rate=1.0, now=0.0))
        fabric.unbind("s0")
        env.run(until=3.0)  # must not raise
        assert stage.channel_rate("metadata") == 100.0

    def test_negative_latency_rejected(self, env):
        with pytest.raises(RPCError):
            delayed_enforce_fabric(env, latency=-1.0)


class TestRemovalMessages:
    def test_remove_rule_and_channel(self):
        stage = make_stage()
        endpoint = StageEndpoint(stage)
        endpoint.handle(CreateChannel(channel_id="metadata", rate=5.0, now=0.0))
        endpoint.handle(
            InstallRule(
                rule=ClassifierRule(
                    name="md",
                    channel_id="metadata",
                    op_classes=frozenset({OperationClass.METADATA}),
                )
            )
        )
        from repro.core.rpc import RemoveChannel, RemoveRule

        assert endpoint.handle(RemoveRule(name="md"))
        # Rule gone: requests pass through now.
        decision = stage.classifier.classify(
            Request(OperationType.OPEN, path="/f")
        )
        assert not decision.enforced
        assert endpoint.handle(RemoveChannel(channel_id="metadata"))
        assert stage.channels == {}

    def test_remove_channel_with_backlog_refused(self):
        from repro.errors import ConfigError
        from repro.core.rpc import RemoveChannel

        stage = make_stage()
        endpoint = StageEndpoint(stage)
        endpoint.handle(CreateChannel(channel_id="metadata", rate=1.0, now=0.0))
        endpoint.handle(
            InstallRule(
                rule=ClassifierRule(
                    name="md",
                    channel_id="metadata",
                    op_classes=frozenset({OperationClass.METADATA}),
                )
            )
        )
        stage.submit(Request(OperationType.OPEN, path="/f", count=10.0), 0.0)
        with pytest.raises(ConfigError, match="queued"):
            endpoint.handle(RemoveChannel(channel_id="metadata"))
