"""Tests for the control plane: registration, grouping, feedback loop."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, PolicyError, StageNotRegistered
from repro.core.algorithms import ProportionalSharing, StaticPartition
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.differentiation import ClassifierRule
from repro.core.policies import ConstantRate, PolicyRule, RuleScope, SteppedRate
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.fabric import FaultyFabric
from repro.core.rpc import Ping
from repro.core.stage import DataPlaneStage, StageConfig, StageIdentity


def make_stage(stage_id="s0", job_id="job0", rate=None):
    stage = DataPlaneStage(StageIdentity(stage_id, job_id), lambda req: None)
    stage.create_channel("metadata", rate=rate if rate is not None else float("inf"))
    stage.add_classifier_rule(
        ClassifierRule(
            name="md",
            channel_id="metadata",
            op_classes=frozenset({OperationClass.METADATA}),
        )
    )
    return stage


class TestRegistration:
    def test_register_groups_by_job(self):
        cp = ControlPlane()
        cp.register(make_stage("s0", "jobA"))
        cp.register(make_stage("s1", "jobA"))
        cp.register(make_stage("s2", "jobB"))
        assert set(cp.jobs) == {"jobA", "jobB"}
        assert cp.jobs["jobA"].n_stages == 2
        assert cp.jobs["jobB"].n_stages == 1

    def test_duplicate_stage_rejected(self):
        cp = ControlPlane()
        cp.register(make_stage("s0"))
        with pytest.raises(ConfigError):
            cp.register(make_stage("s0"))

    def test_deregister_removes_empty_job(self):
        cp = ControlPlane()
        cp.register(make_stage("s0", "jobA"))
        cp.deregister("s0")
        assert cp.jobs == {}
        with pytest.raises(StageNotRegistered):
            cp.deregister("s0")

    def test_deregister_job(self):
        cp = ControlPlane()
        cp.register(make_stage("s0", "jobA"))
        cp.register(make_stage("s1", "jobA"))
        cp.deregister_job("jobA")
        assert cp.stages == {}
        with pytest.raises(StageNotRegistered):
            cp.deregister_job("jobA")

    def test_reservation_requires_registered_job(self):
        cp = ControlPlane()
        with pytest.raises(StageNotRegistered):
            cp.set_reservation("ghost", 1.0)
        cp.register(make_stage("s0", "jobA"))
        cp.set_reservation("jobA", 5.0)
        assert cp.jobs["jobA"].reservation == 5.0
        with pytest.raises(PolicyError):
            cp.set_reservation("jobA", -1.0)


class TestPolicies:
    def test_policy_pushes_rate_each_tick(self):
        cp = ControlPlane()
        stage = make_stage()
        cp.register(stage)
        cp.install_policy(
            PolicyRule(
                name="static",
                scope=RuleScope(channel_id="metadata"),
                schedule=SteppedRate([(0.0, 10.0), (5.0, 99.0)]),
            )
        )
        cp.tick(0.0)
        assert stage.channel_rate("metadata") == 10.0
        cp.tick(6.0)
        assert stage.channel_rate("metadata") == 99.0

    def test_policy_scoped_to_job(self):
        cp = ControlPlane()
        a = make_stage("s0", "jobA")
        b = make_stage("s1", "jobB")
        cp.register(a)
        cp.register(b)
        cp.install_policy(
            PolicyRule(
                name="only-a",
                scope=RuleScope(channel_id="metadata", job_id="jobA"),
                schedule=ConstantRate(7.0),
            )
        )
        cp.tick(0.0)
        assert a.channel_rate("metadata") == 7.0
        assert b.channel_rate("metadata") == float("inf")

    def test_priority_conflict_resolution(self):
        cp = ControlPlane()
        stage = make_stage()
        cp.register(stage)
        cp.install_policy(
            PolicyRule(name="broad", scope=RuleScope("metadata"),
                       schedule=ConstantRate(100.0), priority=0)
        )
        cp.install_policy(
            PolicyRule(name="override", scope=RuleScope("metadata"),
                       schedule=ConstantRate(5.0), priority=10)
        )
        cp.tick(0.0)
        assert stage.channel_rate("metadata") == 5.0

    def test_disabled_policy_ignored(self):
        cp = ControlPlane()
        stage = make_stage()
        cp.register(stage)
        rule = PolicyRule(name="r", scope=RuleScope("metadata"),
                          schedule=ConstantRate(5.0), enabled=False)
        cp.install_policy(rule)
        cp.tick(0.0)
        assert stage.channel_rate("metadata") == float("inf")

    def test_duplicate_policy_rejected(self):
        cp = ControlPlane()
        rule = PolicyRule(name="r", scope=RuleScope("c"), schedule=ConstantRate(1.0))
        cp.install_policy(rule)
        with pytest.raises(PolicyError):
            cp.install_policy(rule)
        cp.remove_policy("r")
        with pytest.raises(PolicyError):
            cp.remove_policy("r")

    def test_policy_on_stage_without_channel_is_skipped(self):
        cp = ControlPlane()
        stage = DataPlaneStage(StageIdentity("s0", "job0"), lambda r: None)
        stage.create_channel("data")
        cp.register(stage)
        cp.install_policy(
            PolicyRule(name="md", scope=RuleScope("metadata"),
                       schedule=ConstantRate(5.0))
        )
        cp.tick(0.0)  # must not raise
        assert stage.channel_rate("data") == float("inf")


class TestAlgorithmLoop:
    def test_static_partition_enforced(self):
        cp = ControlPlane(algorithm=StaticPartition(50.0))
        a = make_stage("s0", "jobA")
        b = make_stage("s1", "jobB")
        cp.register(a)
        cp.register(b)
        cp.tick(1.0)
        assert a.channel_rate("metadata") == 50.0
        assert b.channel_rate("metadata") == 50.0
        assert len(cp.enforcement_log) == 2

    def test_job_rate_split_across_stages(self):
        cp = ControlPlane(algorithm=StaticPartition(50.0))
        a = make_stage("s0", "jobA")
        b = make_stage("s1", "jobA")
        cp.register(a)
        cp.register(b)
        cp.tick(1.0)
        assert a.channel_rate("metadata") == 25.0
        assert b.channel_rate("metadata") == 25.0

    def test_demand_signal_includes_backlog(self):
        cp = ControlPlane(
            algorithm=ProportionalSharing(100.0, headroom=1.0),
            config=ControlPlaneConfig(loop_interval=1.0),
        )
        stage = make_stage("s0", "jobA", rate=1.0)
        cp.register(stage)
        cp.set_reservation("jobA", 100.0)
        stage.submit(Request(OperationType.OPEN, path="/f", count=30.0), 0.0)
        cp.tick(1.0)
        # Demand = 30 enqueued/1s window... backlog also counts; the job
        # should be granted substantial rate (capped at capacity).
        rate = stage.channel_rate("metadata")
        assert 30.0 <= rate <= 100.0 + 1e-6

    def test_collect_failure_tolerated(self):
        dropped = {"n": 0}

        def drop(addr, msg):
            from repro.core.rpc import CollectStats

            if isinstance(msg, CollectStats):
                dropped["n"] += 1
                return True
            return False

        cp = ControlPlane(
            fabric=FaultyFabric(drop_fn=drop),
            algorithm=StaticPartition(10.0),
        )
        stage = make_stage()
        cp.register(stage)
        cp.tick(1.0)  # must not raise
        assert cp.collect_failures >= 1
        # Enforcement still proceeds from registry state.
        assert stage.channel_rate("metadata") == 10.0

    def test_loop_iteration_counter(self):
        cp = ControlPlane()
        for t in range(5):
            cp.tick(float(t))
        assert cp.loop_iterations == 5

    def test_last_stats_cached(self):
        cp = ControlPlane()
        stage = make_stage()
        cp.register(stage)
        cp.tick(1.0)
        assert cp.last_stats("s0") is not None
        assert cp.last_stats("ghost") is None


class TestLiveness:
    """max_missed_collects evicts presumed-dead stages (section VI knob)."""

    def _dropping_cp(self, limit):
        dead = {"flag": False}

        def drop(addr, msg):
            from repro.core.rpc import CollectStats

            return dead["flag"] and isinstance(msg, CollectStats)

        cp = ControlPlane(
            fabric=FaultyFabric(drop_fn=drop),
            config=ControlPlaneConfig(max_missed_collects=limit),
        )
        return cp, dead

    def test_eviction_after_limit(self):
        cp, dead = self._dropping_cp(limit=3)
        stage = make_stage("s0", "jobA")
        cp.register(stage)
        cp.tick(0.0)
        assert cp.jobs  # healthy
        dead["flag"] = True
        for t in range(1, 3):
            cp.tick(float(t))
            assert "jobA" in cp.jobs  # below the limit
        cp.tick(3.0)
        assert cp.jobs == {}
        assert cp.evictions == [(3.0, "s0")]

    def test_recovery_resets_counter(self):
        cp, dead = self._dropping_cp(limit=2)
        cp.register(make_stage("s0", "jobA"))
        dead["flag"] = True
        cp.tick(0.0)  # miss 1
        dead["flag"] = False
        cp.tick(1.0)  # healthy again: counter resets
        dead["flag"] = True
        cp.tick(2.0)  # miss 1 (not 2)
        assert "jobA" in cp.jobs
        cp.tick(3.0)  # miss 2 -> evicted
        assert cp.jobs == {}

    def test_disabled_by_default(self):
        def drop(addr, msg):
            from repro.core.rpc import CollectStats

            return isinstance(msg, CollectStats)

        cp = ControlPlane(fabric=FaultyFabric(drop_fn=drop))
        cp.register(make_stage("s0", "jobA"))
        for t in range(20):
            cp.tick(float(t))
        assert "jobA" in cp.jobs  # never evicted

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ControlPlaneConfig(max_missed_collects=0)


class TestEvictionEdges:
    def _dropping_cp(self, limit, capacity=100.0):
        dead = {"flag": False}

        def drop(addr, msg):
            from repro.core.rpc import CollectStats

            return dead["flag"] and isinstance(msg, CollectStats)

        cp = ControlPlane(
            fabric=FaultyFabric(drop_fn=drop),
            config=ControlPlaneConfig(max_missed_collects=limit),
            algorithm=ProportionalSharing(capacity=capacity),
        )
        return cp, dead

    def test_evicted_stage_can_reregister_under_same_id(self):
        cp, dead = self._dropping_cp(limit=2)
        cp.register(make_stage("s0", "jobA"))
        dead["flag"] = True
        cp.tick(0.0)
        cp.tick(1.0)  # miss 2 -> evicted, endpoint unbound
        assert cp.jobs == {}
        # The restarted process re-registers with the same stage id: the
        # eviction must have fully released the id (fabric binding, stats,
        # miss counters, session) or this raises "already registered".
        dead["flag"] = False
        replacement = make_stage("s0", "jobA")
        cp.register(replacement)
        replacement.submit(Request(OperationType.OPEN, path="/f", count=30.0), 2.0)
        cp.tick(2.0)
        assert "jobA" in cp.jobs
        assert cp.last_stats("s0") is not None
        # A fresh silence starts the miss count from zero, not from the
        # evicted predecessor's tally.
        assert cp._missed_collects.get("s0", 0) == 0

    def test_final_stage_eviction_redistributes_share(self):
        """Evicting a job's last stage removes the job; the survivors'
        allocation grows to cover the freed share."""
        dead = {"flag": False}

        def drop(addr, msg):
            from repro.core.rpc import CollectStats

            return (
                dead["flag"] and addr == "b0" and isinstance(msg, CollectStats)
            )

        cp = ControlPlane(
            fabric=FaultyFabric(drop_fn=drop),
            config=ControlPlaneConfig(max_missed_collects=2),
            algorithm=ProportionalSharing(capacity=100.0),
        )
        a = make_stage("a0", "jobA")
        b = make_stage("b0", "jobB")
        cp.register(a)
        cp.register(b)

        def load(now):
            a.submit(Request(OperationType.OPEN, path="/f", count=40.0), now)

        load(0.0)
        cp.tick(0.0)
        dead["flag"] = True  # jobB's only stage goes dark
        for t in (1.0, 2.0):
            load(t)
            cp.tick(t)
        assert "jobB" not in cp.jobs
        assert cp.evictions == [(2.0, "b0")]
        load(3.0)
        cp.tick(3.0)
        # After redistribution jobA is the sole claimant of the capacity.
        final_cycle = [entry for entry in cp.enforcement_log if entry[0] == 3.0]
        assert {job for _, job, _ in final_cycle} == {"jobA"}
        assert all(rate >= 40.0 for _, _, rate in final_cycle)


class TestHealthProbe:
    def test_unhealthy_pauses_algorithm_channel(self):
        healthy = {"flag": True}
        cp = ControlPlane(
            algorithm=StaticPartition(50.0),
            health_probe=lambda: healthy["flag"],
        )
        stage = make_stage("s0", "jobA")
        cp.register(stage)
        cp.tick(0.0)
        assert stage.channel_rate("metadata") == 50.0
        healthy["flag"] = False
        cp.tick(1.0)
        assert stage.channel_rate("metadata") == cp.config.min_rate
        assert cp.pause_ticks == 1
        healthy["flag"] = True
        cp.tick(2.0)
        assert stage.channel_rate("metadata") == 50.0

    def test_admin_policies_apply_even_while_paused(self):
        cp = ControlPlane(
            algorithm=StaticPartition(50.0),
            health_probe=lambda: False,
        )
        stage = make_stage("s0", "jobA")
        stage.create_channel("data")
        cp.register(stage)
        cp.install_policy(
            PolicyRule(name="data-cap", scope=RuleScope("data"),
                       schedule=ConstantRate(7.0))
        )
        cp.tick(0.0)
        assert stage.channel_rate("data") == 7.0
        assert stage.channel_rate("metadata") == cp.config.min_rate


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=50, deadline=None)
@given(
    priorities=st.lists(
        st.integers(min_value=-5, max_value=5), min_size=1, max_size=8
    )
)
def test_policy_conflict_winner_is_highest_priority(priorities):
    """With N conflicting policies on one channel, the enforced rate is a
    highest-priority one (ties resolved toward the later install)."""
    cp = ControlPlane()
    stage = make_stage()
    cp.register(stage)
    for i, priority in enumerate(priorities):
        cp.install_policy(
            PolicyRule(
                name=f"p{i}",
                scope=RuleScope("metadata"),
                schedule=ConstantRate(float(100 + i)),
                priority=priority,
            )
        )
    cp.tick(0.0)
    best = max(priorities)
    # Ties go to the later-installed policy: the last index with max prio.
    winner = max(i for i, p in enumerate(priorities) if p == best)
    assert stage.channel_rate("metadata") == float(100 + winner)
