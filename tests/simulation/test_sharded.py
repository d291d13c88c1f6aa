"""Sharded fluid engine: bit-identity, shard invariance, enforcement.

The contracts under test (see ``repro.simulation.sharded.fluid``):

* scalar (``vectorized=False``) and vectorised execution produce
  bit-identical state and outputs;
* the full-run digest is identical for 1 shard and N shards, including
  real multi-process pools, and equals golden digests recorded before
  the pipe wire, the dict epoch loop and the scalar control tier were
  deleted (proportional sharing, DRF, and policy + reservation);
* demand partials follow the hierarchy's exact per-stage expression;
* enforcement pushed by the global plane genuinely caps throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.core.algorithms import DominantResourceFairness, ProportionalSharing
from repro.core.policies import PolicyRule, RuleScope, SteppedRate
from repro.simulation.sharded import (
    UNLIMITED,
    FluidConfig,
    FluidRack,
    RackSpec,
    ShardPool,
    ShardedConfig,
    ShardedSimulation,
)


def small_fluid(**kw):
    defaults = dict(seed=3, clients_per_stage=5)
    defaults.update(kw)
    return FluidConfig(**defaults)


def small_config(**kw):
    defaults = dict(
        n_racks=4,
        n_shards=1,
        n_jobs=6,
        stages_per_job=3,
        placement="split",
        loop_interval=1.0,
        fluid=small_fluid(),
    )
    defaults.update(kw)
    return ShardedConfig(**defaults)


def run_result(config, capacity=None, duration=30.0, vectorized=True):
    algorithm = (
        ProportionalSharing(capacity=capacity) if capacity is not None else None
    )
    sim = ShardedSimulation(config, algorithm=algorithm, vectorized=vectorized)
    sim.run(duration)
    return sim.finish()


def push(rack, *updates):
    """Install ``(job_id, rate, burst)`` updates via the array verb."""
    n = len(rack.job_ids)
    mask = np.zeros(n, dtype=bool)
    rates = np.zeros(n)
    bursts = np.full(n, np.nan)
    for job_id, rate, burst in updates:
        k = rack.job_ids.index(job_id)
        mask[k] = True
        rates[k] = rate
        bursts[k] = np.nan if burst is None else burst
    rack.apply_rate_arrays(mask, rates, bursts)


def make_spec(n_stages=6, n_jobs=2, index=0):
    return RackSpec(
        rack_id=f"rack{index}",
        index=index,
        stages=tuple(
            (f"job{i % n_jobs}-s{i // n_jobs}", f"job{i % n_jobs}")
            for i in range(n_stages)
        ),
    )


class TestFluidRack:
    def test_scalar_matches_vectorized_bitwise(self):
        spec = make_spec()
        config = small_fluid()
        vec = FluidRack(spec, config, vectorized=True)
        ref = FluidRack(spec, config, vectorized=False)
        # Throttle one job mid-run so the rate/burst path is exercised too.
        for t in range(40):
            if t == 15:
                for rack in (vec, ref):
                    push(rack, ("job0", 12.5, None))
            vec.tick(float(t))
            ref.tick(float(t))
        assert np.array_equal(vec.tokens, ref.tokens)
        assert np.array_equal(vec.backlog, ref.backlog)
        assert np.array_equal(vec.job_granted, ref.job_granted)
        assert np.array_equal(vec.served_series(), ref.served_series())
        assert vec.delivered_ops == ref.delivered_ops
        assert vec.total_backlog() == ref.total_backlog()
        assert np.array_equal(
            vec.demand_partials_array(1.0), ref.demand_partials_array(1.0)
        )

    def test_demand_partials_follow_hierarchy_expression(self):
        spec = make_spec(n_stages=6, n_jobs=2)
        config = small_fluid()
        rack = FluidRack(spec, config)
        rack.run_epoch(0.0, 5)
        enqueued = rack.window_enqueued.copy()
        backlog = rack.backlog.copy()
        loop_interval = 5.0
        # The hierarchy's per-stage expression, accumulated per job in
        # stage-registration order (LocalController._collect_aggregate).
        expected = {}
        for i, (_stage, job_id) in enumerate(spec.stages):
            contrib = enqueued[i] / loop_interval + backlog[i] / loop_interval
            expected[job_id] = expected.get(job_id, 0.0) + contrib
        partials = rack.demand_partials_array(loop_interval)
        assert dict(zip(rack.job_ids, partials.tolist())) == expected
        assert rack.job_ids == ["job0", "job1"]
        # The enqueued window resets at the epoch boundary.
        assert np.all(rack.window_enqueued == 0.0)

    def test_rates_start_unlimited_and_clamp_tokens_on_cut(self):
        rack = FluidRack(make_spec(), small_fluid())
        assert np.all(rack.rate == UNLIMITED)
        push(rack, ("job0", 10.0, None))
        job0 = rack.job_of == 0
        assert np.all(rack.rate[job0] == 10.0)
        assert np.all(rack.burst_limit[job0] == 10.0 * rack.config.burst_seconds)
        # Accumulated tokens must not survive above the new burst cap.
        assert np.all(rack.tokens[job0] <= rack.burst_limit[job0])

    def test_unknown_job_and_later_entry_wins(self):
        # The pool's update-list adapter: unknown jobs are skipped and a
        # later push for the same job overwrites an earlier one.
        with ShardPool([[make_spec()]], small_fluid()) as pool:
            pool.run_epoch(0.0, 0, 1.0, {"rack0": [
                ("ghost", 1.0, None), ("job1", 5.0, None), ("job1", 9.0, None),
            ]})
            rack = pool._local_racks[0]
            assert np.all(rack.rate[rack.job_of == 1] == 9.0)
            assert np.all(rack.rate[rack.job_of == 0] == UNLIMITED)

    def test_empty_rack_ticks_and_reports_nothing(self):
        rack = FluidRack(
            RackSpec(rack_id="rack0", index=0, stages=()), small_fluid()
        )
        assert rack.tick(0.0) == 0.0
        assert rack.demand_partials_array(1.0).size == 0
        assert rack.total_backlog() == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            FluidConfig(dt=0.0)
        with pytest.raises(ConfigError):
            FluidConfig(clients_per_stage=0)
        with pytest.raises(ConfigError):
            FluidConfig(demand_amplitude=1.0)
        with pytest.raises(ConfigError):
            FluidConfig(mds_capacity_per_stage=0.0)
        with pytest.raises(ConfigError):
            RackSpec(rack_id="", index=0, stages=())
        with pytest.raises(ConfigError):
            RackSpec(rack_id="rack0", index=-1, stages=())


class TestShardInvariance:
    """The tentpole contract: fixed-seed results are bit-identical to the
    single-engine run regardless of how racks are farmed out."""

    def test_digest_invariant_across_shard_counts(self):
        reference = run_result(small_config(n_shards=1), capacity=150.0)
        for n_shards in (2, 4):
            result = run_result(
                small_config(n_shards=n_shards), capacity=150.0
            )
            assert result.digest() == reference.digest()

    def test_scalar_single_engine_matches_sharded_digest(self):
        vec = run_result(small_config(n_shards=2), capacity=150.0)
        ref = run_result(small_config(n_shards=1), capacity=150.0,
                         vectorized=False)
        assert vec.digest() == ref.digest()

    def test_uneven_rack_blocks_are_invariant(self):
        # 4 racks over 3 shards: blocks of 2/1/1.
        a = run_result(small_config(n_shards=1), capacity=150.0)
        b = run_result(small_config(n_shards=3), capacity=150.0)
        assert a.digest() == b.digest()

    def test_split_reduces_to_job_placement_for_single_stage_jobs(self):
        split = run_result(
            small_config(stages_per_job=1, placement="split"), capacity=80.0
        )
        whole = run_result(
            small_config(stages_per_job=1, placement="job"), capacity=80.0
        )
        assert split.digest() == whole.digest()

    def test_racks_without_stages_are_harmless(self):
        config = small_config(n_jobs=1, stages_per_job=1, n_racks=2, n_shards=2)
        result = run_result(config, capacity=40.0)
        assert set(result.rack_served) == {"rack0", "rack1"}
        assert float(np.sum(result.rack_served["rack1"])) == 0.0


def drf():
    return DominantResourceFairness(
        {"mds": 150.0, "oss": 400.0},
        {f"job{j}": {"mds": 1.0, "oss": 0.5 + 0.5 * j} for j in range(6)},
    )


def with_policy_and_reservation(control_plane):
    control_plane.install_policy(
        PolicyRule(
            "cap1",
            RuleScope(control_plane.config.algorithm_channel, "job1"),
            SteppedRate([(0, 9), (10, 4)]),
            burst=20,
            priority=5,
        )
    )
    control_plane.set_reservation("job2", 30)


class TestGoldenDigests:
    """Full digests of ``small_config()`` over 30 s, recorded before the
    pipe shard wire, the dict epoch loop and the scalar global tier were
    deleted: every path then in the tree (pipe and shm, 1/2/4 shards,
    scalar and vector control) produced exactly these."""

    PROPORTIONAL = (
        "aa956cbfb343f77d2e9d9bee39f1a2cd837e08dbbb27c250f4314f946241fe0e"
    )
    DRF = "ffe835d31f9c40cfc8dd6729c08f3c12cef0106192b584713b38daec56151166"
    POLICY = "764009bf0970d269d6ee174be416cb788ad2e4dd6b3bf589b98f20a4167c1d61"

    @staticmethod
    def digest(n_shards, algorithm, setup=None):
        sim = ShardedSimulation(small_config(n_shards=n_shards), algorithm=algorithm)
        if setup is not None:
            setup(sim.control_plane)
        sim.run(30.0)
        return sim.finish().digest()

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_proportional_sharing(self, n_shards):
        digest = self.digest(n_shards, ProportionalSharing(capacity=150.0))
        assert digest == self.PROPORTIONAL

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_drf_through_scalar_allocator_fallback(self, n_shards):
        assert self.digest(n_shards, drf()) == self.DRF

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_policy_and_reservation(self, n_shards):
        digest = self.digest(
            n_shards,
            ProportionalSharing(capacity=150.0),
            with_policy_and_reservation,
        )
        assert digest == self.POLICY


class TestEnforcement:
    def test_control_plane_genuinely_caps_throughput(self):
        config = small_config()
        free = run_result(config, capacity=None, duration=60.0)
        # Capacity far below offered load: ~5 clients * 8 ops * 18 stages.
        capped = run_result(config, capacity=120.0, duration=60.0)
        assert len(capped.enforcement_log) > 0
        assert len(free.enforcement_log) == 0
        assert capped.delivered_ops < 0.6 * free.delivered_ops
        # Undelivered demand shows up as backlog, not as lost accounting.
        assert capped.final_backlog > free.final_backlog

    def test_enforcement_reaches_every_hosting_rack(self):
        config = small_config()
        sim = ShardedSimulation(
            config, algorithm=ProportionalSharing(capacity=120.0)
        )
        sim.run(3.0)
        # After the first tick, pushes are staged for the next epoch:
        # with split placement every rack hosts stages of several jobs,
        # so every rack's block of scatter slots carries a flag.
        index_map = sim._pool.index_map
        flagged = {
            rack_id
            for rack_id in sim.control_plane.locals
            if np.any(sim._flags[index_map.rack_slice(rack_id)])
        }
        assert flagged == set(sim.control_plane.locals)
        sim.close()

    def test_vector_enforcement_flags_every_hosting_slot(self):
        config = small_config()
        sim = ShardedSimulation(
            config, algorithm=ProportionalSharing(capacity=120.0)
        )
        sim.run(3.0)
        # Pushes are staged as scatter slot flags: after the last tick
        # every hosted (rack, job) slot -- so every hosting rack -- is
        # flagged for the epoch that would follow.
        assert np.count_nonzero(sim._flags) == sim._pool.n_slots
        sim.close()


class TestLifecycle:
    def test_run_is_single_shot_and_validates_duration(self):
        sim = ShardedSimulation(small_config())
        with pytest.raises(ConfigError):
            sim.run(1.5)  # not a multiple of loop_interval
        sim.run(2.0)
        with pytest.raises(ConfigError):
            sim.run(2.0)
        sim.close()

    def test_pool_close_is_idempotent_and_final(self):
        config = small_fluid()
        pool = ShardPool([[make_spec(index=0)], [make_spec(index=1)]], config)
        assert pool.n_shards == 2
        pool.close()
        pool.close()
        with pytest.raises(ConfigError):
            pool.run_epoch(0.0, 1, 1.0, {})
        with pytest.raises(ConfigError):
            pool.finish()

    def test_pool_context_manager_and_empty_shards_rejected(self):
        with pytest.raises(ConfigError):
            ShardPool([], small_fluid())
        with ShardPool([[make_spec()]], small_fluid()) as pool:
            partials = pool.run_epoch(0.0, 1, 1.0, {})
            assert partials[0][0] == "rack0"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            small_config(n_shards=5)  # > n_racks
        with pytest.raises(ConfigError):
            small_config(n_shards=0)
        with pytest.raises(ConfigError):
            small_config(placement="round-robin")
        with pytest.raises(ConfigError):
            small_config(loop_interval=1.5)  # not a multiple of dt=1.0
        config = small_config()
        assert config.n_stages == 18
        assert config.n_clients == 90
