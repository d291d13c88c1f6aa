"""Shared-memory shard fabric: layout, equality, hygiene, failure.

The contracts under test (see ``repro.simulation.sharded.shm`` and
``repro.simulation.sharded.pool``):

* the frozen :class:`ShardIndexMap` reproduces FluidRack's job registry
  order exactly (the pin the shm module docstring references);
* the in-process pool (1 shard) and a real worker pool (2 shards) are
  bit-identical through both the array and the update-list epoch APIs
  (full-run digests are pinned in ``test_sharded.py``);
* no ``/dev/shm`` segment outlives the pool: normal exit, worker
  crash, a worker that fails to start, and double-stop all leave
  nothing behind;
* a dead or silent worker raises :class:`ShardWorkerError` naming the
  shard and its racks instead of hanging the coordinator.
"""

from __future__ import annotations

import errno
import multiprocessing
import os
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.errors import ConfigError, ShardWorkerError
from repro.experiments.fig4_sharded import run_fig4_sharded
from repro.simulation.sharded import (
    FluidConfig,
    FluidRack,
    RackSpec,
    ShardPool,
)
from repro.simulation.sharded.shm import (
    BURST_NONE,
    ShardBuffers,
    ShardIndexMap,
)


def make_spec(n_stages=6, n_jobs=2, index=0):
    return RackSpec(
        rack_id=f"rack{index}",
        index=index,
        stages=tuple(
            (f"job{i % n_jobs}-s{i // n_jobs}", f"job{i % n_jobs}")
            for i in range(n_stages)
        ),
    )


def fluid_config(**kw):
    defaults = dict(seed=3, clients_per_stage=5)
    defaults.update(kw)
    return FluidConfig(**defaults)


def shard_blocks(n_racks, n_shards):
    specs = [make_spec(n_stages=5, n_jobs=3, index=i) for i in range(n_racks)]
    base, extra = divmod(n_racks, n_shards)
    blocks, at = [], 0
    for s in range(n_shards):
        size = base + (1 if s < extra else 0)
        blocks.append(specs[at:at + size])
        at += size
    return blocks


def shm_files():
    """Names of live shared-memory segments (Linux tmpfs backing)."""
    try:
        return {name for name in os.listdir("/dev/shm")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


class TestIndexMap:
    def test_matches_fluid_rack_registry_order(self):
        # The coordinator and workers never ship the map; both derive it
        # from the specs, so it must reproduce FluidRack's registry --
        # job ids in first-appearance order, with their stage counts.
        spec = make_spec(n_stages=11, n_jobs=4)
        index_map = ShardIndexMap([spec])
        rack = FluidRack(spec, fluid_config())
        assert index_map.rack_job_ids[0] == tuple(rack.job_ids)
        counts = np.bincount(rack.job_of, minlength=len(rack.job_ids))
        assert index_map.rack_stage_counts[0] == tuple(counts.tolist())

    def test_slots_are_contiguous_per_rack(self):
        specs = [make_spec(index=0), make_spec(n_jobs=3, index=1)]
        index_map = ShardIndexMap(specs)
        assert index_map.n_slots == 2 + 3
        assert index_map.rack_slice("rack0") == slice(0, 2)
        assert index_map.rack_slice("rack1") == slice(2, 5)
        assert index_map.slot_of("rack1", "job2") == 4
        assert index_map.slot_of("rack0", "job2") == -1
        assert index_map.slot_of("ghost", "job0") == -1

    def test_layout_token_fingerprints_layout(self):
        specs = [make_spec(index=0), make_spec(index=1)]
        assert (
            ShardIndexMap(specs).layout_token()
            == ShardIndexMap(specs).layout_token()
        )
        # Any change to the (rack, job, stage-count) layout moves the token.
        other = [make_spec(index=0), make_spec(n_stages=8, index=1)]
        assert (
            ShardIndexMap(specs).layout_token()
            != ShardIndexMap(other).layout_token()
        )

    def test_duplicate_rack_ids_rejected(self):
        with pytest.raises(ConfigError):
            ShardIndexMap([make_spec(index=0), make_spec(index=0)])


class TestShardBuffers:
    def test_attach_sees_owner_writes_and_cleanup_is_idempotent(self):
        owner = ShardBuffers(4)
        names = owner.names
        attacher = ShardBuffers(4, names=names)
        owner.scatter[1, 2, 0] = 7.5
        owner.gather[0, 3] = -1.25
        assert attacher.scatter[1, 2, 0] == 7.5
        assert attacher.gather[0, 3] == -1.25
        assert not attacher.owner and owner.owner
        attacher.close()
        owner.close()
        owner.unlink()
        owner.unlink()  # second unlink is a no-op
        for name in names:
            assert name not in shm_files()

    def test_zero_slots_allowed(self):
        buffers = ShardBuffers(0)
        assert buffers.scatter.shape == (2, 0, 3)
        buffers.close()
        buffers.unlink()


class TestFabricEquality:
    """In-process vs worker pool, arrays vs update lists: all bit-identical."""

    def drive(self, n_shards, use_arrays):
        pool = ShardPool(shard_blocks(4, n_shards), fluid_config())
        index_map = pool.index_map
        outs = []
        try:
            for epoch in range(6):
                throttle = epoch == 2  # cut job1 everywhere mid-run
                if use_arrays:
                    flags = np.zeros(pool.n_slots)
                    rates = np.zeros(pool.n_slots)
                    bursts = np.full(pool.n_slots, BURST_NONE)
                    if throttle:
                        for rack_id in index_map.rack_ids:
                            slot = index_map.slot_of(rack_id, "job1")
                            flags[slot] = 1.0
                            rates[slot] = 6.5
                            bursts[slot] = 20.0
                    outs.append(
                        pool.run_epoch_arrays(
                            float(epoch), 2, 2.0, flags, rates, bursts
                        )
                    )
                else:
                    updates = {}
                    if throttle:
                        updates = {
                            rack_id: [("job1", 6.5, 20.0)]
                            for rack_id in index_map.rack_ids
                        }
                    merged = pool.run_epoch(float(epoch), 2, 2.0, updates)
                    flat = np.empty(pool.n_slots)
                    for rack_id, partials in merged:
                        sl = index_map.rack_slice(rack_id)
                        flat[sl] = [demand for _j, demand, _n in partials]
                    outs.append(flat)
            finals = pool.finish()
        finally:
            pool.close()
        tail = [
            (f.rack_id, f.delivered_ops, f.backlog, f.served.tobytes())
            for f in finals
        ]
        return np.stack(outs), tail

    def test_all_fabric_api_combinations_bit_identical(self):
        ref_demand, ref_tail = self.drive(1, use_arrays=False)
        for n_shards, use_arrays in ((1, True), (2, False), (2, True)):
            demand, tail = self.drive(n_shards, use_arrays)
            assert np.array_equal(demand, ref_demand), (n_shards, use_arrays)
            assert tail == ref_tail, (n_shards, use_arrays)


class TestSegmentHygiene:
    def test_normal_finish_leaves_no_segments(self):
        before = shm_files()
        pool = ShardPool(shard_blocks(4, 2), fluid_config())
        names = set(pool._buffers.names)
        assert names <= shm_files()
        pool.run_epoch(0.0, 1, 1.0, {})
        pool.finish()  # closes the pool
        assert shm_files() - before == set()

    def test_double_stop_is_clean(self):
        before = shm_files()
        pool = ShardPool(shard_blocks(2, 2), fluid_config())
        pool.stop()
        pool.stop()
        assert shm_files() - before == set()
        with pytest.raises(ConfigError):
            pool.run_epoch(0.0, 1, 1.0, {})

    def test_worker_crash_raises_named_error_and_unlinks(self):
        before = shm_files()
        pool = ShardPool(shard_blocks(4, 2), fluid_config())
        pool._procs[0].kill()
        pool._procs[0].join()
        zeros = np.zeros(pool.n_slots)
        with pytest.raises(ShardWorkerError) as err:
            pool.run_epoch_arrays(
                0.0, 1, 1.0, zeros, zeros, np.full(pool.n_slots, BURST_NONE)
            )
        assert err.value.shard == 0
        assert "rack0" in str(err.value)
        # The failed pool reaped itself: workers gone, segments unlinked.
        assert shm_files() - before == set()
        pool.close()  # still idempotent after the failure path

    def test_failed_worker_start_reaps_started_workers_and_unlinks(
        self, monkeypatch
    ):
        before = shm_files()
        children = set(multiprocessing.active_children())
        original = BaseProcess.start
        starts = []

        def start(proc):
            starts.append(proc)
            if len(starts) == 2:
                raise OSError(errno.EAGAIN, "fork refused")
            original(proc)

        monkeypatch.setattr(BaseProcess, "start", start)
        with pytest.raises(OSError):
            ShardPool(shard_blocks(3, 3), fluid_config())
        monkeypatch.undo()
        assert len(starts) == 2
        # Worker 0 was running when worker 1 failed to start: it must be
        # reaped, and the segments created for the pool unlinked.
        assert not starts[0].is_alive()
        assert set(multiprocessing.active_children()) <= children
        assert shm_files() - before == set()


class TestFailureDetection:
    def test_silent_worker_hits_reply_deadline(self):
        pool = ShardPool(shard_blocks(2, 2), fluid_config(), recv_timeout=0.2)
        try:
            # No doorbell was sent, so the (healthy, idle) worker never
            # replies: the deadline must fire instead of blocking.
            with pytest.raises(ShardWorkerError) as err:
                pool._await_reply(0)
            assert "deadline" in str(err.value)
            assert err.value.racks == ("rack0",)
        finally:
            pool.close()

    def test_recv_timeout_validated(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ConfigError):
                ShardPool(
                    shard_blocks(2, 1), fluid_config(), recv_timeout=bad
                )
        with pytest.raises(ConfigError, match="fabric"):
            run_fig4_sharded(
                n_jobs=2, stages_per_job=1, n_racks=2, clients_per_stage=1,
                duration=4.0, step_period=2.0, fabric="carrier",
            )
