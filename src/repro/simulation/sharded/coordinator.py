"""Epoch-barrier coordinator: shard pool under the real control plane.

:class:`ShardedSimulation` stitches the two halves together.  The data
plane is a :class:`~repro.simulation.sharded.pool.ShardPool` of fluid
racks; the control plane is a genuine
:class:`~repro.core.hierarchy.HierarchicalControlPlane` on its
vectorised global tier, whose locals are
:class:`~repro.core.hierarchy.RackEndpoint` proxies.  One *epoch* is one
control loop interval:

1. every shard advances its racks ``loop_interval / dt`` fluid ticks and
   reports per-job demand partials as one float64 slot vector (the
   barrier);
2. the rack endpoints answer the plane's collects with
   :class:`~repro.core.hierarchy.ArrayStats` slices over that vector,
   and one ``cp.tick`` runs the plane's own demand merge, staleness
   handling, policies and allocator;
3. the resulting per-stage rates land in the scatter staging arrays --
   the allocator's through the plane's ``enforce_array_sink``, policy
   and scalar-only allocator (DRF) pushes through the endpoints'
   enforce verbs -- and ride the *next* epoch back out to the shards
   (enforcement latency of one epoch, matching a real deployment where
   the push RPC lands after the current window).

With *split-job* placement (``placement="split"``), stage ``s`` of job
``j`` lives on rack ``(j + s) % n_racks`` -- every multi-stage job spans
racks, so the global tier is always merging partial demands.  For
``stages_per_job == 1`` this reduces exactly to the whole-job placement
``j % n_racks`` the pre-existing experiments use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.core.controller import ControlPlaneConfig
from repro.core.hierarchy import (
    ArrayStats,
    CollectAggregate,
    EnforceJobRate,
    EnforceJobRateBatch,
    HierarchicalControlPlane,
    RackEndpoint,
)
from repro.core.stage import StageIdentity
from repro.simulation.sharded.fluid import FluidConfig, RackSpec
from repro.simulation.sharded.pool import ShardPool
from repro.simulation.sharded.shm import BURST_NONE

__all__ = ["ShardedConfig", "ShardedResult", "ShardedSimulation"]


@dataclass(frozen=True, slots=True)
class ShardedConfig:
    """Cluster topology + workload for one sharded run."""

    n_racks: int = 4
    n_shards: int = 1
    n_jobs: int = 8
    stages_per_job: int = 4
    #: "split" spreads each job's stages across racks; "job" pins whole
    #: jobs to one rack (the pre-existing placement).
    placement: str = "split"
    #: Control epoch length (seconds); must be a multiple of fluid.dt.
    loop_interval: float = 1.0
    fluid: FluidConfig = field(default_factory=FluidConfig)

    def __post_init__(self) -> None:
        if self.n_racks < 1:
            raise ConfigError(f"n_racks must be >= 1, got {self.n_racks}")
        if not 1 <= self.n_shards <= self.n_racks:
            raise ConfigError(
                f"n_shards must be in [1, n_racks], got {self.n_shards} "
                f"for {self.n_racks} racks"
            )
        if self.n_jobs < 1:
            raise ConfigError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.stages_per_job < 1:
            raise ConfigError(
                f"stages_per_job must be >= 1, got {self.stages_per_job}"
            )
        if self.placement not in ("split", "job"):
            raise ConfigError(
                f"placement must be 'split' or 'job', got {self.placement!r}"
            )
        ticks = self.loop_interval / self.fluid.dt
        if self.loop_interval <= 0 or abs(ticks - round(ticks)) > 1e-9:
            raise ConfigError(
                "loop_interval must be a positive multiple of fluid.dt, got "
                f"{self.loop_interval} with dt={self.fluid.dt}"
            )

    @property
    def n_stages(self) -> int:
        return self.n_jobs * self.stages_per_job

    @property
    def n_clients(self) -> int:
        return self.n_stages * self.fluid.clients_per_stage

    def rack_of(self, job: int, stage: int) -> int:
        """Rack index hosting stage ``stage`` of job ``job``."""
        if self.placement == "split":
            return (job + stage) % self.n_racks
        return job % self.n_racks


@dataclass(frozen=True)
class ShardedResult:
    """Per-rack and aggregate outputs of one sharded run."""

    config: ShardedConfig
    #: rack_id -> ops served per tick by the rack MDS.
    rack_served: Dict[str, np.ndarray]
    #: Cluster-wide ops served per tick (rack-order sum).
    aggregate_served: np.ndarray
    #: job_id -> total granted (admitted) ops, global job order.
    job_granted: Dict[str, float]
    #: (now, job_id, rate) entries from the control plane.
    enforcement_log: Tuple[Tuple[float, str, float], ...]
    delivered_ops: float
    final_backlog: float

    def digest(self) -> str:
        """SHA-256 over every output float, bit-for-bit.

        The invariance tests assert this digest is identical across
        shard counts and scalar/vectorised execution.
        """
        digest = hashlib.sha256()
        for rack_id in self.rack_served:
            digest.update(rack_id.encode())
            digest.update(
                np.ascontiguousarray(
                    self.rack_served[rack_id], dtype=np.float64
                ).tobytes()
            )
        digest.update(
            np.ascontiguousarray(self.aggregate_served, dtype=np.float64).tobytes()
        )
        digest.update(
            json.dumps(
                {job: value.hex() for job, value in self.job_granted.items()},
                sort_keys=True,
            ).encode()
        )
        digest.update(
            json.dumps(
                [[now.hex(), job, rate.hex()] for now, job, rate in self.enforcement_log]
            ).encode()
        )
        digest.update(self.delivered_ops.hex().encode())
        digest.update(self.final_backlog.hex().encode())
        return digest.hexdigest()


class ShardedSimulation:
    """Drive a sharded fluid cluster under the hierarchical plane.

    ``epoch_hook(control_plane, now)`` (optional) runs right before each
    ``cp.tick`` -- the fig4-style experiments use it to step the
    allocator's capacity on schedule.  ``vectorized=False`` forces every
    rack onto the scalar per-stage reference arithmetic; the digest is
    bit-identical either way.

    Demand partials stay float64 arrays end-to-end
    (:class:`~repro.core.hierarchy.ArrayStats` slices over the pool's
    index map), and the allocator's per-stage rates land directly in the
    next epoch's scatter arrays through the plane's
    ``enforce_array_sink``.
    """

    def __init__(
        self,
        config: ShardedConfig,
        algorithm=None,
        telemetry=None,
        vectorized: bool = True,
        controller_config: Optional[ControlPlaneConfig] = None,
        epoch_hook: Optional[Callable[[HierarchicalControlPlane, float], None]] = None,
        fabric: str = "shm",
        recv_timeout: float = 60.0,
    ) -> None:
        # Shared memory is the only shard wire; the keyword stays for callers.
        if fabric != "shm":
            raise ConfigError(f"unknown shard fabric {fabric!r}")
        self.config = config
        self._epoch_hook = epoch_hook
        self._ran = False
        self._telemetry = telemetry
        #: Per-slot demand partials of the latest barrier.
        self._latest_vec: Optional[np.ndarray] = None

        # Global registration order: jobs outer, stages inner -- the same
        # order a single engine would register them in, independent of
        # rack placement and sharding.
        rack_stages: List[List[Tuple[str, str]]] = [
            [] for _ in range(config.n_racks)
        ]
        registrations: List[Tuple[StageIdentity, str]] = []
        for j in range(config.n_jobs):
            job_id = f"job{j}"
            for s in range(config.stages_per_job):
                rack = config.rack_of(j, s)
                rack_stages[rack].append((f"{job_id}-s{s}", job_id))
                registrations.append(
                    (StageIdentity(f"{job_id}-s{s}", job_id), f"rack{rack}")
                )
        self._rack_ids = [f"rack{r}" for r in range(config.n_racks)]
        self._rack_index = {
            rack_id: r for r, rack_id in enumerate(self._rack_ids)
        }
        specs = [
            RackSpec(rack_id=f"rack{r}", index=r, stages=tuple(stages))
            for r, stages in enumerate(rack_stages)
        ]
        # Contiguous block partition of racks into shards: shard s gets
        # racks [s*q + min(s, r), ...) -- blocking never affects per-rack
        # math, only which process runs it.
        q, r = divmod(config.n_racks, config.n_shards)
        blocks: List[List[RackSpec]] = []
        start = 0
        for s in range(config.n_shards):
            size = q + (1 if s < r else 0)
            blocks.append(specs[start : start + size])
            start += size
        self._pool = ShardPool(
            blocks,
            config.fluid,
            vectorized=vectorized,
            recv_timeout=recv_timeout,
        )
        # Scatter staging for the next epoch's enforcement: slot writes
        # land here during cp.tick -- policy pushes through the per-job
        # verbs first, then the algorithm sink -- so a later write to the
        # same slot wins, as a later push would on the wire.
        n_slots = self._pool.n_slots
        self._flags = np.zeros(n_slots)
        self._rates_arr = np.zeros(n_slots)
        self._bursts_arr = np.full(n_slots, BURST_NONE)
        self._sink_version = -1
        self._sink_slots: Optional[np.ndarray] = None
        self._sink_reps: Optional[np.ndarray] = None

        self.control_plane = HierarchicalControlPlane(
            config=controller_config,
            algorithm=algorithm,
            telemetry=telemetry,
            vectorized=True,
            enforce_array_sink=self._enforce_array_sink,
        )
        for rack_id in self._rack_ids:
            self.control_plane.attach_local(
                RackEndpoint(
                    rack_id,
                    collect=self._collect_rack,
                    enforce=self._enforce_rack,
                    enforce_batch=self._enforce_rack_batch,
                )
            )
        for identity, rack_id in registrations:
            self.control_plane.register_remote(identity, rack_id)

    # -- RackEndpoint verbs -------------------------------------------------
    def _collect_rack(self, rack_id: str, message: CollectAggregate) -> ArrayStats:
        index_map = self._pool.index_map
        rack_index = self._rack_index[rack_id]
        demand = self._latest_vec
        if demand is None:
            demand = np.zeros(self._pool.n_slots)
        return ArrayStats(
            local_id=rack_id,
            timestamp=message.now,
            job_ids=index_map.rack_job_ids[rack_index],
            demand=demand[index_map.rack_slice(rack_id)],
            stage_counts=index_map.rack_stage_counts[rack_index],
        )

    def _slot_write(
        self, rack_id: str, job_id: str, rate: float, burst: Optional[float]
    ) -> None:
        slot = self._pool.index_map.slot_of(rack_id, job_id)
        if slot < 0:
            return
        self._flags[slot] = 1.0
        self._rates_arr[slot] = rate
        self._bursts_arr[slot] = BURST_NONE if burst is None else burst

    def _enforce_rack(self, rack_id: str, message: EnforceJobRate) -> bool:
        self._slot_write(rack_id, message.job_id, message.rate, message.burst)
        return True

    def _enforce_rack_batch(
        self, rack_id: str, message: EnforceJobRateBatch
    ) -> bool:
        for job_id, rate, burst in message.entries:
            self._slot_write(rack_id, job_id, rate, burst)
        return True

    def _ensure_sink_layout(self) -> None:
        """(job, hosting rack) -> global slot scatter map, placement-keyed.

        ``_sink_slots[k]`` is the scatter slot of the k-th (job, rack)
        hosting pair and ``_sink_reps[k]`` the job's index in the plane's
        vector job order; each pair appears exactly once, so the fancy
        assignments in :meth:`_enforce_array_sink` have no duplicate
        targets and write order cannot matter.
        """
        version = self.control_plane.placement_version
        if self._sink_version == version:
            return
        index_map = self._pool.index_map
        job_ids = self.control_plane.vector_job_ids()
        slots: List[int] = []
        reps: List[int] = []
        for position, job_id in enumerate(job_ids):
            for rack_id in self.control_plane.hosting_locals(job_id):
                slot = index_map.slot_of(rack_id, job_id)
                if slot >= 0:
                    slots.append(slot)
                    reps.append(position)
        self._sink_slots = np.array(slots, dtype=np.intp)
        self._sink_reps = np.array(reps, dtype=np.intp)
        self._sink_version = version

    def _enforce_array_sink(self, now: float, per_stage: np.ndarray) -> None:
        """The plane's vectorised enforcement lands in the scatter staging.

        ``per_stage`` is aligned to the plane's vector job order; the
        cached scatter map fans each job's (already split) rate out to
        every hosting rack's slot.  Algorithm pushes carry no explicit
        burst (the rack derives ``rate * burst_seconds``), hence the NaN
        sentinel.
        """
        self._ensure_sink_layout()
        slots = self._sink_slots
        self._flags[slots] = 1.0
        self._rates_arr[slots] = per_stage[self._sink_reps]
        self._bursts_arr[slots] = BURST_NONE

    # -- run loop -----------------------------------------------------------
    def run(self, duration: float) -> "ShardedSimulation":
        """Advance ``duration`` seconds of simulated time; returns self.

        No per-job Python object is built per cycle: demand partials
        come back as one float64 slot vector, and enforcement writes
        land in the scatter staging arrays to ride the next epoch out.
        """
        if self._ran:
            raise ConfigError("sharded simulation can only run once")
        config = self.config
        loop_interval = config.loop_interval
        epochs = duration / loop_interval
        if duration <= 0 or abs(epochs - round(epochs)) > 1e-9:
            raise ConfigError(
                "duration must be a positive multiple of loop_interval, got "
                f"{duration} with loop_interval={loop_interval}"
            )
        self._ran = True
        ticks_per_epoch = int(round(loop_interval / config.fluid.dt))
        control_plane = self.control_plane
        pool = self._pool
        flags = self._flags
        telemetry = self._telemetry
        for epoch in range(int(round(epochs))):
            t0 = epoch * loop_interval
            self._latest_vec = pool.run_epoch_arrays(
                t0,
                ticks_per_epoch,
                loop_interval,
                flags,
                self._rates_arr,
                self._bursts_arr,
            )
            now = t0 + loop_interval
            if self._epoch_hook is not None:
                self._epoch_hook(control_plane, now)
            flags[:] = 0.0
            control_plane.tick(now)
            if telemetry is not None:
                telemetry.events.emit(
                    "shard.epoch",
                    now,
                    epoch=epoch,
                    racks=config.n_racks,
                    pushes=int(np.count_nonzero(flags)),
                )
        return self

    def finish(self) -> ShardedResult:
        """Collect per-rack finals and assemble the run result."""
        finals = self._pool.finish()
        rack_served = {final.rack_id: final.served for final in finals}
        n_ticks = max((len(s) for s in rack_served.values()), default=0)
        aggregate = np.zeros(n_ticks)
        # Rack-order accumulation: independent of shard blocking.
        for rack_id in self._rack_ids:
            served = rack_served.get(rack_id)
            if served is not None and len(served):
                aggregate[: len(served)] += served
        job_granted: Dict[str, float] = {
            f"job{j}": 0.0 for j in range(self.config.n_jobs)
        }
        for final in finals:
            for job_id, granted in zip(final.job_ids, final.job_granted):
                job_granted[job_id] = job_granted[job_id] + float(granted)
        return ShardedResult(
            config=self.config,
            rack_served=rack_served,
            aggregate_served=aggregate,
            job_granted=job_granted,
            enforcement_log=tuple(self.control_plane.enforcement_log),
            delivered_ops=float(sum(final.delivered_ops for final in finals)),
            final_backlog=float(sum(final.backlog for final in finals)),
        )

    def close(self) -> None:
        """Release pool workers without collecting results."""
        self._pool.close()

    def __enter__(self) -> "ShardedSimulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
