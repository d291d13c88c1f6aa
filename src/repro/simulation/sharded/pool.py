"""Persistent shard workers with a deterministic epoch barrier.

One resident worker process per shard (the ``SweepRunner`` pool idiom:
same :func:`~repro.runner.sweep.pool_start_method` fork/spawn
selection), each owning a block of :class:`~repro.simulation.sharded.fluid.FluidRack`
sub-worlds.  The coordinator drives them in lock-step epochs:

1. *scatter* -- publish every shard's epoch input (new enforcement
   rates + tick count) before reading any reply, so shards advance in
   parallel;
2. *barrier/gather* -- collect replies **in shard order**, so the merged
   demand signal is a pure function of the global rack order, not of
   worker scheduling.

The wire is the zero-copy format of :mod:`repro.simulation.sharded.shm`:
rates scatter and demand partials gather through double-buffered
shared-memory float64 blocks laid out by a frozen
:class:`~repro.simulation.sharded.shm.ShardIndexMap`, and the pipe
carries only a tiny ``("epoch", n, parity, ...)`` doorbell and its
``("done", n)`` ack.

Because racks are sealed sub-worlds that only exchange state at epoch
boundaries, the blocking (1 process or N) cannot change any computed
float -- shard-count invariance is structural.  ``ShardPool`` with one
shard runs in-process with no worker and no wire (the "single-engine"
configuration the tests compare against); two or more shards get one
resident worker each.

Failure containment: every gather waits with a reply deadline
(``recv_timeout``, counted down in fixed ``poll()`` slices -- no
wall-clock reads in this deterministic layer) and probes worker
liveness, raising :class:`~repro.errors.ShardWorkerError` naming the
dead shard and its racks instead of deadlocking the coordinator; the
pool closes itself (joining with timeout, then terminate, then kill)
and unlinks its shared-memory segments on close, on worker failure, on
a failed start-up, and via an ``atexit`` guard, so no ``/dev/shm``
segment outlives the run.
"""

from __future__ import annotations

import atexit
import math
import multiprocessing
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, ShardWorkerError
from repro.runner.sweep import pool_start_method
from repro.simulation.sharded.fluid import FluidConfig, FluidRack, RackSpec
from repro.simulation.sharded.shm import (
    BURST_NONE,
    COL_BURST,
    COL_FLAG,
    COL_RATE,
    ShardBuffers,
    ShardIndexMap,
)

__all__ = ["RackFinal", "ShardPool"]

#: One rate push for :meth:`ShardPool.run_epoch`: ``(job_id, rate, burst)``.
RateUpdate = Tuple[str, float, Optional[float]]
#: One rack's per-job demand partials: ``(job_id, demand, n_stages)``.
Partials = Tuple[Tuple[str, float, int], ...]

#: Seconds per liveness-check slice while waiting on a shard reply.
_POLL_STEP = 0.05


class RackFinal:
    """End-of-run snapshot of one rack, shipped back over the pipe."""

    def __init__(
        self,
        rack_id: str,
        served: np.ndarray,
        job_ids: Tuple[str, ...],
        job_granted: np.ndarray,
        delivered_ops: float,
        backlog: float,
    ) -> None:
        self.rack_id = rack_id
        self.served = served
        self.job_ids = job_ids
        self.job_granted = job_granted
        self.delivered_ops = delivered_ops
        self.backlog = backlog


def _rack_final(rack: FluidRack) -> RackFinal:
    return RackFinal(
        rack_id=rack.rack_id,
        served=rack.served_series(),
        job_ids=tuple(rack.job_ids),
        job_granted=rack.job_granted.copy(),
        delivered_ops=rack.delivered_ops,
        backlog=rack.total_backlog(),
    )


def _advance(
    rack: FluidRack,
    flags: np.ndarray,
    rates: np.ndarray,
    bursts: np.ndarray,
    t0: float,
    n_ticks: int,
    loop_interval: float,
) -> np.ndarray:
    """One rack's epoch: install its slot rates, tick, report partials."""
    rack.apply_rate_arrays(flags != 0.0, rates, bursts)
    rack.run_epoch(t0, n_ticks)
    return rack.demand_partials_array(loop_interval)


def _shard_worker_shm(
    conn, specs, config, vectorized, seg_names, n_slots, block_start, block_token
) -> None:
    """Worker loop: doorbell pipe + shared-memory float64 block wire.

    The worker rebuilds the index map for its own rack block and refuses
    to serve if its layout token disagrees with the coordinator's --
    layout drift fails loudly at startup instead of corrupting floats.
    Rack slot ranges are contiguous within the global buffers starting
    at ``block_start`` (shard blocks are contiguous rack ranges).
    """
    block_map = ShardIndexMap(specs)
    if block_map.layout_token() != block_token:  # pragma: no cover - drift guard
        conn.send(("error", "shard index-map layout mismatch"))
        conn.close()
        return
    racks = [FluidRack(spec, config, vectorized=vectorized) for spec in specs]
    buffers = ShardBuffers(n_slots, names=seg_names)
    # Per-rack global slot ranges, resolved once.
    slices: List[slice] = []
    for rack in racks:
        local = block_map.rack_slice(rack.rack_id)
        slices.append(slice(block_start + local.start, block_start + local.stop))
    try:
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "epoch":
                _op, epoch_no, parity, t0, n_ticks, loop_interval = msg
                scatter = buffers.scatter[parity]
                gather = buffers.gather[parity]
                for rack, sl in zip(racks, slices):
                    block = scatter[sl]
                    gather[sl] = _advance(
                        rack,
                        block[:, COL_FLAG],
                        block[:, COL_RATE],
                        block[:, COL_BURST],
                        t0,
                        n_ticks,
                        loop_interval,
                    )
                conn.send(("done", epoch_no))
            elif op == "finish":
                conn.send([_rack_final(rack) for rack in racks])
            elif op == "stop":
                break
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown shard command {op!r}")
    except EOFError:  # pragma: no cover - coordinator died
        pass
    finally:
        buffers.close()
        conn.close()


class ShardPool:
    """Farms rack blocks over resident worker processes.

    ``shards`` is a list of rack-spec blocks, one per shard, in global
    rack order.  A single shard runs in-process -- no worker, no wire --
    which doubles as the reference single-engine execution; two or more
    shards get one resident worker each.

    When the constructing process is itself a daemonic pool worker (the
    ``SweepRunner`` case), spawning shard processes is forbidden by the
    multiprocessing module, so every shard runs in-process instead.  Only
    parallelism is lost: the epoch barrier makes results bit-identical
    across shard counts, so a sweep cell computes the same digest either
    way while the sweep pool supplies the cross-cell parallelism.

    :meth:`run_epoch_arrays` is the epoch API: fixed-layout per-slot
    float arrays in :attr:`index_map` order.  :meth:`run_epoch` is a thin
    adapter over it for callers holding per-rack update lists.
    """

    def __init__(
        self,
        shards: Sequence[Sequence[RackSpec]],
        config: FluidConfig,
        vectorized: bool = True,
        recv_timeout: float = 60.0,
    ) -> None:
        if not shards:
            raise ConfigError("need at least one shard")
        if not (recv_timeout > 0 and math.isfinite(recv_timeout)):
            raise ConfigError(
                f"recv_timeout must be positive and finite, got {recv_timeout}"
            )
        blocks = [tuple(block) for block in shards]
        self._n_shards = len(blocks)
        self._recv_timeout = float(recv_timeout)
        self._closed = False
        self._local_racks: Optional[List[FluidRack]] = None
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._conns: List = []
        self._buffers: Optional[ShardBuffers] = None
        self._epoch = 0
        self._shard_rack_ids: List[Tuple[str, ...]] = [
            tuple(spec.rack_id for spec in block) for block in blocks
        ]
        all_specs = [spec for block in blocks for spec in block]
        self.index_map = ShardIndexMap(all_specs)
        self.n_slots = self.index_map.n_slots
        if self._n_shards == 1 or multiprocessing.current_process().daemon:
            self._local_racks = [
                FluidRack(spec, config, vectorized=vectorized)
                for spec in all_specs
            ]
            return
        ctx = multiprocessing.get_context(pool_start_method())
        try:
            self._buffers = ShardBuffers(self.n_slots)
            seg_names = self._buffers.names
            block_start = 0
            for block in blocks:
                block_map = ShardIndexMap(block)
                parent, child = ctx.Pipe()
                self._conns.append(parent)
                try:
                    proc = ctx.Process(
                        target=_shard_worker_shm,
                        args=(
                            child,
                            block,
                            config,
                            vectorized,
                            seg_names,
                            self.n_slots,
                            block_start,
                            block_map.layout_token(),
                        ),
                        daemon=True,
                    )
                    proc.start()
                finally:
                    child.close()
                self._procs.append(proc)
                block_start += block_map.n_slots
        except BaseException:
            # A worker that fails to start (EAGAIN, a spawn error) must
            # not strand its already-running siblings or the segments.
            self.close()
            raise
        # Belt over braces: if the owner never reaches close() (unhandled
        # error up-stack, interpreter teardown), the atexit guard still
        # unlinks the segments and reaps the workers.
        atexit.register(self.close)

    @property
    def n_shards(self) -> int:
        return self._n_shards

    # -- failure-aware scatter/gather ----------------------------------------
    def _send(self, shard: int, msg) -> None:
        """Send one scatter/doorbell message, or fail with a named shard.

        A worker that died between epochs closes its pipe end, so the
        next send raises ``BrokenPipeError``; surface that as the same
        structured :class:`ShardWorkerError` the gather path raises and
        close the pool (reaping survivors, unlinking segments).
        """
        try:
            self._conns[shard].send(msg)
        except (BrokenPipeError, OSError) as exc:
            racks = self._shard_rack_ids[shard]
            self.close()
            raise ShardWorkerError(
                f"shard {shard} worker is gone (send failed) hosting racks "
                f"{racks}: {exc}",
                shard=shard,
                racks=racks,
            ) from exc

    def _await_reply(self, shard: int):
        """Receive one reply with a deadline and a liveness probe.

        The deadline counts down in fixed :data:`_POLL_STEP` slices of
        ``Connection.poll`` rather than reading a wall clock (this is a
        deterministic layer; DET001 applies).  A dead or silent worker
        raises :class:`ShardWorkerError` naming the shard and its racks
        instead of blocking the coordinator forever.
        """
        conn = self._conns[shard]
        proc = self._procs[shard]
        racks = self._shard_rack_ids[shard]
        remaining = self._recv_timeout
        while not conn.poll(_POLL_STEP):
            if not proc.is_alive():
                raise ShardWorkerError(
                    f"shard {shard} worker died (exitcode "
                    f"{proc.exitcode}) hosting racks {racks}",
                    shard=shard,
                    racks=racks,
                )
            remaining -= _POLL_STEP
            if remaining <= 0:
                raise ShardWorkerError(
                    f"shard {shard} missed its {self._recv_timeout:g}s reply "
                    f"deadline hosting racks {racks}",
                    shard=shard,
                    racks=racks,
                )
        try:
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise ShardWorkerError(
                f"shard {shard} closed its pipe mid-reply hosting racks "
                f"{racks}: {exc}",
                shard=shard,
                racks=racks,
            ) from exc
        if isinstance(msg, tuple) and msg and msg[0] == "error":
            raise ShardWorkerError(
                f"shard {shard} failed: {msg[1]}", shard=shard, racks=racks
            )
        return msg

    def _gather(self, collect) -> list:
        """Run ``collect(shard)`` over every shard; close the pool on failure."""
        out = []
        try:
            for shard in range(len(self._conns)):
                out.append(collect(shard))
        except ShardWorkerError:
            self.close()
            raise
        return out

    # -- epoch API ---------------------------------------------------------
    def run_epoch_arrays(
        self,
        t0: float,
        n_ticks: int,
        loop_interval: float,
        flags: np.ndarray,
        rates: np.ndarray,
        bursts: np.ndarray,
    ) -> np.ndarray:
        """Advance every shard one epoch through the array wire format.

        ``flags``/``rates``/``bursts`` are per-slot float64 arrays in
        :attr:`index_map` order (``flags[s] != 0`` means slot ``s`` has a
        rate update; NaN burst means "derive from the rate").  Returns
        the per-slot demand partials in the same order.
        """
        if self._closed:
            raise ConfigError("pool is closed")
        if self._local_racks is not None:
            out = np.empty(self.n_slots)
            for rack in self._local_racks:
                sl = self.index_map.rack_slice(rack.rack_id)
                out[sl] = _advance(
                    rack, flags[sl], rates[sl], bursts[sl],
                    t0, n_ticks, loop_interval,
                )
            return out
        epoch_no = self._epoch
        parity = epoch_no & 1
        scatter = self._buffers.scatter[parity]
        scatter[:, COL_FLAG] = flags
        scatter[:, COL_RATE] = rates
        scatter[:, COL_BURST] = bursts
        for shard in range(len(self._conns)):
            self._send(
                shard, ("epoch", epoch_no, parity, t0, n_ticks, loop_interval)
            )
        for shard, msg in enumerate(self._gather(self._await_reply)):
            if msg != ("done", epoch_no):  # pragma: no cover - protocol drift
                self.close()
                raise ShardWorkerError(
                    f"shard {shard} acked {msg!r}, expected epoch {epoch_no}",
                    shard=shard,
                    racks=self._shard_rack_ids[shard],
                )
        self._epoch = epoch_no + 1
        return self._buffers.gather[parity].copy()

    def run_epoch(
        self,
        t0: float,
        n_ticks: int,
        loop_interval: float,
        rates: Dict[str, List[RateUpdate]],
    ) -> List[Tuple[str, Partials]]:
        """:meth:`run_epoch_arrays` for per-rack update lists.

        ``rates`` maps a rack id to ``(job_id, rate, burst)`` pushes,
        applied in list order with later-entry-wins semantics (sequential
        slot overwrites reproduce exactly that; unknown pairs are
        skipped).  Returns ``(rack_id, partials)`` in global rack order.
        """
        index_map = self.index_map
        flags = np.zeros(self.n_slots)
        rate_arr = np.zeros(self.n_slots)
        burst_arr = np.full(self.n_slots, BURST_NONE)
        for rack_id, rack_updates in rates.items():
            for job_id, rate, burst in rack_updates:
                slot = index_map.slot_of(rack_id, job_id)
                if slot < 0:
                    continue
                flags[slot] = 1.0
                rate_arr[slot] = rate
                burst_arr[slot] = BURST_NONE if burst is None else burst
        demand = self.run_epoch_arrays(
            t0, n_ticks, loop_interval, flags, rate_arr, burst_arr
        )
        merged: List[Tuple[str, Partials]] = []
        for rack_id, job_ids, counts in zip(
            index_map.rack_ids,
            index_map.rack_job_ids,
            index_map.rack_stage_counts,
        ):
            sl = index_map.rack_slice(rack_id)
            merged.append(
                (rack_id, tuple(zip(job_ids, demand[sl].tolist(), counts)))
            )
        return merged

    # -- lifecycle -----------------------------------------------------------
    def finish(self) -> List[RackFinal]:
        """Collect per-rack finals (in rack order) and stop the workers."""
        if self._closed:
            raise ConfigError("pool is closed")
        if self._local_racks is not None:
            finals = [_rack_final(rack) for rack in self._local_racks]
            self.close()
            return finals
        for shard in range(len(self._conns)):
            self._send(shard, ("finish",))
        finals: List[RackFinal] = []
        for reply in self._gather(self._await_reply):
            finals.extend(reply)
        self.close()
        return finals

    def close(self) -> None:
        """Stop workers and unlink shared segments; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
        self._local_racks = None
        try:
            for conn in self._conns:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):  # pragma: no cover
                    pass
            for proc in self._procs:
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=1.0)
                if proc.is_alive():  # pragma: no cover - unkillable worker
                    proc.kill()
                    proc.join(timeout=1.0)
            for conn in self._conns:
                conn.close()
        finally:
            self._procs = []
            self._conns = []
            if self._buffers is not None:
                buffers, self._buffers = self._buffers, None
                buffers.close()
                buffers.unlink()

    #: ``stop()`` is the same operation as close.
    stop = close

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
