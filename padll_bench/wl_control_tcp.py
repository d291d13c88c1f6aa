"""Workload ``live_control_tcp``: the live control loop over loopback TCP.

64 ``LiveStage``s in 16 jobs sit behind 2 in-process stage hosts.  Each
host dials the controller's ``SocketTransport`` and registers its stages;
the controller then collects and enforces back over the dialed
connection -- the reverse tunnel ``serve --stage-procs`` uses.  The main
thread alternates a seeded, shifting demand feed (``LiveStage.throttle``
on every stage, under a ``ProportionalSharing`` capacity high enough that
the feed never blocks) with ``ControlPlane.tick(time.monotonic())``.
Program telemetry is on with ``ServiceConfig``'s defaults.

The unit of work is one control cycle; a step is one ``tick``.
"""

from __future__ import annotations

import queue
import random
import time

from common import Outcome, median, percentile, steps_for
from repro.core.algorithms import ProportionalSharing
from repro.core.controller import ControlPlane, ControlPlaneConfig
from repro.core.fabric import FaultyFabric
from repro.core.rpc import StageEndpoint
from repro.core.requests import OperationType, Request
from repro.net import SocketTransport
from repro.service.config import ServiceConfig
from repro.service.hosts import partition_stages
from repro.service.stagehost import StageHost
from repro.telemetry.runtime import Telemetry, TelemetryConfig

N_JOBS = 16
STAGES_PER_JOB = 4
N_HOSTS = 2
#: Far above the feed.  Proportional sharing allocates a job its measured
#: demand times ``HEADROOM``; a generous headroom keeps every bucket far
#: ahead of the feed even after a long cycle shrinks the measured rate.
CAPACITY = 1e9
HEADROOM = 1e3
#: Feed rows precomputed per run; cycles walk them in order.
FEED_ROWS = 256
#: Cycles of the traced run's unit.
UNIT_CYCLES = 60
#: Cycles per timed step between speed marks, and one such step at
#: reference speed, seconds.
BATCH_CYCLES = 32
REFERENCE_BATCH_S = 0.6
REGISTER_TIMEOUT = 10.0


def make_feed(seed: int, n_stages: int):
    """Seeded per-cycle, per-stage op counts whose job weights shift."""
    rng = random.Random(seed)
    rows = []
    weights = [rng.uniform(1.0, 8.0) for _ in range(N_JOBS)]
    for cycle in range(FEED_ROWS):
        if cycle % 32 == 0:
            # The demand mix shifts every 32 cycles.
            weights = [rng.uniform(1.0, 8.0) for _ in range(N_JOBS)]
        rows.append(
            [
                float(1 + int(weights[s // STAGES_PER_JOB] * rng.uniform(1.0, 6.0)))
                for s in range(n_stages)
            ]
        )
    return rows


class Workload:
    name = "live_control_tcp"

    def __init__(self, seed: int, workdir) -> None:
        service = ServiceConfig()
        self.telemetry = Telemetry(
            TelemetryConfig(seed=seed, sample_rate=service.sample_rate, trace=service.trace)
        )
        self._pushes: "queue.Queue" = queue.Queue()
        self.transport = SocketTransport()
        self.hosts = []
        try:
            host, port = self.transport.listen("127.0.0.1", 0, on_push=self._on_push)
            fabric = FaultyFabric(
                seed=seed, telemetry=self.telemetry, clock=time.monotonic,
                transport=self.transport,
            )
            self.controller = ControlPlane(
                fabric=fabric,
                config=ControlPlaneConfig(
                    loop_interval=service.interval, algorithm_channel=service.channel, seed=seed
                ),
                algorithm=ProportionalSharing(capacity=CAPACITY, headroom=HEADROOM),
                telemetry=self.telemetry,
            )
            for index, stage_ids in enumerate(partition_stages(N_JOBS, STAGES_PER_JOB, N_HOSTS)):
                stage_host = StageHost(
                    f"host{index}", stage_ids, channel=service.channel, seed=seed,
                    sample_rate=service.sample_rate,
                )
                self.hosts.append(stage_host)
                stage_host.start(host, port)
            self._await_registrations(N_JOBS * STAGES_PER_JOB)
        except BaseException:
            self.close()
            raise
        self.stages = sorted(
            (stage for h in self.hosts for stage in h.stages),
            key=lambda stage: stage.identity.stage_id,
        )
        self.feed = make_feed(seed, len(self.stages))
        self.requests = [
            Request(op=OperationType.OPEN, path="/pfs/bench/f", job_id=stage.identity.job_id)
            for stage in self.stages
        ]
        self.cycle = 0
        self.throttle_failures = 0
        # Two untimed cycles: the first sets every channel's rate.
        self.cycles(2)

    # -- registration over the wire --------------------------------------------
    def _on_push(self, connection, doc) -> None:
        if isinstance(doc, dict) and doc.get("kind") == "register":
            self._pushes.put((connection, doc))

    def _await_registrations(self, expected: int) -> None:
        deadline = time.monotonic() + REGISTER_TIMEOUT
        while len(self.controller.stages) < expected:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"only {len(self.controller.stages)} of {expected} stages registered"
                )
            try:
                connection, doc = self._pushes.get(timeout=remaining)
            except queue.Empty:
                continue
            address = doc["address"]

            def handler(message, _connection=connection, _address=address):
                return _connection.request(_address, message)

            self.controller.register_endpoint(doc["stage"], handler, now=time.monotonic())

    # -- the loop ------------------------------------------------------------------
    def _feed(self) -> None:
        row = self.feed[self.cycle % FEED_ROWS]
        for stage, request, count in zip(self.stages, self.requests, row):
            request.count = count
            if stage.throttle(request) is None:
                self.throttle_failures += 1

    def cycles(self, n: int, ticks=None) -> None:
        clock = time.perf_counter
        tick = self.controller.tick
        for _ in range(n):
            self._feed()
            t0 = clock()
            tick(time.monotonic())
            if ticks is not None:
                ticks.append(clock() - t0)
            self.cycle += 1

    def run_unit(self) -> None:
        self.cycles(UNIT_CYCLES)

    def _rebind_endpoints(self) -> None:
        """Re-bind every host-side endpoint from ``StageEndpoint`` as it is now.

        A host binds ``StageEndpoint(stage).handle`` once, at set-up; the
        traced run re-binds so the bound method goes through its span.
        """
        for stage_host in self.hosts:
            for stage in stage_host.stages:
                stage_id = stage.identity.stage_id
                stage_host.transport.unbind(stage_id)
                stage_host.transport.bind(stage_id, StageEndpoint(stage).handle)

    def trace(self, recorder, patcher) -> None:
        self._rebind_endpoints()

    def untrace(self) -> None:
        self._rebind_endpoints()

    def stale_replies(self) -> int:
        connections = list(self.transport.listener.connections())
        connections += [h.connection for h in self.hosts if h.connection is not None]
        return sum(c.stale_replies for c in connections)

    def rate_mismatches(self) -> list:
        """Stages whose channel rate is not their share of the job's last rate."""
        last = {}
        for _now, job_id, rate in self.controller.enforcement_log:
            last[job_id] = rate
        min_rate = self.controller.config.min_rate
        wrong = []
        for stage in self.stages:
            job = self.controller.jobs[stage.identity.job_id]
            expected = max(min_rate, last[stage.identity.job_id] / job.n_stages)
            actual = stage.channel_rate(self.controller.config.algorithm_channel)
            if actual != expected:
                wrong.append(f"{stage.identity.stage_id}: {actual} != {expected}")
        return wrong

    def run(self, seconds: float, speed) -> Outcome:
        ticks = []
        #: Per batch: cycles/s, p50 and p90 tick (s); raw and scaled.
        raw_batches, ref_batches = [], []
        failures0 = self.controller.collect_failures
        iterations0 = self.controller.loop_iterations
        for _ in range(steps_for(seconds, REFERENCE_BATCH_S)):
            batch = []
            _, raw, factor = speed.timed(self.cycles, BATCH_CYCLES, batch)
            ticks.extend(batch)
            summary = [len(batch) / raw, median(batch), percentile(batch, 90.0)]
            raw_batches.append(summary)
            ref_batches.append([summary[0] / factor, summary[1] * factor, summary[2] * factor])
        # Medians over batches: a burst of slow ticks (a telemetry push, a
        # slow second of the machine) moves a few batches, not the median.
        raw_rate, raw_p50, raw_p90 = (median(column) for column in zip(*raw_batches))
        ref_rate, ref_p50, ref_p90 = (median(column) for column in zip(*ref_batches))
        outcome = Outcome(
            metrics={"work_per_s": ref_rate, "step_ms_p50": 1e3 * ref_p50, "step_ms_p90": 1e3 * ref_p90},
            raw={"work_per_s": raw_rate, "step_ms_p50": 1e3 * raw_p50, "step_ms_p90": 1e3 * raw_p90},
            attempted=len(ticks),
            failed=0,
        )
        failures = self.controller.collect_failures - failures0
        stale = self.stale_replies()
        wrong = self.rate_mismatches()
        outcome.check("collect_failures == 0", failures == 0, str(failures))
        outcome.check("stale_replies == 0", stale == 0, str(stale))
        outcome.check(
            "every stage holds its share of the job's last rate", not wrong, "; ".join(wrong[:3])
        )
        outcome.check(
            "every cycle ran", self.controller.loop_iterations - iterations0 == len(ticks), ""
        )
        outcome.check("every throttle admitted", self.throttle_failures == 0, str(self.throttle_failures))
        outcome.failed = min(len(ticks), failures + self.throttle_failures)
        outcome.report = [
            ("cycles_per_s", outcome.raw["work_per_s"], "cycles/s", f"raw; {N_JOBS * STAGES_PER_JOB} stages"),
            ("cycle_ms_p50", 1e3 * median(ticks), "ms", f"raw; n={len(ticks)}"),
            ("cycle_ms_p99", 1e3 * percentile(ticks, 99.0), "ms", f"raw; n={len(ticks)}"),
        ]
        return outcome

    def counters(self) -> dict:
        return {
            "net.stale_replies": self.stale_replies(),
            "core.controller.collect_failures": self.controller.collect_failures,
        }

    def close(self) -> None:
        for stage_host in self.hosts:
            stage_host.stop()
        self.transport.close()
