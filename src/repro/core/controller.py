"""The PADLL control plane.

A logically centralised component with global visibility: stages register
as they start (reporting job id, host, pid), the control plane groups
stages by job and runs a feedback loop that

1. **collects** window statistics from every stage over RPC,
2. **verifies** the installed policies against the current time/state, and
3. **enforces** new rates -- from explicit policy rules and/or from a
   cluster-wide allocation algorithm (static, priority, proportional
   sharing, DRF).

Stages of the same job are orchestrated as one entity: a job-level rate is
split equally across the job's stages (matching the paper's description of
distributed jobs with one stage per application instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigError, PolicyError, RPCError, StageNotRegistered
from repro.core.algorithms import AllocationAlgorithm, JobDemand, MIN_RATE
from repro.core.policies import PolicyRule
from repro.core.ringlog import RingLog
from repro.core.fabric import FaultyFabric
from repro.core.rpc import CollectStats, EnforceRate, StageEndpoint
from repro.core.session import CollectSession
from repro.core.stage import DataPlaneStage, StageIdentity, StageStats
from repro.simulation.rng import make_rng

__all__ = ["JobInfo", "ControlPlaneConfig", "ControlPlane"]


@dataclass(slots=True)
class JobInfo:
    """Control-plane bookkeeping for one job."""

    job_id: str
    stage_ids: List[str] = field(default_factory=list)
    #: Guaranteed rate used by reservation-based algorithms.
    reservation: float = 0.0
    registered_at: float = 0.0

    @property
    def n_stages(self) -> int:
        return len(self.stage_ids)


@dataclass(slots=True)
class ControlPlaneConfig:
    """Loop tuning knobs."""

    #: Feedback-loop period in seconds.
    loop_interval: float = 1.0
    #: Channel the cluster-wide algorithm controls (e.g. "metadata").
    algorithm_channel: str = "metadata"
    #: Smallest rate ever enforced (token buckets need a positive rate).
    min_rate: float = MIN_RATE
    #: Consecutive failed stat collections after which a stage is presumed
    #: dead and deregistered (its job's share is redistributed).  None
    #: disables liveness eviction -- a dependability knob from the paper's
    #: section VI future-work discussion.
    max_missed_collects: Optional[int] = None
    #: Cap on the enforcement/eviction audit trails (ring buffers).  The
    #: default comfortably holds every paper-scale experiment's full trail
    #: while bounding memory in long-running live loops; None = unbounded.
    history_limit: Optional[int] = 65536
    #: Collect through per-endpoint async sessions (deadlines, retries,
    #: staleness) instead of the synchronous walk.  Requires a fabric with
    #: ``call_async`` and an attached engine.
    async_collect: bool = False
    #: Reply deadline for one async collect request; None means half the
    #: loop interval.
    collect_deadline: Optional[float] = None
    #: Extra attempts after a timeout/failure before it counts as a miss.
    max_collect_retries: int = 0
    #: Backoff before a retry: ``retry_backoff * factor**(attempt-1)``
    #: seconds, stretched by up to ``retry_jitter`` (seeded, relative).
    retry_backoff: float = 0.0
    retry_backoff_factor: float = 2.0
    retry_jitter: float = 0.0
    #: Cap on new collect requests issued per tick (None = all endpoints);
    #: the issue order rotates so every endpoint is eventually served.
    collect_budget: Optional[int] = None
    #: How long a stale (pre-deadline) stats reply stays usable by the
    #: allocator; None means only fresh replies feed the demand signal.
    stale_ttl: Optional[float] = None
    #: Half-life of the stale-demand discount: a reply ``age`` seconds old
    #: contributes ``0.5 ** (age / stale_halflife)`` of its demand.  None
    #: disables discounting.
    stale_halflife: Optional[float] = None
    #: Seed for the control plane's own RNG (retry jitter only).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.loop_interval <= 0:
            raise ConfigError(
                f"loop interval must be positive, got {self.loop_interval}"
            )
        if self.min_rate <= 0:
            raise ConfigError(f"min rate must be positive, got {self.min_rate}")
        if self.max_missed_collects is not None and self.max_missed_collects < 1:
            raise ConfigError(
                f"max_missed_collects must be >= 1, got {self.max_missed_collects}"
            )
        if self.history_limit is not None and self.history_limit < 1:
            raise ConfigError(
                f"history_limit must be >= 1, got {self.history_limit}"
            )
        if self.collect_deadline is not None and self.collect_deadline <= 0:
            raise ConfigError(
                f"collect_deadline must be positive, got {self.collect_deadline}"
            )
        if self.max_collect_retries < 0:
            raise ConfigError(
                f"max_collect_retries must be >= 0, got {self.max_collect_retries}"
            )
        if self.retry_backoff < 0:
            raise ConfigError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.retry_backoff_factor < 1:
            raise ConfigError(
                f"retry_backoff_factor must be >= 1, got {self.retry_backoff_factor}"
            )
        if self.retry_jitter < 0:
            raise ConfigError(
                f"retry_jitter must be >= 0, got {self.retry_jitter}"
            )
        if self.collect_budget is not None and self.collect_budget < 1:
            raise ConfigError(
                f"collect_budget must be >= 1, got {self.collect_budget}"
            )
        if self.stale_ttl is not None and self.stale_ttl <= 0:
            raise ConfigError(f"stale_ttl must be positive, got {self.stale_ttl}")
        if self.stale_halflife is not None and self.stale_halflife <= 0:
            raise ConfigError(
                f"stale_halflife must be positive, got {self.stale_halflife}"
            )


class ControlPlane:
    """Global coordinator of all data-plane stages."""

    def __init__(
        self,
        fabric: Optional[FaultyFabric] = None,
        config: Optional[ControlPlaneConfig] = None,
        algorithm: Optional[AllocationAlgorithm] = None,
        health_probe: Optional[Callable[[], bool]] = None,
        telemetry=None,
    ) -> None:
        self.fabric = fabric if fabric is not None else FaultyFabric()
        self.config = config or ControlPlaneConfig()
        self.algorithm = algorithm
        #: Optional PFS health check.  The control plane has global
        #: visibility, which includes the storage system itself: while the
        #: probe reports unhealthy (e.g. MDS failover in progress), the
        #: loop *pauses* the algorithm channel -- stages hold their
        #: backlog at the compute nodes instead of feeding a recovery
        #: storm to the replacement server.
        self.health_probe = health_probe
        self.pause_ticks = 0
        self._stages: Dict[str, StageIdentity] = {}
        self._jobs: Dict[str, JobInfo] = {}
        self._policies: Dict[str, PolicyRule] = {}
        self._last_stats: Dict[str, StageStats] = {}
        #: (now, job_id, rate) tuples of every algorithm enforcement -- the
        #: audit trail experiments assert against.  Bounded (ring buffer)
        #: so long-running live loops cannot leak; ``history_limit=None``
        #: restores the unbounded legacy behaviour.
        self.enforcement_log: RingLog = RingLog(self.config.history_limit)
        self.loop_iterations = 0
        self.collect_failures = 0
        #: Async-collect bookkeeping: deadline expiries observed.
        self.collect_timeouts = 0
        self._missed_collects: Dict[str, int] = {}
        #: Stages evicted by the liveness check: (time, stage_id).
        self.evictions: RingLog = RingLog(self.config.history_limit)
        #: Per-endpoint collect sessions (async mode only).
        self._sessions: Dict[str, CollectSession] = {}
        #: Age (seconds) of each stats entry the last collect produced;
        #: feeds the allocator's stale-demand discount.  Empty in sync
        #: mode, where every entry is from this very tick.
        self._stats_age: Dict[str, float] = {}
        #: Seeded RNG for retry-backoff jitter; nothing else draws from it.
        self._rng = make_rng(self.config.seed)
        #: Telemetry spine (None = introspection off).  When attached, every
        #: loop iteration appends one ``control.cycle`` event recording what
        #: the loop saw and what it pushed.
        self._telemetry = telemetry
        self._prev_rates: Dict[str, float] = {}

    # -- registration -------------------------------------------------------
    def register(
        self, stage: DataPlaneStage, now: float = 0.0
    ) -> None:
        """Register a local stage object (binds an endpoint on the fabric)."""
        self.register_endpoint(stage.identity, StageEndpoint(stage).handle, now)

    def register_endpoint(
        self,
        identity: StageIdentity,
        handler: Callable[..., object],
        now: float = 0.0,
    ) -> None:
        """Register a stage by identity + RPC handler (remote form)."""
        if identity.stage_id in self._stages:
            raise ConfigError(f"stage {identity.stage_id!r} already registered")
        self.fabric.bind(identity.stage_id, handler)
        self._stages[identity.stage_id] = identity
        job = self._jobs.get(identity.job_id)
        if job is None:
            job = JobInfo(job_id=identity.job_id, registered_at=now)
            self._jobs[identity.job_id] = job
        job.stage_ids.append(identity.stage_id)

    def deregister(self, stage_id: str) -> None:
        """Remove a stage (job teardown); removes the job when empty."""
        identity = self._stages.pop(stage_id, None)
        if identity is None:
            raise StageNotRegistered(f"stage {stage_id!r} not registered")
        self.fabric.unbind(stage_id)
        self._last_stats.pop(stage_id, None)
        self._missed_collects.pop(stage_id, None)
        session = self._sessions.pop(stage_id, None)
        if session is not None:
            session.abandon()
        job = self._jobs[identity.job_id]
        job.stage_ids.remove(stage_id)
        if not job.stage_ids:
            del self._jobs[identity.job_id]

    def deregister_job(self, job_id: str) -> None:
        """Remove every stage of a job."""
        job = self._jobs.get(job_id)
        if job is None:
            raise StageNotRegistered(f"job {job_id!r} not registered")
        for stage_id in list(job.stage_ids):
            self.deregister(stage_id)

    @property
    def jobs(self) -> Dict[str, JobInfo]:
        return dict(self._jobs)

    @property
    def stages(self) -> Dict[str, StageIdentity]:
        return dict(self._stages)

    def set_reservation(self, job_id: str, rate: float) -> None:
        """Assign a job's guaranteed rate (used by reservation algorithms)."""
        if rate < 0:
            raise PolicyError(f"reservation must be >= 0, got {rate}")
        job = self._jobs.get(job_id)
        if job is None:
            raise StageNotRegistered(f"job {job_id!r} not registered")
        job.reservation = rate

    # -- policies --------------------------------------------------------------
    def install_policy(self, rule: PolicyRule) -> None:
        if rule.name in self._policies:
            raise PolicyError(f"policy {rule.name!r} already installed")
        self._policies[rule.name] = rule

    def remove_policy(self, name: str) -> None:
        if name not in self._policies:
            raise PolicyError(f"no policy named {name!r}")
        del self._policies[name]

    def replace_policy(self, rule: PolicyRule) -> None:
        """Install ``rule``, superseding any same-named policy.

        The operator service's ``set policy`` admin verb routes through
        here: "the newest instruction applies" without the caller having
        to know whether the name was already installed.
        """
        self._policies[rule.name] = rule

    def set_policy_enabled(self, name: str, enabled: bool) -> None:
        """Flip one installed policy without losing its schedule."""
        rule = self._policies.get(name)
        if rule is None:
            raise PolicyError(f"no policy named {name!r}")
        rule.enabled = bool(enabled)

    @property
    def policies(self) -> Dict[str, PolicyRule]:
        return dict(self._policies)

    # -- the feedback loop ---------------------------------------------------
    def tick(self, now: float) -> None:
        """One control-loop iteration: collect -> verify -> enforce."""
        self.loop_iterations += 1
        stats = self._collect(now)
        telemetry = self._telemetry
        if self.health_probe is not None and not self.health_probe():
            # PFS unhealthy: pause every job's algorithm channel so the
            # outage backlog queues at the stages, not at the recovering
            # server.  Explicit admin policies still apply.
            self.pause_ticks += 1
            policy_rates = self._enforce_policies(now)
            paused_rates = {}
            for job_id in self._jobs:
                self._push_job_rate(
                    job_id, self.config.algorithm_channel,
                    self.config.min_rate, now,
                )
                paused_rates[job_id] = self.config.min_rate
            if telemetry is not None:
                self._emit_cycle(
                    telemetry, now, stats, None, paused_rates, policy_rates,
                    paused=True,
                )
            return
        policy_rates = self._enforce_policies(now)
        demands = None
        enforced = None
        if self.algorithm is not None:
            demands, enforced = self._enforce_algorithm(now, stats)
        if telemetry is not None:
            self._emit_cycle(
                telemetry, now, stats, demands, enforced, policy_rates,
                paused=False,
            )

    def _collect(self, now: float) -> Dict[str, StageStats]:
        if self.config.async_collect:
            return self._collect_async(now)
        stats: Dict[str, StageStats] = {}
        limit = self.config.max_missed_collects
        for stage_id in list(self._stages):
            try:
                result = self.fabric.call(stage_id, CollectStats(now=now))
            except RPCError:
                self.collect_failures += 1
                misses = self._missed_collects.get(stage_id, 0) + 1
                self._missed_collects[stage_id] = misses
                if limit is not None and misses >= limit:
                    # Presumed dead: evict so the job's share is
                    # redistributed instead of reserved for a ghost.
                    self.evictions.append((now, stage_id))
                    self.deregister(stage_id)
                continue
            self._missed_collects.pop(stage_id, None)
            if result is not None:
                stats[stage_id] = result
                self._last_stats[stage_id] = result
        return stats

    def _record_miss(self, endpoint: str, now: float) -> bool:
        """Account one definitive collect miss; True if ``endpoint`` was
        evicted (and must not be re-issued this tick)."""
        self.collect_failures += 1
        misses = self._missed_collects.get(endpoint, 0) + 1
        self._missed_collects[endpoint] = misses
        limit = self.config.max_missed_collects
        if limit is not None and misses >= limit:
            self.evictions.append((now, endpoint))
            if self._telemetry is not None:
                self._telemetry.events.emit(
                    "control.evict", now, endpoint=endpoint, misses=misses
                )
            self._evict(endpoint)
            return True
        return False

    def _evict(self, endpoint: str) -> None:
        """Deregister a liveness-evicted endpoint (hierarchy overrides)."""
        self.deregister(endpoint)

    def _collect_endpoints(self) -> List[str]:
        """Addresses the collect state machine polls (stages, by default)."""
        return list(self._stages)

    def _collect_message(self, now: float):
        """The request one collect session issues (hierarchy overrides)."""
        return CollectStats(now=now)

    def _collect_async(self, now: float) -> Dict[str, StageStats]:
        """Session-driven collect: issue/retry/timeout per endpoint.

        One pass over the endpoints advances each session's state machine
        at this tick boundary: harvest replies that arrived since the
        last tick, expire deadlines into retries (seeded-jitter
        exponential backoff) or -- with retries exhausted -- liveness
        misses, then issue new requests within the per-tick budget.
        """
        config = self.config
        deadline = (
            config.collect_deadline
            if config.collect_deadline is not None
            else config.loop_interval / 2
        )
        budget = config.collect_budget
        telemetry = self._telemetry
        endpoints = self._collect_endpoints()
        if budget is not None and endpoints:
            # Rotate the issue order so a tight budget still serves every
            # endpoint round-robin across ticks.
            k = self.loop_iterations % len(endpoints)
            endpoints = endpoints[k:] + endpoints[:k]
        issued = 0
        stats: Dict[str, StageStats] = {}
        ages: Dict[str, float] = {}
        for endpoint in endpoints:
            session = self._sessions.get(endpoint)
            if session is None:
                session = self._sessions[endpoint] = CollectSession(endpoint)
            # -- expire: endpoint failure or deadline passed ----------------
            miss = False
            if session.failed:
                session.failed = False
                miss = self._handle_expiry(session, now)
            elif (
                session.pending is not None
                and now - session.issued_at >= deadline
            ):
                session.abandon()
                session.timeouts += 1
                self.collect_timeouts += 1
                if telemetry is not None:
                    telemetry.events.emit(
                        "control.collect_timeout",
                        now,
                        endpoint=endpoint,
                        attempt=session.attempt,
                    )
                miss = self._handle_expiry(session, now)
            if miss:
                continue  # evicted
            # -- harvest ----------------------------------------------------
            if session.stats is not None:
                age = now - session.stats_at
                fresh = age <= config.loop_interval
                if fresh:
                    self._missed_collects.pop(endpoint, None)
                    self._last_stats[endpoint] = session.stats
                if fresh or (
                    config.stale_ttl is not None and age <= config.stale_ttl
                ):
                    stats[endpoint] = session.stats
                    ages[endpoint] = age
            # -- issue ------------------------------------------------------
            if (
                session.pending is None
                and now >= session.next_attempt_at
                and (budget is None or issued < budget)
            ):
                try:
                    session.issue(self.fabric, self._collect_message(now), now)
                except (RPCError, StageNotRegistered):
                    if self._record_miss(endpoint, now):
                        continue
                else:
                    issued += 1
        self._stats_age = ages
        return stats

    def _handle_expiry(self, session: CollectSession, now: float) -> bool:
        """Route one expired attempt into retry-with-backoff or a miss;
        True if the endpoint was evicted."""
        config = self.config
        if session.attempt <= config.max_collect_retries:
            backoff = config.retry_backoff * (
                config.retry_backoff_factor ** (session.attempt - 1)
            )
            if config.retry_jitter > 0 and backoff > 0:
                backoff *= 1.0 + config.retry_jitter * self._rng.random()
            session.next_attempt_at = now + backoff
            return False
        session.attempt = 0
        session.next_attempt_at = now
        return self._record_miss(session.endpoint, now)

    def _enforce_policies(self, now: float) -> Dict[tuple[str, str], float]:
        # Resolve conflicts: for each (job, channel) keep the highest-priority
        # enabled policy (ties: later install wins, matching admin intent of
        # "the newest instruction applies").
        winners: Dict[tuple[str, str], PolicyRule] = {}
        for rule in self._policies.values():
            if not rule.enabled:
                continue
            for job_id in self._jobs:
                if not rule.scope.applies_to_job(job_id):
                    continue
                key = (job_id, rule.scope.channel_id)
                prev = winners.get(key)
                if prev is None or rule.priority >= prev.priority:
                    winners[key] = rule
        pushed: Dict[tuple[str, str], float] = {}
        for (job_id, channel_id), rule in winners.items():
            rate = max(self.config.min_rate, rule.rate_at(now))
            pushed[(job_id, channel_id)] = rate
            self._push_job_rate(job_id, channel_id, rate, now, rule.burst)
        return pushed

    def _enforce_algorithm(
        self, now: float, stats: Dict[str, StageStats]
    ) -> tuple[Optional[List[JobDemand]], Optional[Dict[str, float]]]:
        demands = self._job_demands(stats)
        if not demands:
            return None, None
        allocation = self.algorithm.allocate(demands)
        enforced: Dict[str, float] = {}
        for job_id, rate in allocation.items():
            rate = max(self.config.min_rate, rate)
            enforced[job_id] = rate
            self.enforcement_log.append((now, job_id, rate))
            self._push_job_rate(job_id, self.config.algorithm_channel, rate, now)
        return demands, enforced

    def _emit_cycle(
        self,
        telemetry,
        now: float,
        stats: Dict[str, StageStats],
        demands: Optional[List[JobDemand]],
        enforced: Optional[Dict[str, float]],
        policy_rates: Dict[tuple[str, str], float],
        paused: bool,
    ) -> None:
        """Append one ``control.cycle`` introspection event.

        Records the loop's whole decision surface: observed per-channel
        demand/throughput/backlog, the algorithm's inputs, the computed
        (clamped) rates, and each rate's delta against the previous cycle.
        Runs only with telemetry attached; the tel-only ``_prev_rates``
        state never feeds back into enforcement arithmetic.
        """
        observed: Dict[str, Dict[str, Dict[str, float]]] = {}
        for stage_id, st in stats.items():
            observed[stage_id] = {
                snap.channel_id: {
                    "enqueued_rate": st.demand_rate(snap.channel_id),
                    "granted_rate": st.granted_rate(snap.channel_id),
                    "backlog": snap.backlog,
                    "rate_limit": snap.rate_limit,
                }
                for snap in st.channels
            }
        rates: Dict[str, float] = dict(enforced or {})
        for (job_id, channel_id), rate in policy_rates.items():
            rates[f"{job_id}:{channel_id}"] = rate
        prev = self._prev_rates
        deltas = {target: rate - prev.get(target, 0.0) for target, rate in rates.items()}
        self._prev_rates = rates
        telemetry.events.emit(
            "control.cycle",
            now,
            iteration=self.loop_iterations,
            paused=paused,
            observed=observed,
            demand={d.job_id: d.demand for d in demands} if demands else {},
            reservations={d.job_id: d.reservation for d in demands} if demands else {},
            algorithm=type(self.algorithm).__name__ if self.algorithm else None,
            rates=dict(enforced or {}),
            policy_rates={
                f"{job_id}:{channel_id}": rate
                for (job_id, channel_id), rate in policy_rates.items()
            },
            deltas=deltas,
        )

    def _job_demands(self, stats: Dict[str, StageStats]) -> List[JobDemand]:
        """Aggregate per-stage windows into per-job demand signals.

        Demand = offered rate over the window plus the backlog's drain
        desire (backlog / loop interval): a job with queued work wants at
        least enough rate to clear it within one loop period.

        Async collects stamp each entry with its *age*; with
        ``stale_halflife`` configured, a stale entry's demand is
        discounted by ``0.5 ** (age / halflife)`` so decisions lean on
        old observations progressively less.  Fresh (age-zero) entries
        take the exact legacy accumulation path, bit for bit.
        """
        channel = self.config.algorithm_channel
        halflife = self.config.stale_halflife
        ages = self._stats_age
        per_job_demand: Dict[str, float] = {}
        for stage_id, st in stats.items():
            snap = next((c for c in st.channels if c.channel_id == channel), None)
            if snap is None:
                continue
            window = st.window if st.window > 0 else self.config.loop_interval
            offered = snap.enqueued_ops / window
            drain = snap.backlog / self.config.loop_interval
            if halflife is not None and ages:
                age = ages.get(stage_id, 0.0)
                if age > 0.0:
                    discounted = (offered + drain) * (0.5 ** (age / halflife))
                    per_job_demand[st.job_id] = (
                        per_job_demand.get(st.job_id, 0.0) + discounted
                    )
                    continue
            # Exact legacy accumulation order -- golden digests depend on
            # this float expression bit for bit.
            per_job_demand[st.job_id] = per_job_demand.get(st.job_id, 0.0) + offered + drain
        return [
            JobDemand(
                job_id=job_id,
                demand=per_job_demand.get(job_id, 0.0),
                reservation=job.reservation,
            )
            for job_id, job in self._jobs.items()
        ]

    def _push_job_rate(
        self,
        job_id: str,
        channel_id: str,
        rate: float,
        now: float,
        burst: Optional[float] = None,
    ) -> None:
        """Split a job-level rate equally across the job's stages and push."""
        job = self._jobs.get(job_id)
        if job is None or not job.stage_ids:
            return
        per_stage = max(self.config.min_rate, rate / job.n_stages)
        per_burst = None if burst is None else max(burst / job.n_stages, per_stage)
        for stage_id in job.stage_ids:
            try:
                self.fabric.call(
                    stage_id,
                    EnforceRate(
                        channel_id=channel_id, rate=per_stage, now=now, burst=per_burst
                    ),
                )
            except RPCError:
                self.collect_failures += 1
            except ConfigError:
                # The stage has no such channel: the rule does not apply to
                # it (e.g. a data-only stage receiving a metadata rule).
                continue

    # -- convenience -------------------------------------------------------------
    def last_stats(self, stage_id: str) -> Optional[StageStats]:
        return self._last_stats.get(stage_id)
