"""Workload ``live_interpose``: one application thread churning metadata.

The thread creates and writes a file, stats it, renames it and unlinks
it, on a fresh directory inside the checkout, following a seeded plan of
file names and stat counts.  Rounds interleave three segments of the same
plan, with program telemetry off:

* raw -- no interposer;
* passthrough -- ``Interposer`` over a ``LiveStage`` whose metadata
  channel is unlimited;
* enforced -- the same, with the metadata channel clamped to ``LIMIT``
  ops/s, well below the passthrough rate, so the bucket blocks.

The unit of work is one passthrough call; a step is one such call.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from pathlib import Path

import numpy as np

from common import Outcome, steps_for
from spans import Patcher
from repro.core.differentiation import ClassifierRule
from repro.core.requests import OperationClass, OperationType, Request
from repro.core.stage import StageIdentity
from repro.core.token_bucket import UNLIMITED
from repro.interpose.live_stage import LiveStage
from repro.interpose.monkeypatch import Interposer

#: File lifecycles per raw or passthrough segment.
SEGMENT_FILES = 500
#: File lifecycles per enforced segment.
ENFORCED_FILES = 150
#: Enforced metadata rate (ops/s) and bucket burst (ops).  The burst
#: covers 20 ms of tokens, so a late wake-up from the bucket's sleep
#: does not overflow it and lose admissions.
LIMIT = 5_000.0
BURST = 100.0
#: Two rounds (:meth:`Workload.run_pair`) at reference speed, seconds.
REFERENCE_PAIR_S = 0.3
CHANNEL = "metadata"
CREATE = os.O_CREAT | os.O_WRONLY | os.O_EXCL
#: The calls one file lifecycle makes, in order (stats repeat per plan).
CALLS = ("open", "write", "close", "stat", "rename", "unlink")
_OPS = {
    "open": OperationType.OPEN,
    "write": OperationType.WRITE,
    "close": OperationType.CLOSE,
    "stat": OperationType.STAT,
    "rename": OperationType.RENAME,
    "unlink": OperationType.UNLINK,
}


def make_plan(seed: int, root: Path, n_files: int):
    """Seeded lifecycles: (path, renamed path, number of stats).

    The seed picks the names and the order of the stat counts; the counts
    themselves are 1, 2 and 3 in equal shares for every seed, so the call
    mix behind the latency percentiles does not move with the seed.
    """
    rng = random.Random(seed)
    stats = [1 + i % 3 for i in range(n_files)]
    rng.shuffle(stats)
    plan = []
    for i, n_stats in enumerate(stats):
        name = f"{i:05d}-{rng.getrandbits(40):010x}"
        plan.append((str(root / name), str(root / f"{name}.{rng.getrandbits(16):04x}"), n_stats))
    return plan


def churn(plan, stamps: list) -> int:
    """Run ``plan``, appending a clock reading after every call.

    Returns the number of lifecycles that raised; each failed lifecycle
    removes what it left behind.
    """
    clock = time.perf_counter
    stamp = stamps.append
    failures = 0
    stamp(clock())
    for path, renamed, n_stats in plan:
        try:
            fd = os.open(path, CREATE, 0o644)
            stamp(clock())
            os.write(fd, b"x")
            stamp(clock())
            os.close(fd)
            stamp(clock())
            for _ in range(n_stats):
                os.stat(path)
                stamp(clock())
            os.rename(path, renamed)
            stamp(clock())
            os.unlink(renamed)
            stamp(clock())
        except OSError:
            failures += 1
            for leftover in (path, renamed):
                if os.path.lexists(leftover):
                    os.unlink(leftover)
    return failures


def segment_summary(latencies: np.ndarray) -> np.ndarray:
    """One segment's calls per second and its p50, p90 and p99 call time."""
    return np.array([len(latencies) / latencies.sum(), *np.percentile(latencies, [50, 90, 99])])


def enforced_mask(stage: LiveStage, plan) -> list:
    """Per call of ``plan``: whether the stage's classifier enforces it."""
    enforced = {
        name: stage.classifier.classify(Request(op=op, path=plan[0][0])).enforced
        for name, op in _OPS.items()
    }
    mask = []
    for _path, _renamed, n_stats in plan:
        calls = ["open", "write", "close"] + ["stat"] * n_stats + ["rename", "unlink"]
        mask.extend(enforced[name] for name in calls)
    return mask


class Workload:
    name = "live_interpose"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.root = workdir / "churn"
        self.root.mkdir(parents=True)
        self.plan = make_plan(seed, self.root, SEGMENT_FILES)
        self.enforced_plan = self.plan[:ENFORCED_FILES]
        self.stage = LiveStage(
            StageIdentity("bench/s0", "bench"), pfs_mounts=(str(self.root),)
        )
        self.stage.create_channel(CHANNEL)
        self.stage.add_classifier_rule(
            ClassifierRule(
                "md",
                CHANNEL,
                op_classes=frozenset(
                    {OperationClass.METADATA, OperationClass.DIRECTORY_MANAGEMENT}
                ),
            )
        )
        self.interposer = Interposer(self.stage, wrap_file_io=False)
        self.mask = enforced_mask(self.stage, self.enforced_plan)
        # Per lifecycle: open, write, close, the stats, rename, unlink.
        self.n_calls = sum(5 + n_stats for _p, _r, n_stats in self.plan)
        #: Hook run right after the interposer installs (the traced run
        #: wraps the installed shims there) and right before it is removed.
        self.on_install = None
        self.on_remove = None
        #: The untraced ratios of the last run, for the traced run's report.
        self.last_ratios = {}
        # One untimed round: first-touch costs of the directory and the
        # interposer's code paths are set-up, not churn.
        self.round([], [], [], [])

    # -- segments ------------------------------------------------------------
    def _interposed(self, plan, stamps) -> int:
        self.interposer.install()
        try:
            if self.on_install is not None:
                self.on_install()
            try:
                return churn(plan, stamps)
            finally:
                if self.on_remove is not None:
                    self.on_remove()
        finally:
            self.interposer.remove()

    def round(self, raw, passthrough, enforced, failures, index: int = 0) -> None:
        """One raw and one passthrough segment; an enforced one every other round.

        Appends each segment's clock readings to the given lists (one list
        per segment) and its failure count to ``failures``.
        """
        segments = [("raw", raw), ("passthrough", passthrough)]
        if index % 2:
            segments.reverse()  # alternate the order so drift cancels
        for kind, out in segments:
            stamps = []
            if kind == "raw":
                failures.append(churn(self.plan, stamps))
            else:
                failures.append(self._interposed(self.plan, stamps))
            out.append(stamps)
        if index % 2:
            return
        self.stage.set_channel_rate(CHANNEL, LIMIT, burst=BURST)
        try:
            stamps = []
            failures.append(self._interposed(self.enforced_plan, stamps))
            enforced.append(stamps)
        finally:
            self.stage.set_channel_rate(CHANNEL, UNLIMITED)

    def run_unit(self) -> None:
        self.round([], [], [], [])

    def admitted_rate(self, stamps) -> tuple:
        """(enforced calls, seconds) once the initial burst is spent."""
        ends = [stamps[i + 1] for i, enforced in enumerate(self.mask) if enforced]
        # The burst plus what refills while it is spent: skip twice the burst.
        skip = 2 * int(BURST)
        if len(ends) <= skip + 1:
            return 0, 0.0
        return len(ends) - skip - 1, ends[-1] - ends[skip]

    def run_pair(self, raw, passthrough, enforced, failures) -> None:
        """Two rounds: both raw/passthrough orders, one enforced segment."""
        for index in (0, 1):
            self.round(raw, passthrough, enforced, failures, index)

    def run(self, seconds: float, speed) -> Outcome:
        raw_s = pass_s = 0.0
        #: Per passthrough segment: calls/s, p50, p90, p99 (s); raw and scaled.
        raw_segments, ref_segments = [], []
        admitted_ops, admitted_s = 0, 0.0
        n_raw = n_pass = n_enforced = 0
        failures = []
        granted0 = self.stage.granted_total(CHANNEL)
        passthrough0 = self.stage.passthrough_total
        intercepted0 = self.interposer.intercepted_calls
        for _ in range(steps_for(seconds, REFERENCE_PAIR_S)):
            raw, passthrough, enforced = [], [], []
            _, _, factor = speed.timed(self.run_pair, raw, passthrough, enforced, failures)
            # Reduce each segment to its rate and percentiles.  The metrics
            # are medians over segments: a file-system stall (a journal
            # commit) lands in a few segments and moves no median.
            for stamps in raw:
                raw_s += stamps[-1] - stamps[0]
            for stamps in passthrough:
                pass_s += stamps[-1] - stamps[0]
                summary = segment_summary(np.diff(stamps))
                raw_segments.append(summary)
                ref_segments.append(summary * np.array([1 / factor, factor, factor, factor]))
            for stamps in enforced:
                # Admission is paced by the wall clock: not scaled.
                n, t = self.admitted_rate(stamps)
                admitted_ops += n
                admitted_s += t
            n_raw += len(raw)
            n_pass += len(passthrough)
            n_enforced += len(enforced)
        ratio = admitted_ops / admitted_s / LIMIT if admitted_s > 0 else 0.0
        overhead = (pass_s - raw_s) / raw_s
        raw_rate, raw_p50, raw_p90, raw_p99 = np.median(raw_segments, axis=0)
        ref_rate, ref_p50, ref_p90, _ = np.median(ref_segments, axis=0)
        n_ops = (n_raw + n_pass) * self.n_calls + n_enforced * len(self.mask)
        outcome = Outcome(
            metrics={
                "work_per_s": ref_rate,
                "step_ms_p50": 1e3 * ref_p50,
                "step_ms_p90": 1e3 * ref_p90,
            },
            raw={
                "work_per_s": raw_rate,
                "step_ms_p50": 1e3 * raw_p50,
                "step_ms_p90": 1e3 * raw_p90,
            },
            attempted=n_ops,
            failed=sum(failures),
        )
        outcome.check("every churn call returned", not sum(failures), f"{sum(failures)} lifecycles failed")
        leftovers = os.listdir(self.root)
        outcome.check("churn directory empty", not leftovers, f"{len(leftovers)} entries left")
        interposed = n_pass * self.n_calls + n_enforced * len(self.mask)
        seen = (self.stage.granted_total(CHANNEL) - granted0) + (
            self.stage.passthrough_total - passthrough0
        )
        outcome.check(
            "stage saw every interposed call",
            seen == interposed and self.interposer.intercepted_calls - intercepted0 == interposed,
            f"{seen:.0f} classified, {interposed} interposed",
        )
        outcome.check(
            "enforced rate within [0.90, 1.02] of the limit",
            0.90 <= ratio <= 1.02,
            f"{ratio:.4f}",
        )
        outcome.report = [
            ("ops_per_s", outcome.raw["work_per_s"], "ops/s", "raw; passthrough"),
            ("op_p50_us", 1e6 * raw_p50, "us", f"raw; median of {n_pass} segments of {self.n_calls} calls"),
            ("op_p99_us", 1e6 * raw_p99, "us", f"raw; median of {n_pass} segments of {self.n_calls} calls"),
            ("overhead_frac", overhead, "ratio", f"paper: <= 0.009; {n_pass} segment pairs"),
            ("enforced_rate_ratio", ratio, "ratio", f"limit {LIMIT:.0f} ops/s, n={admitted_ops}"),
        ]
        self.last_ratios = {"interpose.overhead_frac": overhead, "interpose.enforced_rate_ratio": ratio}
        return outcome

    def trace(self, recorder, patcher) -> None:
        """Span the raw ``os`` calls and, while installed, the interposer's shims."""
        for name in CALLS:
            patcher.set(os, name, recorder.wrap("interpose.raw_os", getattr(os, name)))
        shims = Patcher()

        def wrap_shims() -> None:
            for name in CALLS:
                shims.set(os, name, recorder.wrap("interpose.shim", getattr(os, name)))

        self.on_install = wrap_shims
        self.on_remove = shims.restore

    def untrace(self) -> None:
        self.on_install = self.on_remove = None

    def counters(self) -> dict:
        return dict(self.last_ratios)

    def close(self) -> None:
        shutil.rmtree(self.root.parent, ignore_errors=True)
