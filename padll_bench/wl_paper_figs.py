"""Workload ``paper_figs``: regenerate the paper's evaluation at paper size.

One pass runs Fig. 4's four metadata panels (open, close, getattr and the
whole metadata class, three setups each, at ``run_fig4_metadata``'s
defaults) and then Fig. 5's four setups (``run_fig5``, 3600 s), serially
and with telemetry off.  Passes repeat until the run's time is spent.

The unit of work is one simulated second; a step is one whole pass.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from common import Outcome, pinned_report, step_metrics, steps_for
from pinned import PAPER_FIGS
from repro.experiments.fig4 import run_fig4_metadata
from repro.experiments.fig5 import CLUSTER_CAP, FIG5_SETUPS, run_fig5
from repro.workloads.abci import generate_mdt_trace

FIG4_PANELS = ("open", "close", "getattr", "metadata")
#: Seconds after a limit step during which the old rate may still drain.
PROPAGATION = 10.0
#: ``run_fig4_metadata``'s default tail after the last limit step.
FIG4_DRAIN_TAIL = 300.0
#: One pass at reference speed, seconds (sets the passes per run).
REFERENCE_PASS_S = 4.2


def _hash_array(digest, arr) -> None:
    digest.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def fig4_digest(result) -> str:
    """SHA-256 over limits and series (tests/experiments/test_bit_identity.py)."""
    digest = hashlib.sha256()
    digest.update(json.dumps(list(result.limits)).encode())
    for name in sorted(result.series):
        times, values = result.series[name]
        digest.update(name.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    return digest.hexdigest()


def fig5_digest(result) -> str:
    """SHA-256 over job series, job outcomes and the enforcement log."""
    digest = hashlib.sha256()
    for job_id in sorted(result.job_series):
        times, values = result.job_series[job_id]
        digest.update(job_id.encode())
        _hash_array(digest, times)
        _hash_array(digest, values)
    for job_id, job in sorted(result.jobs.items()):
        digest.update(
            json.dumps(
                [job_id, job.start, job.completed_at, job.submitted_ops, job.delivered_ops]
            ).encode()
        )
    digest.update(json.dumps([list(entry) for entry in result.enforcement_log]).encode())
    return digest.hexdigest()


def fig4_violations(result) -> list:
    """Shapes every seed must show: padll under its limit, passthrough = baseline."""
    problems = []
    times, padll = result.series["padll"]
    limits = result.limit_series(times)
    mask = np.ones(len(times), dtype=bool)
    for k in range(1, len(result.limits)):
        boundary = k * result.step_period
        mask &= ~((times >= boundary) & (times < boundary + PROPAGATION))
    over = int((padll[mask] > limits[mask] * 1.05 + 200.0).sum())
    if over:
        problems.append(f"padll above its limit in {over} samples")
    _, base = result.series["baseline"]
    _, passthrough = result.series["passthrough"]
    n = min(len(base), len(passthrough))
    base_total = float(base[:n].sum())
    delta = abs(float(passthrough[:n].sum()) - base_total) / base_total
    if delta > 0.009:
        problems.append(f"passthrough differs from baseline by {delta:.4f}")
    return problems


def fig5_violations(result) -> list:
    if result.setup_name == "baseline":
        return []
    _, aggregate = result.aggregate()
    peak = float(aggregate.max())
    if peak > CLUSTER_CAP * 1.05:
        return [f"aggregate {peak:.0f} ops/s above the {CLUSTER_CAP:.0f} cap"]
    return []


class Workload:
    name = "paper_figs"

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        # The first trace generation pays the lazy imports behind it.
        generate_mdt_trace(seed=seed)

    def run_pass(self, speed=None):
        """One pass: (digests, problems, simulated s, raw s, reference s).

        With ``speed``, every experiment call is timed between speed marks.
        """
        calls = [(f"fig4:{target}", run_fig4_metadata, target, {"drain_tail": FIG4_DRAIN_TAIL})
                 for target in FIG4_PANELS]
        calls += [(f"fig5:{setup}", run_fig5, setup, {}) for setup in FIG5_SETUPS]
        digests, problems = {}, {}
        sim_seconds = raw_s = ref_s = 0.0
        for key, fn, arg, kwargs in calls:
            if speed is None:
                result, raw, factor = fn(arg, seed=self.seed, **kwargs), 0.0, 1.0
            else:
                result, raw, factor = speed.timed(fn, arg, seed=self.seed, **kwargs)
            raw_s += raw
            ref_s += raw * factor
            if fn is run_fig4_metadata:
                digests[key] = fig4_digest(result)
                problems[key] = fig4_violations(result)
                sim_seconds += 3 * (result.duration + FIG4_DRAIN_TAIL)
            else:
                digests[key] = fig5_digest(result)
                problems[key] = fig5_violations(result)
                sim_seconds += result.duration
        return digests, problems, sim_seconds, raw_s, ref_s

    def run_unit(self) -> None:
        self.run_pass()

    def run(self, seconds: float, speed) -> Outcome:
        raw_walls, ref_walls, passes = [], [], []
        sim_total = 0.0
        for _ in range(steps_for(seconds, REFERENCE_PASS_S)):
            digests, problems, sim_seconds, raw, ref = self.run_pass(speed)
            raw_walls.append(raw)
            ref_walls.append(ref)
            passes.append((digests, problems))
            sim_total += sim_seconds
        outcome = Outcome(
            metrics=step_metrics(sim_total, ref_walls),
            raw=step_metrics(sim_total, raw_walls),
            attempted=len(passes) * len(passes[0][0]),
            failed=0,
        )
        first = passes[0][0]
        pinned = PAPER_FIGS.get(self.seed)
        for digests, problems in passes:
            for key, digest in digests.items():
                outcome.check(f"{key} shapes", not problems[key], "; ".join(problems[key]))
                outcome.check(f"{key} digest repeats", digest == first[key], digest[:16])
                if pinned is not None:
                    outcome.check(
                        f"{key} digest pinned for seed {self.seed}", digest == pinned[key], digest[:16]
                    )
        outcome.report = [
            pinned_report(self.seed, pinned),
            ("sim_s_per_s", outcome.raw["work_per_s"], "sim-s/s", f"raw; {len(passes)} passes"),
        ]
        return outcome

    def counters(self) -> dict:
        return {}

    def close(self) -> None:
        pass
