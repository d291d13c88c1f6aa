"""Benchmark of the PADLL reproduction: four workloads, one command.

Run from the root of a checkout::

    python3 padll_bench/run.py --workload paper_figs --seed 0 --seconds 10 --trace 0
    python3 padll_bench/run.py --workload all --seed 0 --seconds 10

``--workload`` is one of ``paper_figs``, ``sharded_1e6``, ``live_interpose``
and ``live_control_tcp``; ``all`` runs each in its own process.  A run does
the work that takes ``--seconds`` at reference speed (see README.md).  The
program under test is imported from ``src/`` next to this directory.

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the run is followed by one
untraced and one traced unit of work, and the JSON carries every per-layer
metric instead.  Either way the outputs are checked, and any failed check
makes the command exit non-zero.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import faulthandler
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
#: Traced runs write their spans here.
OUT = CHECKOUT / ".bench_out"
#: Workloads that touch files do it under here, one directory per process.
WORK = CHECKOUT / ".bench_work"

MODULES = {
    "paper_figs": "wl_paper_figs",
    "sharded_1e6": "wl_sharded",
    "live_interpose": "wl_interpose",
    "live_control_tcp": "wl_control_tcp",
}
#: Set-ups per run: this process's own plus fresh processes'.
SETUP_SAMPLES = 5
#: Interpreter-speed probes after each set-up.
SPEED_PROBES = 25
#: The layer self times plus the root's must match the traced wall this well.
ACCOUNTING_TOLERANCE = 0.01
#: A run still going after this long dumps its stacks and exits with 1.
WATCHDOG_S = 175.0

from common import (  # noqa: E402
    END_TO_END, REFERENCE_PROBE_S, Speed, leak_checks, median, open_sockets, peak_rss_mb,
    speed_probe, stop_resource_tracker,
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*MODULES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=20.0,
        help="work per run, in seconds at reference speed",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set the workload up and tear it down; print the set-up time",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(name: str, seed: int):
    """Import the program and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"error: the program is not in {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    module = importlib.import_module(MODULES[name])
    workload = module.Workload(seed, WORK / f"{name}-{os.getpid()}")
    return workload, time.perf_counter() - start


def scaled_set_up(name: str, seed: int):
    """``set_up`` plus its time scaled to reference speed: (workload, raw, scaled)."""
    workload, seconds = set_up(name, seed)
    probes = [speed_probe() for _ in range(SPEED_PROBES)]
    return workload, seconds, seconds * REFERENCE_PROBE_S / median(probes)


def probe_setup(args):
    """Set-up time measured in a fresh process: (raw, scaled)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=CHECKOUT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    raw, scaled = proc.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


def traced_run(workload, args, outcome):
    """One untraced and one traced unit; returns (per-layer metrics, lines).

    Both units are timed between speed marks, so the tracing overhead
    compares them at reference speed; the marks fall outside the root span.
    """
    import layers
    from spans import Patcher, SpanRecorder

    speed = Speed()
    _, raw, factor = speed.timed(workload.run_unit)
    untraced = raw * factor
    recorder = SpanRecorder(f"{args.workload}-seed{args.seed}-{os.getpid()}-{time.time_ns()}")
    patcher = Patcher()
    try:
        layers.install(recorder, patcher)
        if hasattr(workload, "trace"):
            workload.trace(recorder, patcher)

        def traced_unit() -> None:
            with recorder.root():
                workload.run_unit()

        _, raw, factor = speed.timed(traced_unit)
    finally:
        patcher.restore()
        if hasattr(workload, "untrace"):
            workload.untrace()
    traced = raw * factor
    extra = dict(workload.counters())
    extra["tracing_overhead_frac"] = traced / untraced - 1.0
    metrics, accounting = layers.per_layer_metrics(recorder, extra)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    recorder.write(path)
    wall = accounting["wall_s"]
    summed = accounting["main_thread_self_sum_s"]
    gap = abs(summed - wall) / wall
    outcome.check(
        "layer self times + unattributed add up to the traced wall",
        gap <= ACCOUNTING_TOLERANCE,
        f"{summed:.6f} s vs {wall:.6f} s ({100 * gap:.3f}%)",
    )
    lines = [
        f"traced unit {traced:.3f} s, untraced {untraced:.3f} s (reference speed), "
        f"tracing overhead {100 * extra['tracing_overhead_frac']:.1f}%; spans in {path.name}",
        f"main-thread self times sum to {summed:.4f} s of {wall:.4f} s traced wall "
        f"({100 * gap:.4f}% apart)",
        f"{'layer metric':36s} {'value':>14s}  unit   share of traced wall",
    ]
    for name, unit, applies in layers.PER_LAYER:
        if args.workload not in applies:
            continue
        value = metrics[name]
        share = f"{100 * value / wall:6.2f}%" if unit == "s" else ""
        lines.append(f"{name:36s} {value:14.6g}  {unit:6s} {share}")
    lines.append(f"{'layer (all spans)':36s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self_main_s':>11s}")
    for layer, entry in accounting["layers"].items():
        lines.append(
            f"{layer:36s} {entry['calls']:10.0f} {entry['total_s']:10.4f} "
            f"{entry['self_s']:10.4f} {entry['self_main_s']:11.4f}"
        )
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: (value, units[name]) for name, value in metrics.items()}, lines


def run_one(args) -> int:
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    sockets_before = open_sockets()
    setups = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
    workload, raw, scaled = scaled_set_up(args.workload, args.seed)
    setups.append((raw, scaled))
    speed = Speed()
    trace_lines = []
    try:
        outcome = workload.run(args.seconds, speed)
        if args.trace:
            layer_metrics, trace_lines = traced_run(workload, args, outcome)
    finally:
        workload.close()
        stop_resource_tracker()
    outcome.checks.extend(leak_checks(sockets_before))
    rss = peak_rss_mb()
    outcome.metrics.update(setup_s=median([s for _, s in setups]), peak_rss_mb=rss)
    outcome.raw.update(setup_s=median([raw for raw, _ in setups]), peak_rss_mb=rss)

    print(f"== {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace} ==")
    print(
        f"speed probe median {1e3 * median(speed.samples):.3f} ms over {len(speed.samples)} "
        f"(reference {1e3 * REFERENCE_PROBE_S:g} ms); times and rates are scaled step by step"
    )
    units = {name: unit for name, unit, _ in END_TO_END}
    for name, unit, better in END_TO_END:
        note = f"raw {outcome.raw[name]:.6g}"
        if name == "setup_s":
            note += "; median of " + ", ".join(f"{s:.3f}" for s in sorted(s for _, s in setups))
        print(f"{name:14s} {outcome.metrics[name]:14.6g} {unit:6s} ({better} is better) {note}")
    print(
        f"  {'step_ms_p90':22s} {outcome.metrics['step_ms_p90']:14.6g} {'ms':8s} "
        f"raw {outcome.raw['step_ms_p90']:.6g}; reported, not gated (see README.md)"
    )
    for name, value, unit, note in outcome.report:
        print(f"  {name:22s} {value:14.6g} {unit:8s} {note}")
    for line in trace_lines:
        print(line)
    failed_checks = [c for c in outcome.checks if not c.ok]
    print(f"checks: {len(outcome.checks) - len(failed_checks)} passed, {len(failed_checks)} failed")
    for check in failed_checks:
        print(f"  FAILED {check.name}: {check.detail}")
    correct = not failed_checks and outcome.failed == 0
    # A check counts as one more operation, and a failed check as a failed one.
    attempted = outcome.attempted + len(outcome.checks)
    failed = outcome.failed + len(failed_checks)
    if args.trace:
        metrics = layer_metrics
    else:
        metrics = {name: (outcome.metrics[name], units[name]) for name in units}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in MODULES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=CHECKOUT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= bool(result["correct"]) and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def pin_to_one_cpu() -> None:
    """Run this process, its threads and its children on one CPU.

    On a small virtual machine a wake-up across CPUs costs from a fraction
    of a millisecond to several, and the cost drifts from one second to the
    next; the loopback control cycle and the shard pool's epoch barrier are
    chains of such wake-ups.  On one CPU those hand-offs stay local and the
    figures repeat (see README.md).
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    try:
        if args.setup_probe:
            workload, raw, scaled = scaled_set_up(args.workload, args.seed)
            workload.close()
            print(f"{raw:.9f} {scaled:.9f}")
            return 0
        return run_one(args)
    finally:
        # Every path out, a failed one too, ends the tracker before exiting.
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
