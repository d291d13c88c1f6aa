"""Command-line interface: ``padll-repro``.

Subcommands::

    padll-repro trace generate --kind aggregate --seed 0 --out trace.csv
    padll-repro trace stats trace.csv
    padll-repro trace run --target open --sample-rate 0.05 [--out DIR]
    padll-repro metrics [--format json]
    padll-repro experiment fig1|fig2|fig4|fig4-sharded|fig5|overhead|harm|...
    padll-repro ablation lag|burst|loop
    padll-repro sweep fig4|fig5|ablations|harm|overhead|sharded|all [--jobs N]
    padll-repro sharded [--shards N] [--digest-only]
    padll-repro perfbench [--smoke] [--out DIR] [--compare [BENCH.json]]
    padll-repro lint [paths ...] [--format json] [--baseline] [--write-baseline]
    padll-repro serve [--port 9178] [--duration N] [--policy CONFIG.json]

Each experiment subcommand regenerates the corresponding paper artefact
and prints it as text (the same rendering the benchmarks use).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padll-repro",
        description="PADLL reproduction: metadata QoS experiments and tools.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # -- trace ----------------------------------------------------------------
    trace = sub.add_parser("trace", help="generate or inspect metadata traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    gen = trace_sub.add_parser("generate", help="generate a synthetic trace")
    gen.add_argument(
        "--kind",
        choices=("aggregate", "mdt"),
        default="aggregate",
        help="aggregate PFS_A load (Figs. 1-2) or the hot-MDT replay trace",
    )
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument(
        "--minutes",
        type=float,
        default=None,
        help="trace length in original-log minutes (default: paper scale)",
    )
    gen.add_argument(
        "--out", required=True, help="output path (.csv or .jsonl)"
    )

    stats = trace_sub.add_parser("stats", help="summarise a trace file")
    stats.add_argument("path", help="trace file (.csv or .jsonl)")

    trun = trace_sub.add_parser(
        "run",
        help="run an experiment with per-request tracing and render the "
        "span waterfall + controller-decision timeline",
    )
    trun.add_argument(
        "--target",
        choices=("open", "close", "getattr", "rename", "metadata"),
        default="open",
        help="fig4 metadata panel to trace",
    )
    trun.add_argument("--seed", type=int, default=0)
    trun.add_argument(
        "--sample-rate",
        type=float,
        default=0.05,
        help="deterministic head-sampling probability in [0, 1]",
    )
    trun.add_argument("--duration", type=float, default=240.0)
    trun.add_argument("--step-period", type=float, default=120.0)
    trun.add_argument("--drain-tail", type=float, default=60.0)
    trun.add_argument(
        "--traces",
        type=int,
        default=4,
        help="sampled traces rendered in the waterfall",
    )
    trun.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="also write spans.jsonl, events.jsonl, and metrics.prom to DIR",
    )

    # -- metrics --------------------------------------------------------------------
    metrics = sub.add_parser(
        "metrics",
        help="run a short instrumented experiment and print the metrics "
        "registry snapshot",
    )
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument(
        "--target",
        choices=("open", "close", "getattr", "rename", "metadata"),
        default="open",
    )
    metrics.add_argument("--duration", type=float, default=120.0)
    metrics.add_argument("--step-period", type=float, default=60.0)
    metrics.add_argument("--drain-tail", type=float, default=30.0)
    metrics.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="Prometheus-style text or the JSON snapshot schema",
    )

    # -- experiments --------------------------------------------------------------
    exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    exp.add_argument(
        "name",
        choices=(
            "fig1", "fig2", "fig4", "fig4-sharded", "fig5", "overhead", "harm",
            "cost-aware", "dependability",
        ),
    )
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="also write the experiment's series as CSV files under DIR "
        "(fig4 and fig5 only)",
    )

    # -- ablations ------------------------------------------------------------------
    abl = sub.add_parser("ablation", help="run a design-knob sweep")
    abl.add_argument("name", choices=("lag", "burst", "loop"))
    abl.add_argument("--seed", type=int, default=0)

    # -- sweep ----------------------------------------------------------------------
    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel, cached sweep runner",
    )
    sweep.add_argument(
        "grid",
        choices=(
            "fig4", "fig5", "ablations", "harm", "overhead", "dependability",
            "sharded", "all",
        ),
        help="which artefact grid to run",
    )
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (1 = serial in-process)",
    )
    sweep.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    sweep.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="result cache location (default: $PADLL_SWEEP_CACHE or "
        "./.padll-sweep-cache)",
    )
    sweep.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down durations (CI smoke / local sanity runs)",
    )

    # -- perfbench ------------------------------------------------------------------
    bench = sub.add_parser(
        "perfbench",
        help="run the performance benchmarks and record a BENCH_*.json point",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--repeats", type=int, default=3, help="runs per benchmark (best is kept)"
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="work-size multiplier (metrics are work/second, so results "
        "from different scales stay comparable)",
    )
    bench.add_argument(
        "--warmup",
        type=int,
        default=1,
        help="untimed runs of each benchmark before the recorded repeats",
    )
    bench.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: --scale 0.05 --repeats 1 --warmup 0",
    )
    bench.add_argument(
        "--label", default="", help="free-form tag stored in the report"
    )
    bench.add_argument(
        "--out",
        metavar="DIR",
        default="benchmarks",
        help="directory for BENCH_<stamp>.json (default: benchmarks/)",
    )
    bench.add_argument(
        "--only",
        metavar="NAME",
        action="append",
        default=None,
        help="run only this benchmark (repeatable)",
    )
    bench.add_argument(
        "--compare",
        metavar="BENCH.json",
        nargs="?",
        const="",
        default=None,
        help="diff the fresh run against a committed report (default: the "
        "latest under the repository's benchmarks/) and exit 3 when any "
        "benchmark drops past --threshold",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="relative drop that counts as a regression for --compare "
        "(0.5 = fresh below half the baseline)",
    )

    # -- sharded --------------------------------------------------------------------
    sharded = sub.add_parser(
        "sharded",
        help="run a fig4-style experiment on the sharded fluid engine",
    )
    sharded.add_argument("--seed", type=int, default=0)
    sharded.add_argument(
        "--jobs", type=int, default=100, help="simulated jobs in the cluster"
    )
    sharded.add_argument("--stages-per-job", type=int, default=100)
    sharded.add_argument("--racks", type=int, default=32)
    sharded.add_argument(
        "--shards",
        type=int,
        default=1,
        help="worker processes for the rack shards (results are "
        "bit-identical at any shard count)",
    )
    sharded.add_argument("--clients-per-stage", type=int, default=100)
    sharded.add_argument("--duration", type=float, default=240.0)
    sharded.add_argument("--step-period", type=float, default=60.0)
    sharded.add_argument(
        "--dt",
        type=float,
        default=1.0,
        help="fluid tick length in seconds; the 1 s control epoch must "
        "be a multiple of it",
    )
    sharded.add_argument(
        "--placement",
        choices=("split", "job"),
        default="split",
        help="split jobs across racks, or pin whole jobs to racks",
    )
    sharded.add_argument(
        "--scalar",
        action="store_true",
        help="force the scalar per-stage reference arithmetic "
        "(the single-engine execution the speedups compare against)",
    )
    sharded.add_argument(
        "--digest-only",
        action="store_true",
        help="print only the run digest (CI's shard-invariance check)",
    )

    # -- lint -----------------------------------------------------------------------
    lint = sub.add_parser(
        "lint",
        help="run the determinism/interposition static-analysis rules",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: [tool.padll-lint] paths)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (json is the CI artifact schema; sarif feeds "
        "GitHub code scanning)",
    )
    lint.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="parse cache-miss files with N worker processes",
    )
    lint.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the incremental cache under [tool.padll-lint] cache-dir",
    )
    lint.add_argument(
        "--baseline",
        action="store_true",
        help="subtract the committed baseline file before gating",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    lint.add_argument(
        "--config",
        metavar="PYPROJECT",
        default=None,
        help="pyproject.toml holding [tool.padll-lint] (default: nearest)",
    )
    lint.add_argument(
        "--verbose",
        action="store_true",
        help="also list pragma-suppressed and baselined findings (text format)",
    )

    # -- operator service ----------------------------------------------------------------
    serve = sub.add_parser(
        "serve",
        help="run the live operator service (control loop + HTTP endpoints)",
    )
    serve.add_argument("--config", help="service config JSON file")
    serve.add_argument("--host", help="listen address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, help="listen port (0 = ephemeral)")
    serve.add_argument("--interval", type=float, help="control-loop period, seconds")
    serve.add_argument("--seed", type=int, help="world seed (workload + fabric + tracer)")
    serve.add_argument(
        "--sample-rate", type=float, help="span head-sampling rate in [0, 1]"
    )
    serve.add_argument(
        "--capacity", type=float, help="algorithm channel capacity (ops/s)"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="exit cleanly after this many seconds (default: run until signalled)",
    )
    serve.add_argument("--policy", help="PADLL policy config JSON to install")
    serve.add_argument("--jobs", type=int, help="synthetic workload: number of jobs")
    serve.add_argument(
        "--stages-per-job", type=int, help="synthetic workload: stages per job"
    )
    serve.add_argument(
        "--workload-rate",
        type=float,
        help="offered ops/s per stage (0 disables the workload)",
    )
    serve.add_argument(
        "--loss", type=float, help="control-fabric per-message loss probability"
    )
    serve.add_argument(
        "--latency", type=float, help="control-RPC latency injected per delivery, seconds"
    )
    serve.add_argument(
        "--stage-procs",
        type=int,
        help="run stages in this many supervised stage-host child processes "
        "(0 = in-process, the default)",
    )
    serve.add_argument(
        "--control-host", help="socket-fabric listen address for stage hosts"
    )
    serve.add_argument(
        "--control-port",
        type=int,
        help="socket-fabric listen port for stage hosts (0 = ephemeral)",
    )
    serve.add_argument(
        "--admin-token",
        help="shared secret required on admin verbs "
        "(default: PADLL_ADMIN_TOKEN env var; unset leaves admin open)",
    )
    serve.add_argument(
        "--audit-dir",
        help="directory for persistent JSONL audit/event sinks (rotating)",
    )

    # -- stage host (out-of-process worker) ---------------------------------------------
    stage_host = sub.add_parser(
        "stage-host",
        help="run live stages out-of-process, dialing a controller's socket fabric",
    )
    stage_host.add_argument(
        "--connect", required=True, help="controller control address HOST:PORT"
    )
    stage_host.add_argument("--host-id", required=True, help="this worker's name")
    stage_host.add_argument(
        "--stages",
        required=True,
        help="comma-separated stage ids; the job id is each id's first '/' segment",
    )
    stage_host.add_argument("--seed", type=int, default=0)
    stage_host.add_argument("--channel", default="metadata")
    stage_host.add_argument(
        "--workload-rate",
        type=float,
        default=0.0,
        help="offered ops/s per stage (0 disables the driver threads)",
    )
    stage_host.add_argument(
        "--workload-ops", default="open,stat,mkdir,getxattr",
        help="comma-separated op mix for the synthetic workload",
    )
    stage_host.add_argument("--path-prefix", default="/pfs/scratch")
    stage_host.add_argument("--sample-rate", type=float, default=0.05)
    stage_host.add_argument(
        "--push-interval",
        type=float,
        default=0.5,
        help="seconds between telemetry pushes to the controller",
    )
    stage_host.add_argument(
        "--duration", type=float, default=None, help="exit cleanly after N seconds"
    )

    # -- policy configs ----------------------------------------------------------------
    policy = sub.add_parser("policy", help="validate a PADLL config file")
    policy_sub = policy.add_subparsers(dest="policy_command", required=True)
    check = policy_sub.add_parser("check", help="parse and summarise a config")
    check.add_argument("path", help="JSON configuration file")

    return parser


def _cmd_trace_generate(args: argparse.Namespace) -> int:
    from repro.workloads.abci import generate_aggregate_trace, generate_mdt_trace

    if args.kind == "aggregate":
        duration = (args.minutes or 30 * 24 * 60) * 60.0
        trace = generate_aggregate_trace(seed=args.seed, duration=duration)
    else:
        duration = (args.minutes or 1800) * 60.0
        trace = generate_mdt_trace(seed=args.seed, duration=duration)
    if args.out.endswith(".jsonl"):
        trace.save_jsonl(args.out)
    else:
        trace.save_csv(args.out)
    print(
        f"wrote {trace.n_samples} samples x {len(trace.kinds)} kinds to "
        f"{args.out} (mean {trace.mean_rate() / 1e3:.1f} KOps/s, "
        f"peak {trace.peak_rate() / 1e3:.1f} KOps/s)"
    )
    return 0


def _cmd_trace_stats(args: argparse.Namespace) -> int:
    from repro.analysis.plots import sparkline
    from repro.workloads.trace import OpTrace

    if args.path.endswith(".jsonl"):
        trace = OpTrace.load_jsonl(args.path)
    else:
        trace = OpTrace.load_csv(args.path)
    print(f"{args.path}: {trace.n_samples} samples, period {trace.sample_period:.0f}s")
    print(f"  total rate {sparkline(trace.rates(), width=60)}")
    print(f"  mean {trace.mean_rate() / 1e3:8.1f} KOps/s   "
          f"peak {trace.peak_rate() / 1e3:8.1f} KOps/s")
    shares = trace.shares()
    for kind in sorted(trace.kinds, key=lambda k: -shares[k]):
        print(
            f"  {kind:<10} {shares[kind] * 100:6.2f}%  "
            f"mean {trace.mean_rate(kind) / 1e3:8.1f} KOps/s"
        )
    return 0


def _cmd_trace_run(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.telemetry import (
        render_controller_timeline,
        render_waterfall,
        run_traced_fig4,
        write_text,
    )

    out_dir = None
    if args.out is not None:
        out_dir = Path(args.out)
        if out_dir.exists() and not out_dir.is_dir():
            print(f"error: --out {args.out!r} exists and is not a directory",
                  file=sys.stderr)
            return 2
    try:
        traced = run_traced_fig4(
            args.target,
            seed=args.seed,
            duration=args.duration,
            step_period=args.step_period,
            drain_tail=args.drain_tail,
            sample_rate=args.sample_rate,
            trace=True,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spans = [
        line for line in traced.spans_jsonl.splitlines() if line
    ]
    print(
        f"fig4 [{args.target}] seed {args.seed}: sampled "
        f"{traced.sampled_traces} trace(s), {traced.span_count} span(s), "
        f"{traced.event_count} event(s) at rate {args.sample_rate}"
    )
    print()
    from repro.telemetry.trace import Span  # parsed back for rendering
    import json as _json

    parsed = [
        Span(
            trace_id=rec["trace_id"],
            name=rec["name"],
            start=rec["start"],
            end=rec["end"],
            attrs=rec.get("attrs", {}),
        )
        for rec in (_json.loads(line) for line in spans)
    ]
    print(render_waterfall(parsed, max_traces=args.traces))
    print()
    print(render_controller_timeline(
        _events_from_jsonl(traced.events_jsonl)
    ))
    if out_dir is not None:
        write_text(out_dir / "spans.jsonl", traced.spans_jsonl)
        write_text(out_dir / "events.jsonl", traced.events_jsonl)
        write_text(out_dir / "metrics.prom", traced.metrics_text)
        print(f"\nwrote {out_dir}/spans.jsonl, events.jsonl, metrics.prom")
    return 0


def _events_from_jsonl(text: str):
    import json as _json

    from repro.telemetry.events import Event

    return [
        Event(kind=rec["kind"], time=rec["time"], fields=rec.get("fields", {}))
        for rec in (_json.loads(line) for line in text.splitlines() if line)
    ]


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.telemetry import run_traced_fig4

    try:
        traced = run_traced_fig4(
            args.target,
            seed=args.seed,
            duration=args.duration,
            step_period=args.step_period,
            drain_tail=args.drain_tail,
            sample_rate=0.0,
            trace=False,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        import json as _json

        print(_json.dumps(traced.metrics, sort_keys=True, indent=2))
    else:
        print(traced.metrics_text, end="")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.name == "fig1":
        from repro.experiments.fig1 import main as run
    elif args.name == "fig2":
        from repro.experiments.fig2 import main as run
    elif args.name == "fig4":
        from repro.experiments.fig4 import main as run
    elif args.name == "fig4-sharded":
        from repro.experiments.fig4_sharded import main as run
    elif args.name == "fig5":
        from repro.experiments.fig5 import main as run
    elif args.name == "overhead":
        from repro.experiments.overhead import main as run

        run()
        return 0
    elif args.name == "harm":
        from repro.experiments.harm import main as run
    elif args.name == "dependability":
        from repro.experiments.dependability import main as run
    else:
        from repro.experiments.cost_aware import main as run
    results = run(seed=args.seed)
    if args.export:
        _export_results(args.name, results, args.export)
    return 0


def _export_results(name: str, results, directory: str) -> None:
    from pathlib import Path

    from repro.analysis.export import export_wide

    if name == "fig4":
        for target, result in results.items():
            path = export_wide(
                result.series, Path(directory) / f"fig4-{target}.csv"
            )
            print(f"exported {path}")
    elif name == "fig5":
        for setup, result in results.items():
            path = export_wide(
                result.job_series, Path(directory) / f"fig5-{setup}.csv"
            )
            print(f"exported {path}")
    else:
        print(f"--export is not supported for {name}", file=sys.stderr)


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments.ablations import (
        sweep_burst_size,
        sweep_control_lag,
        sweep_loop_interval,
    )

    if args.name == "lag":
        for p in sweep_control_lag(seed=args.seed):
            print(
                f"latency {p.latency:5.1f}s  violations "
                f"{p.violation_fraction * 100:5.2f}%  excess "
                f"{p.excess_ops / 1e3:8.0f}K ops"
            )
    elif args.name == "burst":
        for p in sweep_burst_size(seed=args.seed):
            print(
                f"burst {p.burst_seconds:4.1f}s  peak MDS queue "
                f"{p.peak_queue_delay:7.3f}s  peak/cap {p.peak_over_cap:.2f}"
            )
    else:
        for interval, ops in sweep_loop_interval(seed=args.seed).items():
            print(f"loop {interval:5.1f}s  delivered {ops / 1e6:8.1f}M ops")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.runner import (
        SweepRunner,
        ablation_grid,
        dependability_grid,
        fig4_grid,
        fig5_grid,
        full_grid,
        harm_grid,
        overhead_grid,
        sharded_grid,
    )

    seed = args.seed
    if args.quick:
        grids = {
            "fig4": lambda: fig4_grid(
                seed=seed, duration=120.0, step_period=60.0, drain_tail=30.0
            ),
            "fig5": lambda: fig5_grid(seed=seed, duration=300.0),
            "ablations": lambda: ablation_grid(
                seed=seed, duration=120.0, loop_duration=300.0
            ),
            "harm": lambda: harm_grid(seed=seed, duration=300.0),
            "overhead": lambda: overhead_grid(seed=seed, duration=120.0),
            "dependability": lambda: dependability_grid(seed=seed, duration=90.0),
            "sharded": lambda: sharded_grid(
                seed=seed,
                n_jobs=8,
                stages_per_job=4,
                n_racks=4,
                clients_per_stage=10,
                duration=60.0,
                step_period=15.0,
            ),
        }
        grids["all"] = lambda: [cell for make in (
            grids["fig4"], grids["fig5"], grids["ablations"],
            grids["harm"], grids["overhead"], grids["dependability"],
        ) for cell in make()]
    else:
        grids = {
            "fig4": lambda: fig4_grid(seed=seed),
            "fig5": lambda: fig5_grid(seed=seed),
            "ablations": lambda: ablation_grid(seed=seed),
            "harm": lambda: harm_grid(seed=seed),
            "overhead": lambda: overhead_grid(seed=seed),
            "dependability": lambda: dependability_grid(seed=seed),
            "sharded": lambda: sharded_grid(seed=seed),
            "all": lambda: full_grid(seed=seed),
        }
    cells = grids[args.grid]()
    try:
        runner = SweepRunner(
            jobs=args.jobs,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            use_cache=not args.no_cache,
        )
        outcomes = runner.run(cells)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    width = max(len(o.cell.name) for o in outcomes)
    for outcome in outcomes:
        status = "cached" if outcome.cached else "computed"
        print(f"{outcome.cell.name:<{width}}  {status:<8}  {outcome.elapsed_s:8.2f}s")
    return 0


def _cmd_perfbench(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.perfbench import (
        DEFAULT_BENCH_DIR,
        PerfbenchConfig,
        compare_reports,
        latest_report,
        run_perfbench,
        save_report,
    )

    repo_root = Path(__file__).resolve().parents[2]
    scale, repeats, warmup = args.scale, args.repeats, args.warmup
    if args.smoke:
        scale, repeats, warmup = 0.05, 1, 0
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():
        print(f"error: --out {args.out!r} exists and is not a directory",
              file=sys.stderr)
        return 2
    # Resolve the comparison baseline *before* running: when --compare is
    # given without a path we take the newest committed BENCH_*.json, and
    # the report we are about to save must not shadow it.
    baseline: Optional[dict] = None
    if args.compare is not None:
        if args.compare == "":
            baseline_path = latest_report(repo_root / DEFAULT_BENCH_DIR)
            if baseline_path is None:
                print(
                    f"error: --compare found no BENCH_*.json under "
                    f"{repo_root / DEFAULT_BENCH_DIR}",
                    file=sys.stderr,
                )
                return 2
        else:
            baseline_path = Path(args.compare)
        try:
            with open(baseline_path, "r", encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {baseline_path}: {exc}",
                  file=sys.stderr)
            return 2
    try:
        config = PerfbenchConfig(
            seed=args.seed,
            repeats=repeats,
            scale=scale,
            label=args.label,
            warmup=warmup,
        )
        if args.compare is not None and not 0.0 < args.threshold < 1.0:
            raise ValueError(
                f"--threshold must be in (0, 1), got {args.threshold}"
            )
        # Resolve the git SHA against the source checkout, not the caller's
        # cwd (for an installed package this still degrades to "unknown").
        report = run_perfbench(config, repo_root=repo_root, only=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = save_report(report, out_dir)
    print(report.summary())
    print(f"wrote {path}")
    if baseline is None:
        return 0
    comparisons = compare_reports(baseline, report.to_dict(), args.threshold)
    print(f"compare vs {baseline_path} (threshold {args.threshold:.0%} drop):")
    regressed = False
    for comp in comparisons:
        if comp.change is None:
            status = "only in " + ("fresh" if comp.baseline is None else "baseline")
            print(f"  {comp.name:<36} {status}")
            continue
        marker = "REGRESSED" if comp.regressed else "ok"
        print(
            f"  {comp.name:<36} {comp.baseline:>14,.0f} -> "
            f"{comp.fresh:>14,.0f} {comp.unit:<12} "
            f"{comp.change:+7.1%}  {marker}"
        )
        regressed = regressed or comp.regressed
    return 3 if regressed else 0


def _cmd_sharded(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.experiments.fig4_sharded import run_fig4_sharded

    try:
        result = run_fig4_sharded(
            seed=args.seed,
            n_jobs=args.jobs,
            stages_per_job=args.stages_per_job,
            n_racks=args.racks,
            n_shards=args.shards,
            clients_per_stage=args.clients_per_stage,
            duration=args.duration,
            step_period=args.step_period,
            placement=args.placement,
            vectorized=not args.scalar,
            dt=args.dt,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.digest_only:
        print(result.digest())
        return 0
    config = result.results["padll"].config
    print(
        f"sharded fig4: {config.n_jobs} jobs x {config.stages_per_job} stages "
        f"= {config.n_stages} stages ({result.n_clients:,} clients) on "
        f"{config.n_racks} racks / {config.n_shards} shard(s), "
        f"placement={config.placement}"
    )
    for name in sorted(result.series):
        series = result.series[name]
        print(
            f"  {name:<9} mean {float(series.mean()):>12,.1f} ops/s  "
            f"peak {float(series.max()):>12,.1f} ops/s"
        )
    print(f"  limits    {[round(v, 1) for v in result.limits]}")
    print(f"digest {result.digest()}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.lint import (
        Baseline,
        lint_paths,
        load_config,
        render_json,
        render_sarif,
        render_text,
    )

    try:
        config = load_config(Path(args.config) if args.config else None)
        baseline_path = config.resolve(config.baseline)
        cache_dir = None if args.no_cache else config.resolve(config.cache_dir)
        jobs = max(1, args.jobs)
        if args.write_baseline:
            result = lint_paths(
                [Path(p) for p in args.paths] or None,
                config,
                jobs=jobs,
                cache_dir=cache_dir,
            )
            if result.parse_errors:
                for error in result.parse_errors:
                    print(error, file=sys.stderr)
                return 1
            Baseline.from_findings(
                finding for finding in result.findings if not finding.suppressed
            ).save(baseline_path)
            print(
                f"wrote {baseline_path} "
                f"({len(result.active)} grandfathered finding(s))"
            )
            return 0
        baseline = Baseline.load(baseline_path) if args.baseline else None
        result = lint_paths(
            [Path(p) for p in args.paths] or None,
            config,
            baseline=baseline,
            jobs=jobs,
            cache_dir=cache_dir,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(render_json(result))
    elif args.format == "sarif":
        print(render_sarif(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _cmd_policy_check(args: argparse.Namespace) -> int:
    from repro.errors import ConfigError
    from repro.core.config import load_config

    try:
        config = load_config(args.path)
    except ConfigError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"{args.path}: OK")
    if config.pfs_mounts:
        print(f"  pfs mounts : {', '.join(config.pfs_mounts)}")
    for spec in config.channels:
        print(f"  channel    : {spec.channel_id} (rule {spec.rule.name!r})")
    for policy in config.policies:
        scope = policy.scope.job_id or "<all jobs>"
        print(f"  policy     : {policy.name} -> {policy.scope.channel_id} "
              f"[{scope}]")
    if config.algorithm is not None:
        print(f"  algorithm  : {type(config.algorithm).__name__}")
        for job, rate in config.reservations.items():
            print(f"    reservation {job}: {rate:.0f} ops/s")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    import signal
    import threading
    import time as _time

    from repro.core.config import load_config
    from repro.service import (
        OperatorServer,
        ServiceConfig,
        ServiceRuntime,
        load_service_config,
        with_overrides,
    )

    config = (
        load_service_config(args.config) if args.config else ServiceConfig()
    )
    import os as _os

    admin_token = args.admin_token
    if admin_token is None:
        admin_token = _os.environ.get("PADLL_ADMIN_TOKEN") or None
    config = with_overrides(
        config,
        host=args.host,
        port=args.port,
        interval=args.interval,
        seed=args.seed,
        sample_rate=args.sample_rate,
        capacity=args.capacity,
        stage_procs=args.stage_procs,
        control_host=args.control_host,
        control_port=args.control_port,
        admin_token=admin_token,
        audit_dir=args.audit_dir,
    )
    workload_changes = {
        key: value
        for key, value in (
            ("jobs", args.jobs),
            ("stages_per_job", args.stages_per_job),
            ("rate", args.workload_rate),
        )
        if value is not None
    }
    if workload_changes:
        config = dataclasses.replace(
            config, workload=dataclasses.replace(config.workload, **workload_changes)
        )
    fault_changes = {
        key: value
        for key, value in (("loss", args.loss), ("latency", args.latency))
        if value is not None
    }
    if fault_changes:
        config = dataclasses.replace(
            config, faults=dataclasses.replace(config.faults, **fault_changes)
        )
    if args.policy:
        config = dataclasses.replace(config, padll=load_config(args.policy))

    runtime = ServiceRuntime(config)
    server = OperatorServer(runtime, config.host, config.port)

    def on_signal(signum, frame) -> None:
        runtime.admin(
            "service.shutdown", {"reason": f"signal {signal.Signals(signum).name}"}
        )

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)

    runtime.start()
    server.start()
    print(f"padll-repro serve: listening on {server.url}", flush=True)
    print(
        "endpoints: /metrics /healthz /readyz /api/v1/snapshot "
        "/api/v1/spans /api/v1/events /api/v1/audit /api/v1/admin/<verb>",
        flush=True,
    )
    deadline = None if not args.duration else _time.monotonic() + args.duration
    while not runtime.shutdown_requested:
        timeout = (
            0.2 if deadline is None else min(0.2, deadline - _time.monotonic())
        )
        if deadline is not None and timeout <= 0:
            break
        runtime.wait_for_shutdown(timeout)

    reason = runtime.shutdown_reason or "duration elapsed"
    print(f"padll-repro serve: shutting down ({reason})", flush=True)
    server.stop()
    error = runtime.stop()
    snapshot = runtime.snapshot()
    loop_info = snapshot["loop"]
    print(
        f"loop: {loop_info['ticks']} ticks, {loop_info['tick_errors']} errors; "
        f"fabric: {snapshot['fabric'].get('calls', 0)} calls, "
        f"{snapshot['fabric'].get('dropped', 0)} dropped; "
        f"audit: {len(runtime.audit)} actions"
    )
    workers = [
        thread.name
        for thread in threading.enumerate()
        if thread is not threading.main_thread() and thread.is_alive()
    ]
    print(f"clean shutdown: {len(workers)} worker thread(s) remaining", flush=True)
    if workers:
        print(f"  still alive: {workers}", flush=True)
        return 1
    if error is not None:
        print(f"control loop ended with error: {error!r}", flush=True)
        return 1
    return 0


def _cmd_stage_host(args: argparse.Namespace) -> int:
    import signal

    from repro.errors import ReproError
    from repro.service.config import WorkloadSpec
    from repro.service.stagehost import StageHost

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"stage-host: --connect must be HOST:PORT, got {args.connect!r}")
        return 2
    stage_ids = [part.strip() for part in args.stages.split(",") if part.strip()]
    workload = None
    if args.workload_rate > 0:
        workload = WorkloadSpec(
            rate=args.workload_rate,
            ops=tuple(
                op.strip() for op in args.workload_ops.split(",") if op.strip()
            ),
            path_prefix=args.path_prefix,
        )
    try:
        stage_host = StageHost(
            args.host_id,
            stage_ids,
            channel=args.channel,
            seed=args.seed,
            workload=workload,
            sample_rate=args.sample_rate,
            push_interval=args.push_interval,
        )
    except ReproError as exc:
        print(f"stage-host: {exc}")
        return 2

    def on_signal(signum, frame) -> None:
        stage_host.request_stop()

    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        stage_host.start(host, int(port_text))
    except ReproError as exc:
        print(f"stage-host {args.host_id}: connect failed: {exc}")
        return 1
    print(
        f"stage-host {args.host_id}: {len(stage_ids)} stage(s) registered "
        f"with {args.connect}",
        flush=True,
    )
    code = stage_host.run(args.duration)
    print(
        f"stage-host {args.host_id}: exiting "
        f"({'link lost' if code else 'stopped'}), "
        f"{stage_host.pushes} telemetry push(es)",
        flush=True,
    )
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "trace":
            if args.trace_command == "generate":
                return _cmd_trace_generate(args)
            if args.trace_command == "run":
                return _cmd_trace_run(args)
            return _cmd_trace_stats(args)
        if args.command == "metrics":
            return _cmd_metrics(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "perfbench":
            return _cmd_perfbench(args)
        if args.command == "sharded":
            return _cmd_sharded(args)
        if args.command == "lint":
            return _cmd_lint(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "stage-host":
            return _cmd_stage_host(args)
        if args.command == "policy":
            return _cmd_policy_check(args)
        return _cmd_ablation(args)
    except BrokenPipeError:
        # Output piped into a pager that quit early (e.g. `| head`).
        return 0


if __name__ == "__main__":
    sys.exit(main())
