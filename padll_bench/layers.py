"""The layers the traced run measures, and the per-layer metrics they yield.

:func:`install` wraps each layer's public entry points in spans (see
:mod:`spans`); :func:`per_layer_metrics` turns the recorded spans into the
named metrics ``BENCHMARK.json`` declares.  Layer names follow the
program's module names.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Patcher, SpanRecorder, layer_times

#: (metric name, unit, workloads it applies to).  Every traced run reports
#: every name; a layer a workload never enters reads 0.
PER_LAYER: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("workloads.trace.self_s", "s", ("paper_figs",)),
    ("workloads.replayer.self_s", "s", ("paper_figs",)),
    ("workloads.replayer.calls", "count", ("paper_figs",)),
    ("core.stage.self_s", "s", ("paper_figs",)),
    ("core.stage.calls", "count", ("paper_figs",)),
    ("core.classifier.self_s", "s", ("paper_figs", "live_interpose", "live_control_tcp")),
    ("core.classifier.calls", "count", ("paper_figs", "live_interpose", "live_control_tcp")),
    ("core.channel.self_s", "s", ("paper_figs",)),
    ("core.channel.calls", "count", ("paper_figs",)),
    ("pfs.mds.self_s", "s", ("paper_figs",)),
    ("monitoring.collector.self_s", "s", ("paper_figs",)),
    ("simulation.engine.self_s", "s", ("paper_figs",)),
    ("core.controller.self_s", "s", ("paper_figs", "live_control_tcp")),
    ("core.controller.cycles", "count", ("paper_figs", "live_control_tcp")),
    ("core.algorithms.self_s", "s", ("paper_figs", "sharded_1e6", "live_control_tcp")),
    ("core.fabric.self_s", "s", ("paper_figs", "sharded_1e6", "live_control_tcp")),
    ("core.fabric.calls.collect", "count", ("paper_figs", "sharded_1e6", "live_control_tcp")),
    ("core.fabric.calls.enforce", "count", ("paper_figs", "live_control_tcp")),
    ("core.wire.encode_s", "s", ("live_control_tcp",)),
    ("core.wire.decode_s", "s", ("live_control_tcp",)),
    ("core.wire.bytes", "bytes", ("live_control_tcp",)),
    ("net.request.wait_s", "s", ("live_control_tcp",)),
    ("net.send_s", "s", ("live_control_tcp",)),
    ("core.rpc.handle_s", "s", ("paper_figs", "live_control_tcp")),
    ("net.stale_replies", "count", ("live_control_tcp",)),
    ("core.controller.collect_failures", "count", ("live_control_tcp",)),
    ("telemetry.self_s", "s", ("live_control_tcp",)),
    ("interpose.shim.self_s", "s", ("live_interpose",)),
    ("interpose.raw_os.self_s", "s", ("live_interpose",)),
    ("interpose.live_stage.self_s", "s", ("live_interpose", "live_control_tcp")),
    ("interpose.live_stage.calls", "count", ("live_interpose", "live_control_tcp")),
    ("interpose.live_bucket.wait_s", "s", ("live_interpose", "live_control_tcp")),
    ("interpose.overhead_frac", "ratio", ("live_interpose",)),
    ("interpose.enforced_rate_ratio", "ratio", ("live_interpose",)),
    ("sharded.pool.wait_s", "s", ("sharded_1e6",)),
    ("sharded.pool.epochs", "count", ("sharded_1e6",)),
    ("sharded.pool.start_s", "s", ("sharded_1e6",)),
    ("core.hierarchy.self_s", "s", ("sharded_1e6",)),
    ("sharded.coordinator.self_s", "s", ("sharded_1e6",)),
    ("unattributed_frac", "ratio", ("paper_figs", "sharded_1e6", "live_interpose", "live_control_tcp")),
    ("tracing_overhead_frac", "ratio", ("paper_figs", "sharded_1e6", "live_interpose", "live_control_tcp")),
]

#: Layer metrics read as a span's self time (``<layer>.self_s``) and call
#: count (``<layer>.calls``); the rest are mapped explicitly below.
_SELF_TIME = {
    "net.request.wait_s": "net.request",
    "net.send_s": "net.send",
    "core.wire.encode_s": "core.wire.encode",
    "core.wire.decode_s": "core.wire.decode",
}
#: Metrics read as a layer's inclusive time: nothing traced runs below it.
_INCLUSIVE_TIME = {
    "core.rpc.handle_s": "core.rpc",
    "interpose.live_bucket.wait_s": "interpose.live_bucket",
    "sharded.pool.wait_s": "sharded.pool",
    "sharded.pool.start_s": "sharded.pool.start",
}
_CALLS = {
    "core.controller.cycles": "core.controller",
    "sharded.pool.epochs": "sharded.pool",
}

_VERBS = {
    "CollectStats": "core.fabric.calls.collect",
    "CollectAggregate": "core.fabric.calls.collect",
    "EnforceRate": "core.fabric.calls.enforce",
    "EnforceJobRate": "core.fabric.calls.enforce",
    "EnforceJobRateBatch": "core.fabric.calls.enforce",
}


def install(recorder: SpanRecorder, patcher: Patcher) -> None:
    """Wrap every layer's entry points; ``patcher.restore()`` undoes it."""
    from repro.core import wire
    from repro.core.algorithms import AllocationAlgorithm
    from repro.core.channel import Channel
    from repro.core.controller import ControlPlane
    from repro.core.differentiation import Classifier
    from repro.core.fabric import FaultyFabric
    from repro.core.hierarchy import HierarchicalControlPlane
    from repro.core.rpc import StageEndpoint
    from repro.core.stage import DataPlaneStage
    from repro.interpose.live_bucket import LiveTokenBucket
    from repro.interpose.live_stage import LiveStage
    from repro.monitoring.collector import Collector, Probe
    from repro.net.socket_transport import WireConnection
    from repro.pfs.cluster import LustreCluster
    from repro.pfs.mds import MetadataServer
    from repro.simulation.engine import Environment
    from repro.simulation.sharded.coordinator import ShardedSimulation
    from repro.simulation.sharded.pool import ShardPool
    from repro.telemetry.events import EventLog
    from repro.telemetry.trace import Tracer
    from repro.workloads import abci
    from repro.workloads.replayer import TraceReplayer

    counters = recorder.counters

    def count_verb(args, _result) -> None:
        verb = _VERBS.get(type(args[2]).__name__)
        if verb is not None:
            counters[verb] += 1

    def count_bytes(_args, result) -> None:
        counters["core.wire.bytes"] += len(result)

    def method(cls, attr, layer, count=None):
        patcher.wrap_method(recorder, cls, attr, layer, count)

    patcher.wrap_function(recorder, abci.generate_mdt_trace, "workloads.trace")
    method(TraceReplayer, "schedule", "workloads.replayer")
    method(TraceReplayer, "demand", "workloads.replayer")
    for attr in ("submit", "drain", "drain_collect", "collect"):
        method(DataPlaneStage, attr, "core.stage")
    method(Classifier, "classify", "core.classifier")
    method(Channel, "enqueue", "core.channel")
    method(Channel, "drain", "core.channel")
    method(LustreCluster, "service", "pfs.mds")
    method(MetadataServer, "offer", "pfs.mds")
    method(MetadataServer, "service", "pfs.mds")

    add_probe = Collector.add_probe

    def traced_add_probe(self, probe):
        sample = recorder.wrap("monitoring.collector", probe.sample)
        return add_probe(self, Probe(probe.name, sample))

    patcher.set(Collector, "add_probe", traced_add_probe)
    method(Environment, "run", "simulation.engine")

    tick = ControlPlane.tick
    method(ControlPlane, "tick", "core.controller")
    # The hierarchical plane inherits tick; give its cycles their own layer.
    patcher.set(HierarchicalControlPlane, "tick", recorder.wrap("core.hierarchy", tick))
    pending = [AllocationAlgorithm]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        for attr in ("allocate", "allocate_arrays"):
            if attr in vars(cls):
                method(cls, attr, "core.algorithms")
    for cls in [FaultyFabric, *FaultyFabric.__subclasses__()]:
        if "call" in vars(cls):
            method(cls, "call", "core.fabric", count_verb)
    method(FaultyFabric, "call_async", "core.fabric", count_verb)

    patcher.wrap_function(recorder, wire.encode_payload, "core.wire.encode")
    patcher.wrap_function(recorder, wire.encode_frame, "core.wire.encode", count_bytes)
    patcher.wrap_function(recorder, wire.decode_payload, "core.wire.decode")
    method(wire.FrameDecoder, "feed", "core.wire.decode")
    method(WireConnection, "request", "net.request")
    method(WireConnection, "_send_frame", "net.send")
    method(StageEndpoint, "handle", "core.rpc")

    method(Tracer, "sample", "telemetry")
    method(Tracer, "emit_span", "telemetry")
    method(EventLog, "emit", "telemetry")

    method(LiveStage, "throttle", "interpose.live_stage")
    method(LiveStage, "collect", "interpose.live_stage")
    method(LiveTokenBucket, "acquire", "interpose.live_bucket")

    method(ShardPool, "__init__", "sharded.pool.start")
    method(ShardPool, "run_epoch_arrays", "sharded.pool")
    method(ShardPool, "run_epoch", "sharded.pool")
    method(ShardedSimulation, "run", "sharded.coordinator")


def per_layer_metrics(
    recorder: SpanRecorder, extra: Dict[str, float]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Every ``PER_LAYER`` metric, plus the root accounting.

    ``extra`` carries values measured outside the spans (counters the
    workload reads from the program, untraced ratios, tracing overhead).
    Returns ``(metrics, accounting)``; ``accounting`` holds the root wall
    time and the main-thread sum the 1% check compares against it.
    """
    times = layer_times(recorder)

    def get(layer: str, field: str) -> float:
        return times.get(layer, {}).get(field, 0.0)

    metrics: Dict[str, float] = {}
    for name, _unit, _applies in PER_LAYER:
        if name in extra:
            metrics[name] = float(extra[name])
        elif name in recorder.counters:
            metrics[name] = float(recorder.counters[name])
        elif name in _SELF_TIME:
            metrics[name] = get(_SELF_TIME[name], "self_s")
        elif name in _INCLUSIVE_TIME:
            metrics[name] = get(_INCLUSIVE_TIME[name], "total_s")
        elif name in _CALLS:
            metrics[name] = get(_CALLS[name], "calls")
        elif name.endswith(".self_s"):
            metrics[name] = get(name[: -len(".self_s")], "self_s")
        elif name.endswith(".calls"):
            metrics[name] = get(name[: -len(".calls")], "calls")
        else:
            metrics[name] = 0.0
    wall = get("root", "total_s")
    root_self = get("root", "self_main_s")
    metrics["unattributed_frac"] = root_self / wall if wall > 0 else 0.0
    main_sum = sum(entry["self_main_s"] for entry in times.values())
    accounting = {
        "wall_s": wall,
        "main_thread_self_sum_s": main_sum,
        "layers": {
            layer: entry for layer, entry in sorted(times.items()) if layer != "root"
        },
    }
    return metrics, accounting
