"""Which entry points of ``repro`` are wrapped, and the per-layer metrics.

Every traced run prints every metric of :data:`METRICS`; a layer a
workload does not reach reads 0, which is the point of running each
layer's work in one workload and bypassing it in another.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from repro.atpg import api as atpg_api
from repro.atpg import podem
from repro.campaign import spec as campaign_spec
from repro.exec import backends
from repro.faults import models as fault_models
from repro import faultsim
from repro.faultsim import sequential as faultsim_sequential
from repro.faultsim import sharded
from repro.scan import flow as scan_flow
from repro.service import accounting, journal, scheduler, server
from repro.store import store

from stats import as_ms, median, tail
from tracing import Span, Tracer, self_times

#: (name, unit) of every per-layer metric, in report order.
METRICS: Tuple[Tuple[str, str], ...] = (
    ("atpg.podem.calls", "count"),
    ("atpg.podem.busy_s", "s"),
    ("atpg.podem.p50_ms", "ms"),
    ("atpg.podem.tail_ms", "ms"),
    ("atpg.podem.wasted_s", "s"),
    ("atpg.podem.found_ratio", "ratio"),
    ("atpg.decisions", "count"),
    ("atpg.backtracks", "count"),
    ("atpg.decisions_per_s", "1/s"),
    ("atpg.aborted_faults", "count"),
    ("atpg.compaction.busy_s", "s"),
    ("faults.collapse.busy_s", "s"),
    ("faultsim.run.calls", "count"),
    ("faultsim.run.busy_s", "s"),
    ("faultsim.evals_per_s", "1/s"),
    ("faultsim.detects.busy_s", "s"),
    ("faultsim.detected_faults.busy_s", "s"),
    ("sim.wide.lanes", "count"),
    ("sim.wide.activation_skips", "count"),
    ("sim.wide.union_cones_built", "count"),
    ("sim.wide.union_cache_hits", "count"),
    ("sim.compiled.compiles", "count"),
    ("sim.compiled.cache_hits", "count"),
    ("faultsim.sequential.busy_s", "s"),
    ("scan.insert.busy_s", "s"),
    ("scan.core_atpg_s", "s"),
    ("scan.verify_s", "s"),
    ("exec.map.calls", "count"),
    ("exec.map.busy_s", "s"),
    ("exec.dispatch_s", "s"),
    ("exec.retries", "count"),
    ("campaign.execute_cell.busy_s", "s"),
    ("campaign.encode.busy_s", "s"),
    ("store.get.calls", "count"),
    ("store.get.p50_ms", "ms"),
    ("store.get.tail_ms", "ms"),
    ("store.put.calls", "count"),
    ("store.put.p50_ms", "ms"),
    ("store.put.tail_ms", "ms"),
    ("store.bytes_written", "bytes"),
    ("store.hit_ratio", "ratio"),
    ("service.accept.p50_ms", "ms"),
    ("service.accept.tail_ms", "ms"),
    ("service.journal.append.calls", "count"),
    ("service.journal.append.p50_ms", "ms"),
    ("service.journal.append.tail_ms", "ms"),
    ("service.ledger.charge.busy_s", "s"),
    ("service.scheduler.busy_s", "s"),
    ("service.queue_wait.hit_tail_ms", "ms"),
    ("service.queue_wait.miss_p50_ms", "ms"),
    ("service.cell.hit", "count"),
    ("service.cell.miss", "count"),
    ("service.cell.shared", "count"),
    ("service.hit_p50_ms", "ms"),
    ("service.hit_tail_ms", "ms"),
    ("service.miss_p50_ms", "ms"),
    ("service.miss_tail_ms", "ms"),
    ("service.sustained_jobs_per_s", "1/s"),
    ("service.lane_utilisation", "ratio"),
    ("loadgen.late_tail_ms", "ms"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("failed_ratio", "ratio"),
)

#: Counters the program's own telemetry already keeps.
COUNTERS = (
    "atpg.decisions",
    "atpg.backtracks",
    "sim.wide.lanes",
    "sim.wide.activation_skips",
    "sim.wide.union_cones_built",
    "sim.wide.union_cache_hits",
    "sim.compiled.compiles",
    "sim.compiled.cache_hits",
)


def _podem_outcome(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    span.attrs["found"] = result.pattern is not None


def _run_size(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    span.attrs["evals"] = len(result.faults) * result.num_patterns


def _bytes_written(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    span.attrs["bytes"] = result.stat().st_size


def _store_hit(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    span.attrs["hit"] = result is not None


def _queue_hook(op: str) -> Any:
    """Tag scheduler push/pop spans with the cell key they moved.

    Both return a scheduled entry (pop may return None) whose item's
    first field is the cell key.
    """

    def hook(span: Span, args: Any, kwargs: Any, result: Any) -> None:
        span.attrs["op"] = op
        if result is not None:
            span.attrs["key"] = result.item[0]

    return hook


def _task_time(task_fn: Any, value: Any) -> Tuple[str, float]:
    """Child-measured time of one finished backend task, and its layer."""
    if task_fn is server._cold_cell_task:
        return "campaign.execute_cell", float(value[0]["duration_s"])
    if task_fn is sharded._shard_task:
        return "faultsim.shard", float(value[3])
    return "exec.task", 0.0


def _map_outcome(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    times = [_task_time(args[1], value) for value in result.results.values()]
    span.attrs["retries"] = result.retries
    span.attrs["tasks"] = times
    span.attrs["task_max"] = max((t for _, t in times), default=0.0)


def _execute_key(span: Span, args: Any, kwargs: Any, result: Any) -> None:
    span.attrs["key"] = args[1]


def install(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the workloads reach."""
    wrap = tracer.wrap
    wrap(podem.PodemGenerator, "generate", "atpg.podem", _podem_outcome)
    wrap(atpg_api, "merge_cubes", "atpg.compaction")
    wrap(atpg_api, "fill_cubes", "atpg.compaction")
    wrap(atpg_api, "random_patterns", "atpg.random")
    wrap(fault_models, "collapse_faults", "faults.collapse")
    wrap(scan_flow, "collapse_faults", "faults.collapse")
    wrap(faultsim, "create_simulator", "faultsim.create")
    for cls in faultsim.ENGINE_CLASSES.values():
        for method in ("run", "detects", "detected_faults"):
            if method in cls.__dict__:
                hook = _run_size if method == "run" else None
                wrap(cls, method, f"faultsim.{method}", hook)
    wrap(faultsim_sequential.SequentialFaultSimulator, "run", "faultsim.sequential")
    wrap(sharded.ShardedFaultSimulator, "run", "faultsim.sharded")
    wrap(scan_flow, "insert_scan", "scan.insert")
    wrap(scan_flow, "generate_tests", "atpg.generate_tests")
    wrap(scan_flow, "schedule_scan_tests", "scan.schedule")
    for cls in (
        backends.InlineBackend,
        backends.ForkBackend,
        backends.SpawnBackend,
        backends.ThreadLaneBackend,
    ):
        wrap(cls, "map", "exec.map", _map_outcome)
    wrap(server, "execute_cell", "campaign.execute_cell")
    wrap(server, "encode_cell_result", "campaign.encode")
    wrap(server, "cell_cache_key", "campaign.cache_key")
    wrap(campaign_spec.CampaignSpec, "expand", "campaign.expand")
    wrap(store.ResultStore, "get", "store.get", _store_hit)
    wrap(store.ResultStore, "put", "store.put", _bytes_written)
    wrap(journal.JobJournal, "_append", "service.journal.append")
    wrap(accounting.TenantLedger, "charge", "service.ledger.charge")
    wrap(scheduler.FairShareScheduler, "push", "service.scheduler", _queue_hook("push"))
    wrap(scheduler.FairShareScheduler, "pop", "service.scheduler", _queue_hook("pop"))
    wrap(scheduler.FairShareScheduler, "charge", "service.scheduler")
    wrap(server.CampaignService, "_execute", "service.execute", _execute_key)


def layer_rows(tracer: Tracer) -> Dict[str, float]:
    """Self time per layer, with child-process task time moved out of
    ``exec.map`` into the layer that ran it (the longest task of a map
    call is the part of its wait the child's work explains)."""
    rows = self_times(tracer.spans)
    for span in tracer.named("exec.map"):
        tasks = span.attrs.get("tasks", [])
        if not tasks:
            continue
        layer, longest = max(tasks, key=lambda item: item[1])
        rows["exec.map"] -= longest
        key = f"{layer} (child)"
        rows[key] = rows.get(key, 0.0) + longest
    return rows


def _latency(spans: Sequence[Span], prefix: str) -> Dict[str, float]:
    samples = as_ms([span.duration for span in spans])
    return {
        f"{prefix}.calls": float(len(samples)),
        f"{prefix}.p50_ms": median(samples),
        f"{prefix}.tail_ms": tail(samples).value,
    }


def metrics(tracer: Tracer, counters: Dict[str, int], extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; ``extra`` supplies workload-side figures."""
    values: Dict[str, float] = {name: 0.0 for name, _ in METRICS}
    for name in COUNTERS:
        values[name] = float(counters.get(name, 0))

    podem_spans = tracer.named("atpg.podem")
    values.update(_latency(podem_spans, "atpg.podem"))
    busy = sum(span.duration for span in podem_spans)
    values["atpg.podem.busy_s"] = busy
    values["atpg.podem.wasted_s"] = sum(
        span.duration for span in podem_spans if not span.attrs.get("found")
    )
    if podem_spans:
        found = sum(1 for span in podem_spans if span.attrs.get("found"))
        values["atpg.podem.found_ratio"] = found / len(podem_spans)
    if busy:
        values["atpg.decisions_per_s"] = values["atpg.decisions"] / busy
    values["atpg.compaction.busy_s"] = tracer.busy("atpg.compaction")
    values["faults.collapse.busy_s"] = tracer.busy("faults.collapse")

    runs = tracer.named("faultsim.run")
    values["faultsim.run.calls"] = float(len(runs))
    run_busy = sum(span.duration for span in runs)
    values["faultsim.run.busy_s"] = run_busy
    if run_busy:
        values["faultsim.evals_per_s"] = (
            sum(span.attrs.get("evals", 0) for span in runs) / run_busy
        )
    values["faultsim.detects.busy_s"] = tracer.busy("faultsim.detects")
    values["faultsim.detected_faults.busy_s"] = tracer.busy("faultsim.detected_faults")
    values["scan.insert.busy_s"] = tracer.busy("scan.insert")

    maps = tracer.named("exec.map")
    values["exec.map.calls"] = float(len(maps))
    values["exec.map.busy_s"] = sum(span.duration for span in maps)
    values["exec.dispatch_s"] = sum(
        span.duration - span.attrs.get("task_max", 0.0) for span in maps
    )
    values["exec.retries"] = float(sum(span.attrs.get("retries", 0) for span in maps))
    child_cells = sum(
        t for span in maps for layer, t in span.attrs.get("tasks", [])
        if layer == "campaign.execute_cell"
    )
    values["campaign.execute_cell.busy_s"] = tracer.busy("campaign.execute_cell") + child_cells
    values["campaign.encode.busy_s"] = tracer.busy("campaign.encode")

    gets = tracer.named("store.get")
    values.update(_latency(gets, "store.get"))
    if gets:
        values["store.hit_ratio"] = sum(1 for s in gets if s.attrs.get("hit")) / len(gets)
    puts = tracer.named("store.put")
    values.update(_latency(puts, "store.put"))
    values["store.bytes_written"] = float(sum(s.attrs.get("bytes", 0) for s in puts))

    appends = tracer.named("service.journal.append")
    values.update(_latency(appends, "service.journal.append"))
    values["service.ledger.charge.busy_s"] = tracer.busy("service.ledger.charge")
    values["service.scheduler.busy_s"] = tracer.busy("service.scheduler")

    values.update(extra)
    return values


def shard_busy(manifests: List[Any]) -> float:
    """Child-process time of sharded sequential verification."""
    total = 0.0
    for manifest in manifests:
        workers = getattr(manifest, "workers", None) or {}
        if manifest.flow == "scan.full_scan_flow":
            total += sum(shard["duration_s"] for shard in workers.get("shards", []))
    return total


def phase_seconds(manifests: List[Any], flow: str, phase: str) -> float:
    """Total duration of one manifest phase over the given runs."""
    total = 0.0
    for manifest in manifests:
        if manifest.flow == flow:
            row = manifest.phase(phase)
            if row is not None:
                total += row["duration_s"]
    return total
