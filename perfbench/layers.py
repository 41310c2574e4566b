"""Which program functions the traced run times, and the per-layer
metrics derived from those spans.

Span names are ``<layer>.<function>``; the layers are the program's
modules (``workloads``, ``gpu``, ``core``, ``mem``, ``sim``, ``runner`` =
``repro.experiments.runner``, ``serve``, ``fleet``) plus ``client`` for the
HTTP client the load generator and the gateway share.  Every span is
recorded around a call into the program; nothing inside it is changed.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from spans import Span, Tracer, self_times, union_ns

#: pool-task spans: they enclose a worker's whole task, so coverage and
#: self-time totals skip them (their children carry the layer time).
CONTAINER_SPANS = frozenset({"runner.batch", "serve.member"})


@dataclass
class Observations:
    """Parent-side timings that span hooks derive from program state."""

    submitted_ns: dict = field(default_factory=dict)
    assigned_ns: dict = field(default_factory=dict)
    queue_wait_ns: list = field(default_factory=list)
    worker_ns: list = field(default_factory=list)
    batch_sizes: list = field(default_factory=list)

    def reset(self) -> None:
        for value in vars(self).values():
            value.clear()


def _all_workload_classes():
    from repro.workloads.base import Workload

    seen, todo = [], list(Workload.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return [cls for cls in seen if "build" in cls.__dict__]


def install(tracer: Tracer, obs: Observations) -> None:
    """Wrap every timed entry point of the program (see module doc)."""
    from repro.core import driver, eviction, pma, prefetch, service
    from repro.experiments import runner
    from repro.fleet.gateway import FleetGateway
    from repro.gpu.device import GpuDevice
    from repro.gpu.dma import DmaEngine
    from repro.mem.page_table import PageTable
    from repro.mem.residency import ResidencyState
    from repro.serve import pool, results
    from repro.serve.client import ServiceClient
    from repro.serve.jobs import JobState
    from repro.serve.service import SimulationService
    from repro.serve.store import ResultStore
    from repro.sim.engine import SimulationCheckpointer

    clock = tracer.clock
    for cls in _all_workload_classes():
        tracer.patch(cls, "build", "workloads.build")
    tracer.patch(GpuDevice, "run_phase", "gpu.run_phase")
    tracer.patch(DmaEngine, "h2d_pages", "gpu.dma")
    tracer.patch(DmaEngine, "d2h_pages", "gpu.dma")
    # the driver calls these through its own module namespace
    tracer.patch(driver, "assemble_batch", "core.assemble_batch")
    tracer.patch(driver, "preprocess_batch", "core.preprocess")
    tracer.patch(service.FaultServicer, "service_bin", "core.service_bin")
    tracer.patch(prefetch.TreePrefetcher, "prefetch_pages", "core.prefetch")
    tracer.patch(eviction.LruEvictionPolicy, "evict_victim", "core.evict_victim")
    tracer.patch(ResidencyState, "evict_vablock", "core.evict_vablock")
    tracer.patch(pma.PhysicalMemoryAllocator, "reserve", "core.pma")
    tracer.patch(pma.PhysicalMemoryAllocator, "release", "core.pma")
    tracer.patch(ResidencyState, "migrate_to_host", "mem.host_migrate")
    tracer.patch(ResidencyState, "make_resident", "mem.residency")
    tracer.patch(PageTable, "map_pages", "mem.page_table")
    tracer.patch(PageTable, "unmap_pages", "mem.page_table")
    tracer.patch(SimulationCheckpointer, "save", "sim.checkpoint",
                 after=lambda _c, args, _k, _r, _s, _e: {
                     "bytes": os.path.getsize(args[0].path)})

    def warm_hit(args, kwargs):
        workload = args[0]
        setup = (args[1] if len(args) > 1 else kwargs.get("setup")) or runner.ExperimentSetup()
        warm = args[3] if len(args) > 3 else kwargs.get("warm", False)
        return bool(warm) and runner._build_signature(workload, setup) in runner._warm_builds

    tracer.patch(runner, "build_driver", "runner.build_driver", before=warm_hit,
                 after=lambda hit, *_: {"warm_hit": hit})
    tracer.patch(runner, "_run_batch", "runner.batch", flush=True)

    def note_submit(_ctx, args, _kwargs, record, start, _end):
        if record.state is JobState.QUEUED:
            obs.submitted_ns[(id(args[0].pool), record.job_id)] = start
        return None

    def note_assign(args, _kwargs):
        now = clock()
        the_pool, members = args[0], args[2]
        obs.batch_sizes.append(len(members))
        for member in members:
            key = (id(the_pool), member[0])
            submitted = obs.submitted_ns.pop(key, None)
            if submitted is not None:
                obs.queue_wait_ns.append(now - submitted)
            obs.assigned_ns[key] = now

    def note_release(args, _kwargs):
        assigned = obs.assigned_ns.pop((id(args[0]), args[2]), None)
        if assigned is not None:
            obs.worker_ns.append(clock() - assigned)

    tracer.patch(SimulationService, "submit", "serve.submit", after=note_submit)
    tracer.patch(SimulationService, "result_doc", "serve.fetch")
    tracer.patch(pool.WorkerPool, "assign", "serve.assign", before=note_assign)
    tracer.patch(pool.WorkerPool, "release", "serve.release", before=note_release)
    tracer.patch(pool, "_run_member", "serve.member", flush=True)
    tracer.patch(results, "result_to_doc", "serve.serialize")
    tracer.patch(ResultStore, "store", "serve.store_write")
    tracer.patch(FleetGateway, "submit_dict", "fleet.submit")
    tracer.patch(FleetGateway, "status", "fleet.status")
    tracer.patch(FleetGateway, "result_doc", "fleet.result")
    tracer.patch(ServiceClient, "request_with_budget", "client.request")


# -- metrics ------------------------------------------------------------------
#: (metric, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("workloads.build_s", "s", "lower"),
    ("gpu.run_phase_s", "s", "lower"),
    ("gpu.run_phase_calls", "count", "lower"),
    ("gpu.dma_s", "s", "lower"),
    ("core.assemble_batch_s", "s", "lower"),
    ("core.preprocess_s", "s", "lower"),
    ("core.batches", "count", "lower"),
    ("core.service_bin_s", "s", "lower"),
    ("core.bins", "count", "lower"),
    ("core.prefetch_s", "s", "lower"),
    ("core.evict_s", "s", "lower"),
    ("core.evictions", "count", "lower"),
    ("core.pma_s", "s", "lower"),
    ("mem.host_migrate_s", "s", "lower"),
    ("mem.residency_s", "s", "lower"),
    ("mem.page_table_s", "s", "lower"),
    ("runner.build_driver_s", "s", "lower"),
    ("runner.warm_hits", "count", "higher"),
    ("runner.pool_efficiency", "ratio", "higher"),
    ("runner.result_bytes", "bytes", "lower"),
    ("sim.checkpoint_s", "s", "lower"),
    ("sim.checkpoint_bytes", "bytes", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.fetch_ms", "ms", "lower"),
    ("serve.queue_wait_ms", "ms", "lower"),
    ("serve.batch_size", "count", "higher"),
    ("serve.worker_ms", "ms", "lower"),
    ("serve.serialize_ms", "ms", "lower"),
    ("serve.store_write_ms", "ms", "lower"),
    ("serve.mem_hit_ratio", "ratio", "higher"),
    ("serve.dup_sim_ratio", "ratio", "lower"),
    ("fleet.submit_ms", "ms", "lower"),
    ("fleet.status_ms", "ms", "lower"),
    ("fleet.result_ms", "ms", "lower"),
    ("fleet.hop_ms", "ms", "lower"),
    ("fleet.shard_affinity", "ratio", "higher"),
    ("fleet.reroutes", "count", "lower"),
    ("loadgen.hit_p50_ms", "ms", "lower"),
    ("loadgen.late_p95_ms", "ms", "lower"),
    ("loadgen.miss_p95_ms", "ms", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.uncovered_s", "s", "lower"),
)


def _median_ms(values_ns: Iterable[int]) -> float:
    values = list(values_ns)
    return statistics.median(values) / 1e6 if values else 0.0


def in_windows(spans: Iterable[Span], windows: list[tuple[int, int]]) -> list[Span]:
    """Spans that start inside one of the measured ``(start, end)`` ns
    windows."""
    return [s for s in spans if any(a <= s.start_ns < b for a, b in windows)]


def coverage(spans: list[Span], windows: list[tuple[int, int]]) -> tuple[float, float]:
    """``(covered share, uncovered ns)`` of the windows: a moment is
    covered when any process has a layer span open."""
    total = sum(b - a for a, b in windows)
    covered = 0
    for a, b in windows:
        covered += union_ns(
            (max(s.start_ns, a), min(s.end_ns, b))
            for s in spans
            if s.name not in CONTAINER_SPANS and s.end_ns > a and s.start_ns < b
        )
    return (covered / total if total else 0.0), total - covered


def hop_ns(spans: list[Span], client_tid: int) -> list[int]:
    """Client round trip minus gateway handler time, per request the
    load generator made (its top-level ``client.request`` spans)."""
    calls = sorted(
        (s for s in spans
         if s.name == "client.request" and s.parent_id is None
         and s.tid == client_tid and s.pid == os.getpid()),
        key=lambda s: s.start_ns,
    )
    handlers = sorted(
        (s for s in spans if s.name.startswith("fleet.")), key=lambda s: s.start_ns
    )
    out, j = [], 0
    for call in calls:
        inside = 0
        while j < len(handlers) and handlers[j].start_ns < call.end_ns:
            if handlers[j].start_ns >= call.start_ns:
                inside += handlers[j].duration_ns
            j += 1
        out.append(call.duration_ns - inside)
    return out


def layer_metrics(
    spans: list[Span],
    windows: list[tuple[int, int]],
    obs: Optional[Observations] = None,
    workers: int = 1,
    client_tid: Optional[int] = None,
) -> dict[str, float]:
    """Per-layer metrics of the spans inside ``windows`` (one window per
    measured pass; ``*_s`` and count metrics are per-window means, ``*_ms``
    metrics are medians per call)."""
    spans = in_windows(spans, windows)
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    n = max(1, len(windows))

    def total_s(*names: str) -> float:
        return sum(selfs[(s.pid, s.span_id)] for nm in names for s in by_name[nm]) / 1e9 / n

    def count(name: str) -> float:
        return len(by_name[name]) / n

    def self_ms(name: str) -> float:
        return _median_ms(selfs[(s.pid, s.span_id)] for s in by_name[name])

    def dur_ms(name: str) -> float:
        return _median_ms(s.duration_ns for s in by_name[name])

    checkpoints = by_name["sim.checkpoint"]
    busy = sum(s.duration_ns for s in by_name["runner.batch"])
    wall = sum(b - a for a, b in windows)
    cov, uncovered = coverage(spans, windows)
    obs = obs or Observations()
    out = {
        "workloads.build_s": total_s("workloads.build"),
        "gpu.run_phase_s": total_s("gpu.run_phase"),
        "gpu.run_phase_calls": count("gpu.run_phase"),
        "gpu.dma_s": total_s("gpu.dma"),
        "core.assemble_batch_s": total_s("core.assemble_batch"),
        "core.preprocess_s": total_s("core.preprocess"),
        "core.batches": count("core.preprocess"),
        "core.service_bin_s": total_s("core.service_bin"),
        "core.bins": count("core.service_bin"),
        "core.prefetch_s": total_s("core.prefetch"),
        "core.evict_s": total_s("core.evict_victim", "core.evict_vablock"),
        "core.evictions": count("core.evict_vablock"),
        "core.pma_s": total_s("core.pma"),
        "mem.host_migrate_s": total_s("mem.host_migrate"),
        "mem.residency_s": total_s("mem.residency"),
        "mem.page_table_s": total_s("mem.page_table"),
        "runner.build_driver_s": total_s("runner.build_driver"),
        "runner.warm_hits": sum(bool(s.attrs.get("warm_hit"))
                                for s in by_name["runner.build_driver"]) / n,
        "runner.pool_efficiency": busy / (workers * wall) if busy and wall else 0.0,
        "sim.checkpoint_s": total_s("sim.checkpoint"),
        "sim.checkpoint_bytes": (
            statistics.mean(s.attrs.get("bytes", 0) for s in checkpoints)
            if checkpoints else 0.0
        ),
        "serve.submit_ms": dur_ms("serve.submit"),
        "serve.fetch_ms": dur_ms("serve.fetch"),
        "serve.queue_wait_ms": _median_ms(obs.queue_wait_ns),
        "serve.batch_size": statistics.mean(obs.batch_sizes) if obs.batch_sizes else 0.0,
        "serve.worker_ms": _median_ms(obs.worker_ns),
        "serve.serialize_ms": dur_ms("serve.serialize"),
        "serve.store_write_ms": dur_ms("serve.store_write"),
        "fleet.submit_ms": self_ms("fleet.submit"),
        "fleet.status_ms": self_ms("fleet.status"),
        "fleet.result_ms": self_ms("fleet.result"),
        "fleet.hop_ms": _median_ms(hop_ns(spans, client_tid)) if client_tid else 0.0,
        "trace.coverage": cov,
        "trace.uncovered_s": uncovered / 1e9 / n,
    }
    return out
