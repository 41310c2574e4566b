"""The three benchmark workloads.

Each workload object makes its inputs in :meth:`setup`, then either
measures end-to-end metrics with tracing off (:meth:`run`) or makes the
separate traced run that yields per-layer metrics (:meth:`run_traced`).
Every operation's output is checked against the committed pins
(:mod:`pins`); a mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import json
import math
import pickle
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Optional

import inputs
import layers
import pins
from loadgen import JobOutcome, OpenLoop
from spans import Span, Tracer
from stats import InsufficientSamples, median, percentile

#: processes the sweep pool and the fleet may use (the target has 2 CPUs).
WORKERS = 2


class Outcome:
    """Operations attempted and failed, and the metrics of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, dict[str, Any]] = {}
        self.notes: list[str] = []
        #: extra figures for the trace output file.
        self.trace_doc: dict[str, Any] = {}

    def op(self, ok: bool, note: Optional[str] = None) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note:
                self.notes.append(note)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def report(self) -> dict[str, Any]:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }


def _peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class Workload:
    """Common pin and tracing plumbing."""

    name = ""

    def __init__(self, seed: int, run_dir: Path, seconds: float,
                 trace: bool = False, smoke: bool = False,
                 pinned: Optional[dict[str, str]] = None) -> None:
        self.seed = seed
        self.run_dir = Path(run_dir)
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        #: committed pins; smoke runs have none unless a test passes some.
        self.pinned = pinned if pinned is not None or smoke else pins.load(self.name)
        self.checker = pins.PinChecker(self.pinned)
        self.outcome = Outcome()
        self.tracer: Optional[Tracer] = None
        self.obs = layers.Observations()

    def start_tracing(self) -> None:
        if self.tracer is None:
            self.tracer = Tracer(self.run_dir / "spans")
        layers.install(self.tracer, self.obs)

    def stop_tracing(self) -> None:
        if self.tracer is not None:
            self.tracer.uninstall()

    def emit_layers(self, values: dict[str, float], spans: list[Span]) -> None:
        for name, unit, _better in layers.PER_LAYER:
            self.outcome.metric(name, values.get(name, 0.0), unit)
        self.outcome.trace_doc["span_count"] = len(spans)
        self.spans = spans

    def write_spans(self, path: Path) -> None:
        """Write the traced run's spans, one JSON row per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in getattr(self, "spans", ()):
                fh.write(json.dumps(span.to_row(), separators=(",", ":")) + "\n")

    def close(self) -> None:
        self.stop_tracing()
        shutil.rmtree(self.run_dir, ignore_errors=True)


class SimWorkload(Workload):
    """A closed loop of simulator passes, each timed: the next pass
    starts when the previous one returns, and another pass is started
    only while it is expected to end within the run's seconds."""

    #: ``peak_rss_mb`` adds the largest pool child's peak.
    rss_includes_children = False

    def setup(self) -> None:
        self.result_bytes: list[int] = []
        self.raised = 0

    def simulate_pass(self) -> list:
        """One timed pass; returns its ``RunResult`` list in point order."""
        raise NotImplementedError

    def _pass(self, traced: bool) -> tuple[int, int]:
        """Run, time and check one pass; returns its ``(start, end)`` ns."""
        if traced:
            self.start_tracing()
        t0 = time.perf_counter_ns()
        try:
            results, error = self.simulate_pass(), None
        except Exception as exc:  # noqa: BLE001 - a failed pass is counted
            results, error = [], f"pass raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter_ns()
        if traced:
            self.stop_tracing()
        if error:
            self.raised += 1
            self.outcome.op(False, error)
        for i, result in enumerate(results):
            ok = self.checker.check(f"point{i}", pins.result_digest(result))
            self.outcome.op(ok, None if ok else f"{self.name} point {i} differs from its pin")
            if traced:
                self.result_bytes.append(len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)))
        return t0, t1

    def _passes(self, seconds: float, alternate: bool) -> tuple[list, list]:
        """Passes until the next one would overrun ``seconds``.  With
        ``alternate``, untraced and traced passes take turns (untraced
        first) and at least one of each runs."""
        plain: list[tuple[int, int]] = []
        traced: list[tuple[int, int]] = []
        start = time.perf_counter_ns()
        while True:
            is_traced = alternate and len(plain) > len(traced)
            span = self._pass(is_traced)
            (traced if is_traced else plain).append(span)
            typical = statistics.median(b - a for a, b in plain + traced)
            if span[1] - start + typical > seconds * 1e9 and (traced or not alternate):
                return plain, traced

    def run(self, seconds: float) -> Outcome:
        plain, _ = self._passes(seconds, alternate=False)
        # Every pass does the same deterministic work, so the fastest is
        # the one least slowed by other load on the host.  A pass that
        # raised misses every latency limit.
        fastest = min((b - a) / 1e9 for a, b in plain) if not self.raised else math.inf
        self.outcome.metric("compute_ms", _finite_ms(fastest), "ms")
        self.outcome.metric("peak_rss_mb", _peak_rss_mb(self.rss_includes_children), "MB")
        return self.outcome

    def run_traced(self, seconds: float) -> Outcome:
        plain, traced = self._passes(seconds, alternate=True)
        spans = self.tracer.collect()
        values = layers.layer_metrics(spans, traced, self.obs, workers=WORKERS)
        traced_s = median([(b - a) / 1e9 for a, b in traced])
        plain_s = median([(b - a) / 1e9 for a, b in plain])
        values["trace.overhead"] = traced_s / plain_s - 1.0
        values["runner.result_bytes"] = statistics.mean(self.result_bytes) if self.result_bytes else 0.0
        self.emit_layers(values, spans)
        self.outcome.trace_doc.update(run_s_untraced=plain_s, run_s_traced=traced_s)
        return self.outcome


class SgemmOversub(SimWorkload):
    """One ``simulate()`` of 384 MiB SGEMM on the 256 MiB GPU per pass."""

    name = "sgemm-oversub"

    def setup(self) -> None:
        super().setup()
        self.workload, self.setup_ = inputs.sgemm_inputs(self.smoke)

    def simulate_pass(self) -> list:
        from repro.experiments.runner import simulate

        return [simulate(self.workload, self.setup_)]


class SolverSweep(SimWorkload):
    """One ``run_sweep`` over the 12-point grid per pass."""

    name = "solver-sweep"
    rss_includes_children = True

    def setup(self) -> None:
        super().setup()
        self.points = inputs.sweep_points(self.smoke)

    def simulate_pass(self) -> list:
        from repro.experiments.runner import run_sweep

        return run_sweep(self.points, workers=WORKERS, cache=False, mem_cache_mb=0)


class FleetOpenLoop(Workload):
    """A gateway over two single-worker shards, driven open-loop over HTTP."""

    name = "fleet-openloop"
    gateway = gateway_server = None
    shards: list = []

    def setup(self) -> None:
        # The traced run reports the miss p95, so it runs until enough
        # fresh keys (each a miss) were drawn; the untraced run only for
        # ``--seconds``.
        if self.smoke:
            min_fresh = 15
        else:
            min_fresh = inputs.FLEET_MIN_FRESH if self.trace else 0
        self.arrivals = inputs.fleet_arrivals(
            self.seed, self.seconds, smoke=self.smoke, min_fresh=min_fresh,
        )
        if self.trace:
            self.start_tracing()  # before any worker is forked
        self._start_fleet()

    def _start_fleet(self) -> None:
        from repro.errors import ReproError
        from repro.fleet import FleetGateway, GatewayConfig, ShardSpec, serve_gateway_http
        from repro.serve.client import ServiceClient
        from repro.serve.http_api import serve_http
        from repro.serve.service import ServiceConfig, SimulationService

        self.shards = []
        for i in range(WORKERS):
            # the sweep memo is off: its default lives outside the
            # checkout and would turn repeat runs' misses into hits.
            config = ServiceConfig(n_workers=1, sweep_cache_dir="", shard_name=f"shard{i}")
            svc = SimulationService(str(self.run_dir / f"shard{i}"), config).start()
            self.shards.append((svc, serve_http(svc, "127.0.0.1", 0)))
        self.gateway = FleetGateway(GatewayConfig(shards=tuple(
            ShardSpec(f"shard{i}", server.url) for i, (_svc, server) in enumerate(self.shards)
        ))).start()
        self.gateway_server = serve_gateway_http(self.gateway, "127.0.0.1", 0)
        self.client = ServiceClient(self.gateway_server.url)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                if self.client.readyz().get("ready"):
                    return
            except ReproError:  # 503 until a shard probe succeeds
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("the fleet was not ready within 60 s")
            time.sleep(0.01)

    def _stop_fleet(self) -> None:
        """Stop the gateway and the shards; each shard's stop waits for its
        worker processes to exit.  Safe to call twice."""
        if self.gateway_server is not None:
            self.gateway_server.shutdown()
            self.gateway_server.server_close()
            self.gateway_server = None
        if self.gateway is not None:
            self.gateway.stop()
            self.gateway = None
        shards, self.shards = self.shards, []
        for svc, server in shards:
            server.shutdown()
            server.server_close()
            svc.stop()

    def close(self) -> None:
        self._stop_fleet()
        super().close()

    def _check(self, job: JobOutcome) -> Optional[str]:
        key = pins.spec_id(job.spec)
        if not self.checker.check(key, pins.doc_digest(job.doc)):
            return f"result of spec {key} differs from its pin"
        return None

    def _open_loop(self, arrivals: list[tuple[float, dict]]) -> list[JobOutcome]:
        outcomes = OpenLoop(
            arrivals, self.client, time.perf_counter, time.sleep, check=self._check,
        ).run()
        for job in outcomes:
            self.outcome.op(not job.failed, job.error)
        return outcomes

    def _drive(self) -> tuple[list[JobOutcome], tuple[int, int]]:
        """Warm the hot set, then send the measured arrivals.

        Each hot key is computed once before the window opens, as in a
        service that has been up for a while: the window then measures
        steady state, not the cold-start burst whose size depends on
        which keys the seed made hot.  The warm-up jobs are checked like
        every other job but are not timed.
        """
        hot = {pins.spec_id(a.spec): a.spec for a in self.arrivals if a.hot}
        self.warm_outcomes = self._open_loop([(0.0, spec) for spec in hot.values()])
        self.obs.reset()
        t0 = time.perf_counter_ns()
        outcomes = self._open_loop([(a.due_s, a.spec) for a in self.arrivals])
        t1 = time.perf_counter_ns()
        return outcomes, (t0, t1)

    def run(self, seconds: float) -> Outcome:
        outcomes, _window = self._drive()
        self.outcome.metric("compute_ms", _finite_ms(median(_misses(outcomes))), "ms")
        # the shards' workers are children of this process; their peak
        # counts once they have exited.
        self._stop_fleet()
        self.outcome.metric("peak_rss_mb", _peak_rss_mb(children=True), "MB")
        return self.outcome

    def _p95(self, values: list[float], label: str) -> float:
        try:
            return percentile(values, 95)
        except InsufficientSamples as exc:
            # only smoke runs get here: a full run draws FLEET_MIN_FRESH
            # fresh keys, each a guaranteed miss, and twice as many arrivals.
            self.outcome.notes.append(f"{label} is the maximum: {exc}")
            return max(values)

    def _counters(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for svc, _server in self.shards:
            for key, value in svc.metrics()["counters"].items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def run_traced(self, seconds: float) -> Outcome:
        outcomes, window = self._drive()
        counters = self._counters()
        reroutes = self.gateway.metrics()["counters"].get("fleet.reroutes", 0)
        # A serve worker appends its spans to its file after it reports
        # the job done; only once the workers have exited are the files
        # complete.
        self._stop_fleet()
        spans = self.tracer.collect()
        values = layers.layer_metrics(
            spans, [window], self.obs, workers=WORKERS,
            client_tid=threading.get_ident(),
        )
        reads = sum(counters.get(k, 0) for k in
                    ("cache.mem_hits", "cache.disk_hits", "cache.misses"))
        distinct = len({pins.spec_id(j.spec) for j in outcomes})
        values.update({
            "serve.mem_hit_ratio": counters.get("cache.mem_hits", 0) / reads if reads else 0.0,
            "serve.dup_sim_ratio": counters.get("simulations.run", 0) / distinct,
            "fleet.shard_affinity": _shard_affinity(self.warm_outcomes + outcomes),
            "fleet.reroutes": reroutes,
            "loadgen.hit_p50_ms": 1e3 * median(
                [j.latency_s for j in outcomes if j.hit and not j.failed]),
            "loadgen.late_p95_ms": 1e3 * self._p95([j.late_s for j in outcomes],
                                                   "loadgen.late_p95_ms"),
            "loadgen.miss_p95_ms": _finite_ms(self._p95(_misses(outcomes),
                                                        "loadgen.miss_p95_ms")),
            "trace.overhead": _span_overhead(len(layers.in_windows(spans, [window])), window),
        })
        self.emit_layers(values, spans)
        self.outcome.trace_doc["counters"] = counters
        return self.outcome


def _misses(outcomes: list[JobOutcome]) -> list[float]:
    """Latencies of queued jobs.  A failed job misses every latency
    limit: it joins this class with infinite latency."""
    return [j.latency_s for j in outcomes if not j.hit or j.failed]


def _finite_ms(seconds: float) -> float:
    """Milliseconds; an infinite (failed) latency is reported as 1e9 ms."""
    return 1e3 * seconds if math.isfinite(seconds) else 1e9


def _shard_affinity(outcomes: list[JobOutcome]) -> float:
    """Share of repeat submissions routed to the shard that served the
    key's first submission."""
    home: dict[str, str] = {}
    repeats = same = 0
    for job in outcomes:
        if job.shard is None:
            continue
        key = pins.spec_id(job.spec)
        if key in home:
            repeats += 1
            same += home[key] == job.shard
        else:
            home[key] = job.shard
    return same / repeats if repeats else 0.0


#: calls timed to calibrate the cost of one wrapped call.
CALIBRATION_CALLS = 20000


def _span_overhead(n_spans: int, window: tuple[int, int]) -> float:
    """Tracing cost as a share of the window, for the open-loop workload
    (it has no untraced ``run_s`` to compare with): the recorded span
    count times the measured extra cost of one wrapped call."""
    def noop() -> None:
        return None

    wrapped = Tracer(Path(".")).wrap(noop, "calibrate")
    t0 = time.perf_counter_ns()
    for _ in range(CALIBRATION_CALLS):
        noop()
    t1 = time.perf_counter_ns()
    for _ in range(CALIBRATION_CALLS):
        wrapped()
    t2 = time.perf_counter_ns()
    per_span = max(0, (t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS
    return n_spans * per_span / (window[1] - window[0])


WORKLOADS = {cls.name: cls for cls in (SgemmOversub, SolverSweep, FleetOpenLoop)}


def make(name: str, seed: int, run_dir: Path, seconds: float, trace: bool = False,
         **kwargs) -> Workload:
    return WORKLOADS[name](seed, run_dir, seconds, trace=trace, **kwargs)
