"""Shared experiment orchestration.

:func:`simulate` is the library's main entry point: build a workload into
a fresh address space, run the UVM driver simulation, and return the
instrumented :class:`~repro.core.driver.RunResult`.  All experiment
modules and examples funnel through it so a configuration knob changed
here changes every exhibit consistently.

:func:`run_sweep` is the fleet version: every figure/table is a grid of
independent ``simulate`` points, so the sweep fans them out over a
process pool (the work is pure Python/numpy - threads would serialize on
the GIL) and memoizes each point on disk keyed by (workload spec,
setup, code version).  Re-rendering a figure after an unrelated edit
costs one cache read per point.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.core.driver import DriverConfig, RunResult, UvmDriver
from repro.errors import ConfigurationError
from repro.gpu.device import GpuDeviceConfig
from repro.mem.address_space import AddressSpace
from repro.sim.costmodel import CostModel
from repro.sim.rng import SimRng
from repro.trace.recorder import NullRecorder, TraceRecorder
from repro.units import VABLOCK_SIZE
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ExperimentSetup:
    """One run's full configuration (defaults = the paper's defaults).

    The default GPU is a scaled Titan V (256 MiB instead of 12 GiB, same
    geometry) so sweeps complete in CI time; oversubscription ratios are
    preserved because experiments size workloads relative to
    ``gpu.memory_bytes``.
    """

    driver: DriverConfig = field(default_factory=DriverConfig)
    gpu: GpuDeviceConfig = field(default_factory=GpuDeviceConfig)
    cost: CostModel = field(default_factory=CostModel)
    seed: int = 0x5EED
    #: allocation/eviction granule; non-default values exercise the
    #: paper's flexible-granularity discussion (Section VI-B).
    vablock_bytes: int = VABLOCK_SIZE

    def make_space(self) -> AddressSpace:
        return AddressSpace(vablock_size=self.vablock_bytes)

    def with_driver(self, **kwargs) -> "ExperimentSetup":
        return replace(self, driver=self.driver.with_overrides(**kwargs))

    def with_gpu(self, **kwargs) -> "ExperimentSetup":
        return replace(self, gpu=replace(self.gpu, **kwargs))

    def with_cost(self, **kwargs) -> "ExperimentSetup":
        return replace(self, cost=self.cost.with_overrides(**kwargs))


#: pristine (AddressSpace, WorkloadBuild) pairs keyed by everything that
#: determines ``workload.build`` output.  Entries are deep-copied on
#: every use (the run mutates the space), so the memo stays pristine;
#: the read-only stream tables are shared rather than copied, so a hit
#: copies only the small mutable state.  Per-process (each serve worker
#: / sweep process warms its own), bounded to a handful of signatures.
_warm_builds: OrderedDict[tuple, tuple] = OrderedDict()
_WARM_BUILDS_MAX = 4


def _build_signature(workload: Workload, setup: "ExperimentSetup") -> tuple:
    """What :meth:`Workload.build` output depends on: the workload spec
    itself, the seed (the build consumes ``rng.fork("workload")``), and
    the address-space granule.  Driver/GPU/cost configs and the trace
    flag are applied after the build, so jobs differing only there share
    one warmed build."""
    return (_stable_repr(workload), setup.seed, setup.vablock_bytes)


def clear_warm_builds() -> None:
    """Drop memoized builds (tests, or after monkeypatching a workload)."""
    _warm_builds.clear()


def build_driver(
    workload: Workload,
    setup: Optional[ExperimentSetup] = None,
    record_trace: bool = False,
    warm: bool = False,
) -> UvmDriver:
    """Materialize a ready-to-run driver for one simulation point.

    Shared by :func:`simulate` and the checkpoint-aware
    :func:`execute_job` path (which may instead restore a pickled
    driver and skip construction entirely).

    ``warm=True`` memoizes the built ``(space, build)`` pair per build
    signature and hands out a deep copy (sharing the read-only stream
    tables), so batch members sharing a signature skip the expensive
    :meth:`Workload.build`.  Bit-identical
    to a cold build: the build is deterministic in ``(workload, seed,
    vablock)``, and :meth:`SimRng.fork` is pure (derives the child seed
    without consuming parent state), so skipping the fork on a memo hit
    leaves the driver's own rng stream untouched.
    """
    setup = setup or ExperimentSetup()
    rng = SimRng(setup.seed)
    if warm:
        sig = _build_signature(workload, setup)
        entry = _warm_builds.get(sig)
        if entry is None:
            space0 = setup.make_space()
            build0 = workload.build(space0, rng.fork("workload"))
            entry = (space0, build0)
            _warm_builds[sig] = entry
            while len(_warm_builds) > _WARM_BUILDS_MAX:
                _warm_builds.popitem(last=False)
        else:
            _warm_builds.move_to_end(sig)
        # joint deepcopy preserves aliasing between the space and the
        # build's ranges (they reference the same allocations); the
        # read-only stream tables deep-copy to themselves, so every copy
        # shares their arrays.
        space, build = copy.deepcopy(entry)
    else:
        space = setup.make_space()
        build = workload.build(space, rng.fork("workload"))
    recorder: TraceRecorder = TraceRecorder() if record_trace else NullRecorder()
    return UvmDriver(
        space=space,
        phases=build.phases,
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        cost=setup.cost,
        rng=rng,
        recorder=recorder,
    )


def simulate(
    workload: Workload,
    setup: Optional[ExperimentSetup] = None,
    record_trace: bool = False,
) -> RunResult:
    """Run ``workload`` under the UVM simulator and return the result.

    ``record_trace=True`` captures per-event streams (needed for access
    pattern figures); leave it off for counter/timer sweeps.
    """
    return build_driver(workload, setup, record_trace).run()


# -- parallel sweep executor --------------------------------------------------

#: a sweep point: a bare workload (simulated under the sweep's default
#: setup) or an explicit (workload, setup) pair.
SweepPoint = Union[Workload, tuple[Workload, Optional[ExperimentSetup]]]

_code_version_cache: Optional[str] = None


def code_version() -> str:
    """Content hash of the simulator sources (``src/repro/**/*.py``).

    Part of every sweep cache key: any source edit invalidates all
    cached results, so the cache can never serve results from a
    different simulator than the one installed.
    """
    global _code_version_cache
    if _code_version_cache is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = []
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            paths.extend(
                os.path.join(dirpath, fn) for fn in filenames if fn.endswith(".py")
            )
        digest = hashlib.sha256()
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        _code_version_cache = digest.hexdigest()[:16]
    return _code_version_cache


def _stable_repr(obj) -> str:
    """Deterministic, content-complete repr for cache keys.

    Handles the types that appear in workload/setup objects: numpy
    arrays hash by content, dicts sort their keys, dataclasses and plain
    objects recurse into their fields.
    """
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__qualname__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()[:16]
        return f"ndarray({obj.dtype},{obj.shape},{digest})"
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return repr(obj.item())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        return "{" + ",".join(f"{k!r}:{_stable_repr(v)}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple, set, frozenset)):
        vals = sorted(map(_stable_repr, obj)) if isinstance(obj, (set, frozenset)) else [
            _stable_repr(v) for v in obj
        ]
        return f"{type(obj).__name__}({','.join(vals)})"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_stable_repr(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__qualname__}({fields})"
    if isinstance(obj, (int, float, str, bytes, bool, type(None))):
        return repr(obj)
    if hasattr(obj, "__dict__"):
        name = f"{type(obj).__module__}.{type(obj).__qualname__}"
        return f"{name}({_stable_repr(vars(obj))})"
    return repr(obj)


def sweep_cache_key(
    workload: Workload, setup: ExperimentSetup, record_trace: bool = False
) -> str:
    """Cache key of one sweep point: hash of (code version, workload
    spec, experiment setup, trace flag)."""
    payload = "\n".join(
        (
            code_version(),
            _stable_repr(workload),
            _stable_repr(setup),
            repr(bool(record_trace)),
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _resolve_cache_dir(cache: bool, cache_dir: Optional[str]) -> Optional[str]:
    if not cache:
        return None
    if cache_dir is not None:
        return cache_dir
    env = os.environ.get("REPRO_SWEEP_CACHE")
    if env is not None:
        if env.strip().lower() in ("", "0", "off", "none", "disabled"):
            return None
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-uvm")


def _cache_load(directory: str, key: str) -> Optional[RunResult]:
    path = os.path.join(directory, f"{key}.pkl")
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
        return None


def _cache_store(directory: str, key: str, result: RunResult) -> None:
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, os.path.join(directory, f"{key}.pkl"))
    except OSError:
        pass  # a cold cache is never an error


#: default checkpoint cadence for sweep/serve runs (simulation phases
#: between snapshots; saving only reads state, so cadence never changes
#: results - it only bounds how much work a crash can lose).
DEFAULT_CHECKPOINT_PHASES = 256


def checkpoint_path(directory: str, key: str) -> str:
    """Where a point's mid-run snapshot lives: keyed by the same
    content-addressed cache key as the result, under ``checkpoints/``,
    so a snapshot can never resume a different spec or code version."""
    return os.path.join(directory, "checkpoints", f"{key}.ckpt")


def execute_job(
    workload: Workload,
    setup: Optional[ExperimentSetup] = None,
    record_trace: bool = False,
    cache_dir: Optional[str] = None,
    checkpointer=None,
    warm: bool = False,
) -> tuple[RunResult, bool]:
    """Run one simulation point through the canonical cache-aware path.

    This is the single job-execution code path shared by
    :func:`run_sweep` and the :mod:`repro.serve` worker pool: probe the
    code-version-keyed on-disk cache (when ``cache_dir`` is given), fall
    back to simulating, and persist the fresh result for the next
    caller.  Returns ``(result, cache_hit)``.

    ``checkpointer`` (a
    :class:`~repro.sim.engine.SimulationCheckpointer`) adds
    crash-resilience: the run snapshots itself periodically, a crashed
    attempt resumes from the last snapshot instead of restarting, and a
    completed run clears its snapshot.  Resume is reported on
    ``checkpointer.resumed``.  Results are bit-identical either way.
    """
    setup = setup or ExperimentSetup()
    key: Optional[str] = None
    if cache_dir is not None:
        key = sweep_cache_key(workload, setup, record_trace)
        cached = _cache_load(cache_dir, key)
        if cached is not None:
            if checkpointer is not None:
                checkpointer.clear()
            return cached, True
    driver = None
    if checkpointer is not None and checkpointer.exists():
        driver = checkpointer.load()
        checkpointer.resumed = driver is not None
    if driver is None:
        driver = build_driver(workload, setup, record_trace, warm=warm)
    result = driver.run(checkpointer)
    if checkpointer is not None:
        checkpointer.clear()
    if cache_dir is not None and key is not None:
        _cache_store(cache_dir, key, result)
    return result, False


def _run_point(args) -> RunResult:
    """Module-level worker so pool submissions pickle cleanly."""
    workload, setup, record_trace = args[:3]
    directory = args[3] if len(args) > 3 else None
    checkpointer = None
    if directory is not None:
        from repro.sim.engine import SimulationCheckpointer

        key = sweep_cache_key(workload, setup, record_trace)
        checkpointer = SimulationCheckpointer(
            checkpoint_path(directory, key),
            every_phases=DEFAULT_CHECKPOINT_PHASES,
        )
    return execute_job(
        workload,
        setup,
        record_trace,
        cache_dir=directory,
        checkpointer=checkpointer,
    )[0]


def _run_batch(args) -> list[RunResult]:
    """Module-level batch worker: run same-signature points on one warm
    build (``warm=True`` memoizes the first member's build; the rest
    deep-copy it instead of rebuilding).  Results are bit-identical to
    solo :func:`_run_point` runs - the build is deterministic and the
    memo hands out pristine copies."""
    batch, directory = args
    out: list[RunResult] = []
    for workload, setup, record_trace in batch:
        checkpointer = None
        if directory is not None:
            from repro.sim.engine import SimulationCheckpointer

            key = sweep_cache_key(workload, setup, record_trace)
            checkpointer = SimulationCheckpointer(
                checkpoint_path(directory, key),
                every_phases=DEFAULT_CHECKPOINT_PHASES,
            )
        out.append(
            execute_job(
                workload,
                setup,
                record_trace,
                cache_dir=directory,
                checkpointer=checkpointer,
                warm=True,
            )[0]
        )
    return out


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        env = os.environ.get("REPRO_SWEEP_WORKERS")
        if env:
            try:
                workers = int(env)
            except ValueError:
                workers = None
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, int(workers))


#: process-wide in-memory RunResult tier over the pickle cache; rebuilt
#: (never shrunk mid-entry) when a sweep asks for a different budget.
_result_mem_cache = None


def _mem_cache(mem_cache_mb: int):
    """The shared in-memory result tier (None when disabled).

    Lazy import: :mod:`repro.serve` imports this module, so the cache
    class cannot be imported at module scope without a cycle.
    """
    global _result_mem_cache
    if mem_cache_mb <= 0:
        return None
    from repro.serve.cache import LruCache

    budget = int(mem_cache_mb) * 1024 * 1024
    if _result_mem_cache is None or _result_mem_cache.max_bytes != budget:
        _result_mem_cache = LruCache(budget)
    return _result_mem_cache


def run_sweep(
    points: Iterable[SweepPoint],
    setup: Optional[ExperimentSetup] = None,
    workers: Optional[int] = None,
    cache: bool = True,
    cache_dir: Optional[str] = None,
    record_trace: bool = False,
    mem_cache_mb: int = 64,
    batch_max: int = 8,
) -> list[RunResult]:
    """Simulate independent sweep points, in parallel and memoized.

    ``points`` is a sequence of workloads or ``(workload, setup)``
    pairs; bare workloads run under ``setup`` (default:
    ``ExperimentSetup()``).  Results come back in input order.

    Result reads are tiered: a process-wide in-memory LRU
    (``mem_cache_mb`` MiB; 0 disables) answers first, then the on-disk
    pickle cache in ``cache_dir`` (default ``~/.cache/repro-uvm``,
    overridable via the ``REPRO_SWEEP_CACHE`` env var; set it to
    ``0``/``off`` to disable) keyed by :func:`sweep_cache_key`, so
    re-running a sweep only simulates points whose workload, setup, or
    simulator code changed.

    Uncached points are grouped by build signature (workload spec, seed,
    granule) and dispatched in batches of up to ``batch_max``; each
    batch reuses one warmed workload build instead of rebuilding per
    point, with bit-identical results.  Batches fan out over a
    ``multiprocessing`` pool of ``workers`` processes (default:
    ``REPRO_SWEEP_WORKERS`` or the CPU count; pass 1 to force serial).
    """
    if mem_cache_mb < 0:
        raise ConfigurationError("mem_cache_mb must be >= 0")
    if batch_max < 1:
        raise ConfigurationError("batch_max must be >= 1")
    default_setup = setup or ExperimentSetup()
    jobs: list[tuple[Workload, ExperimentSetup, bool]] = []
    for point in points:
        if isinstance(point, tuple):
            workload, point_setup = point
            jobs.append((workload, point_setup or default_setup, record_trace))
        else:
            jobs.append((point, default_setup, record_trace))

    directory = _resolve_cache_dir(cache, cache_dir)
    mem = _mem_cache(mem_cache_mb)
    results: list[Optional[RunResult]] = [None] * len(jobs)
    keys: list[Optional[str]] = [None] * len(jobs)
    misses: list[int] = []
    for i, job in enumerate(jobs):
        if directory is not None or mem is not None:
            keys[i] = sweep_cache_key(job[0], job[1], job[2])
        if mem is not None and keys[i] is not None:
            results[i] = mem.get(keys[i])
            if results[i] is not None and directory is not None and not os.path.exists(
                os.path.join(directory, f"{keys[i]}.pkl")
            ):
                # write-through: the process-wide memory tier outlives
                # any one cache directory, so a mem hit must still
                # populate the on-disk memo this sweep maintains.
                _cache_store(directory, keys[i], results[i])
        if results[i] is None and directory is not None and keys[i] is not None:
            results[i] = _cache_load(directory, keys[i])
            if results[i] is not None and mem is not None:
                mem.put(keys[i], results[i])
        if results[i] is None:
            misses.append(i)

    # Group misses by build signature so each batch shares one warmed
    # build, then chunk to batch_max.  Batches carry the cache directory
    # so each worker checkpoints its points (under
    # <directory>/checkpoints/) and stores its own results; a sweep
    # killed mid-run resumes from those snapshots on re-run.
    groups: OrderedDict[tuple, list[int]] = OrderedDict()
    for i in misses:
        groups.setdefault(_build_signature(jobs[i][0], jobs[i][1]), []).append(i)
    batches: list[list[int]] = []
    for members in groups.values():
        for start in range(0, len(members), batch_max):
            batches.append(members[start : start + batch_max])
    batch_args = [([jobs[i] for i in chunk], directory) for chunk in batches]
    n_workers = _resolve_workers(workers)
    if len(batch_args) > 1 and n_workers > 1:
        computed = _run_pool(_run_batch, batch_args, min(n_workers, len(batch_args)))
    else:
        computed = None
    if computed is None:
        computed = [_run_batch(args) for args in batch_args]

    for chunk, outs in zip(batches, computed):
        for i, result in zip(chunk, outs):
            results[i] = result
            if directory is not None and keys[i] is not None:
                _cache_store(directory, keys[i], result)
            if mem is not None and keys[i] is not None:
                mem.put(keys[i], result)
    return results  # type: ignore[return-value]


def _run_pool(fn, jobs: Sequence, n_workers: int) -> Optional[list]:
    """Fan jobs over a process pool; ``None`` means the pool could not
    start (sandboxes without fork or semaphore support) and the caller
    runs serially.  An exception raised by ``fn`` in a worker propagates:
    re-running a failed sweep serially would hide the bug and double
    its cost."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    try:
        ctx = mp.get_context("fork")  # cheap start, inherits imports
    except ValueError:  # pragma: no cover - non-POSIX
        ctx = mp.get_context()
    try:
        pool = ProcessPoolExecutor(max_workers=n_workers, mp_context=ctx)
    except (OSError, NotImplementedError):  # pragma: no cover - no semaphores
        return None
    with pool:
        try:
            # workers fork on submit, so a host that cannot fork fails here
            futures = [pool.submit(fn, job) for job in jobs]
        except OSError:  # pragma: no cover - environment-dependent
            pool.shutdown(cancel_futures=True)
            return None
        try:
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)  # fail fast: drop queued jobs
            raise
