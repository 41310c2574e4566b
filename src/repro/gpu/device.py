"""The GPU device: execution phases that produce the fault workload.

:class:`GpuDevice` ties the per-component models together: the block
scheduler advances warp streams against the current residency state; every
miss goes through the per-GPC uTLB filter and, if not coalesced, into the
hardware fault buffer.  The driver (in :mod:`repro.core.driver`) then
consumes that buffer - the exact producer/consumer split of Fig. 2.

A *GPU phase* is one pass in which every runnable stream advances to its
next far-fault (or completion).  Between phases the driver services
faults and issues replays; replays clear the uTLB pending filters and
wake stalled streams, possibly re-raising unsatisfied faults as
duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.fault_buffer import FaultBuffer, FaultEntry
from repro.gpu.scheduler import BlockScheduler
from repro.gpu.soa import SoaBlockScheduler, advance_batch, span_indices
from repro.gpu.table import StreamTable
from repro.gpu.tlb import UTlbArray
from repro.gpu.warp import StreamState, WarpStream
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng
from repro.units import GiB, MiB


@dataclass(frozen=True)
class GpuDeviceConfig:
    """Hardware parameters of the simulated GPU.

    Defaults model a scaled-down Titan V: the geometry ratios (SM count,
    GPC count, fault-buffer depth) match the paper's platform while the
    default memory capacity is reduced so experiments finish in CI time;
    pass ``memory_bytes=12 * GiB`` for the full card.
    """

    memory_bytes: int = 256 * MiB
    n_sms: int = 80
    n_gpcs: int = 6
    max_active_streams: int = 2048
    fault_buffer_capacity: int = 4096  # lint: allow(units-magic-literal) entry count, not bytes
    fault_ready_delay_ns: int = 1_500
    scheduler_jitter: float = 0.08
    track_access_counters: bool = False
    #: Aggregate compute throughput used to convert workload FLOPs into
    #: simulated time (Fig. 10's compute-rate denominator).  Scaled down
    #: from the Titan V's ~14 TFLOP/s in proportion to the scaled memory
    #: capacity so the paging/compute balance at the oversubscription
    #: cliff matches the paper's regime.
    compute_flops_per_s: float = 5.0e11
    #: Streams advanced per GPU phase.  Faults on real hardware arrive
    #: spread over time while the driver is servicing; bounding how many
    #: warps reach their next miss between driver passes models that
    #: temporal spread (and thereby the realistic refault/duplicate rate
    #: under the flushing replay policy).
    phase_width: int = 512
    #: Fault arrivals per microsecond of driver service time: while the
    #: driver works, SMs keep running and stalling.  Couples the fault
    #: backlog (and hence flush sizes, duplicates, and replay overhead)
    #: to how slow servicing is - the mechanism that makes random access
    #: pay a visibly larger replay-policy cost in Fig. 3.
    service_arrival_per_us: float = 0.6
    #: Local jitter of the within-phase advancement order (fraction of
    #: the runnable set): warps interleave nondeterministically but the
    #: dispatch wavefront is roughly preserved.
    phase_jitter: float = 0.1
    #: execution engine: "soa" is the vectorized struct-of-arrays phase
    #: engine (:mod:`repro.gpu.soa`); "scalar" is the per-stream
    #: reference implementation.  Results are bit-identical; "scalar"
    #: exists for the equivalence suite and debugging.
    engine: str = "soa"

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ConfigurationError("memory_bytes must be positive")
        if self.n_sms < self.n_gpcs:
            raise ConfigurationError("need at least one SM per GPC")
        if self.phase_width <= 0:
            raise ConfigurationError("phase_width must be positive")
        if self.engine not in ("soa", "scalar"):
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected 'soa' or 'scalar'"
            )


@dataclass
class GpuPhaseResult:
    """What one GPU phase produced."""

    faults_enqueued: int = 0
    faults_coalesced: int = 0
    faults_dropped: int = 0
    accesses_retired: int = 0
    streams_completed: int = 0
    flops_retired: float = 0.0
    #: retired accesses that hit remote (zero-copy) mappings and
    #: therefore crossed the interconnect instead of HBM.
    remote_accesses: int = 0


class GpuDevice:
    """Simulated GPU: schedules streams and raises far-faults."""

    def __init__(
        self,
        config: GpuDeviceConfig,
        streams: StreamTable | list[WarpStream],
        rng: SimRng,
        total_vablocks: int = 0,
    ) -> None:
        self.config = config
        self.rng = rng.fork("gpu")
        self._scheduler_cls = (
            SoaBlockScheduler if config.engine == "soa" else BlockScheduler
        )
        self.scheduler = self._scheduler_cls(
            streams,
            rng=self.rng.fork("scheduler"),
            max_active=config.max_active_streams,
            n_sms=config.n_sms,
            jitter=config.scheduler_jitter,
        )
        self.utlb = UTlbArray(
            n_gpcs=config.n_gpcs,
            sms_per_gpc=max(1, config.n_sms // config.n_gpcs),
        )
        self.fault_buffer = FaultBuffer(
            capacity=config.fault_buffer_capacity,
            ready_delay_ns=config.fault_ready_delay_ns,
        )
        #: Volta-style access counters per VABlock (Section VI-B), only
        #: populated when enabled; read by the access-counter-eviction
        #: extension.
        self.access_counters = (
            np.zeros(total_vablocks, dtype=np.int64)
            if config.track_access_counters and total_vablocks
            else None
        )
        self._pages_per_vablock: int | None = None
        self._kernel_counter = 1

    def set_vablock_geometry(self, pages_per_vablock: int) -> None:
        """Provide geometry for access-counter aggregation."""
        self._pages_per_vablock = pages_per_vablock

    # -- execution -----------------------------------------------------------
    def run_phase(
        self,
        read_ok: np.ndarray,
        clock: SimClock,
        max_streams: int | None = None,
        write_ok: np.ndarray | None = None,
        remote: np.ndarray | None = None,
    ) -> GpuPhaseResult:
        """Advance runnable streams to their next miss or completion.

        Streams are visited in dispatch order with local jitter: the
        block scheduler's wavefront is roughly preserved while faults
        from concurrent warps still interleave nondeterministically.
        ``max_streams`` overrides ``phase_width`` (used for arrivals that
        trickle in while the driver is servicing).  ``write_ok`` enables
        permission-aware access checks (read-mostly duplication);
        ``remote`` marks zero-copy pages so their traffic can be charged
        to the interconnect.
        """
        if self.config.engine == "soa":
            return self._run_phase_soa(read_ok, clock, max_streams, write_ok, remote)
        return self._run_phase_scalar(read_ok, clock, max_streams, write_ok, remote)

    def _run_phase_scalar(
        self,
        read_ok: np.ndarray,
        clock: SimClock,
        max_streams: int | None,
        write_ok: np.ndarray | None,
        remote: np.ndarray | None,
    ) -> GpuPhaseResult:
        """Reference implementation: one stream at a time."""
        result = GpuPhaseResult()
        self.scheduler.refill()
        runnable = self.scheduler.runnable()
        if not runnable:
            return result
        budget = self.config.phase_width if max_streams is None else max_streams
        if budget <= 0:
            return result
        order = self.rng.jitter_order(
            len(runnable),
            window=max(4.0, self.config.phase_jitter * self.config.max_active_streams),
        )
        if len(order) > budget:
            order = order[:budget]
        for idx in order:
            stream = runnable[int(idx)]
            if stream.state is not StreamState.RUNNABLE:
                continue
            pos_before = stream.pos
            missing = stream.advance(read_ok, write_ok=write_ok)
            self._record_accesses(stream, pos_before, stream.pos)
            retired = stream.pos - pos_before
            result.accesses_retired += retired
            if stream.flops_per_access:
                result.flops_retired += retired * stream.flops_per_access
            if remote is not None and retired:
                result.remote_accesses += int(
                    remote[stream.pages[pos_before : stream.pos]].sum()
                )
            if missing is None:
                result.streams_completed += 1
                continue
            if not self.utlb.should_raise(stream.sm_id, missing):
                result.faults_coalesced += 1
                continue
            entry = FaultEntry(
                page=missing,
                is_write=stream.next_is_write(),
                timestamp_ns=clock.now,
                gpc_id=self.utlb.gpc_of_sm(stream.sm_id),
                utlb_id=self.utlb.gpc_of_sm(stream.sm_id),
                stream_id=stream.stream_id,
                sm_id=stream.sm_id,
            )
            if self.fault_buffer.try_push(entry):
                result.faults_enqueued += 1
            else:
                # Buffer full: the hardware drops the record; the warp
                # stays stalled and will re-walk after the next replay,
                # so forget the uTLB pending state to allow the re-raise.
                self.utlb.forget(stream.sm_id, missing)
                result.faults_dropped += 1
        # Completed streams free SM slots; backfill for the next phase.
        self.scheduler.refill()
        return result

    def _run_phase_soa(
        self,
        read_ok: np.ndarray,
        clock: SimClock,
        max_streams: int | None,
        write_ok: np.ndarray | None,
        remote: np.ndarray | None,
    ) -> GpuPhaseResult:
        """Vectorized phase: batch-advance the wavefront, then emit
        faults sequentially in the same jittered order as the scalar
        loop (uTLB coalescing and buffer-capacity drops are stateful and
        order-dependent; the advances themselves are independent)."""
        result = GpuPhaseResult()
        sched = self.scheduler
        sched.refill()
        run_ids = sched.runnable_ids()
        if run_ids.size == 0:
            return result
        budget = self.config.phase_width if max_streams is None else max_streams
        if budget <= 0:
            return result
        order = self.rng.jitter_order(
            int(run_ids.size),
            window=max(4.0, self.config.phase_jitter * self.config.max_active_streams),
        )
        if order.size > budget:
            order = order[:budget]
        sel = run_ids[order]
        soa = sched.soa
        pos0, pos1, miss = advance_batch(soa, sel, read_ok, write_ok)
        retired = pos1 - pos0
        result.accesses_retired = int(retired.sum())
        nz = np.flatnonzero(soa.flops[sel])
        if nz.size:
            # accumulate in visit order, skipping zero-FLOP streams, so
            # the float sum is bitwise-identical to the scalar loop
            contrib = retired[nz] * soa.flops[sel[nz]]
            acc = 0.0
            for v in contrib.tolist():  # Python floats: same values, no
                acc += v  # per-element numpy scalar boxing
            result.flops_retired = acc
        if result.accesses_retired and (
            self.access_counters is not None or remote is not None
        ):
            touched = soa.pages_flat[span_indices(pos0, pos1)]
            if self.access_counters is not None:
                if self._pages_per_vablock is None:
                    raise ConfigurationError(
                        "access counters enabled but VABlock geometry not set"
                    )
                np.add.at(self.access_counters, touched // self._pages_per_vablock, 1)
            if remote is not None:
                result.remote_accesses = int(remote[touched].sum())
        done_mask = miss < 0
        n_done = int(done_mask.sum())
        if n_done:
            result.streams_completed = n_done
            sched.mark_done(sel[done_mask])
        if n_done < sel.size:
            f_rows = np.flatnonzero(~done_mask)
            f_ids = sel[f_rows]
            f_pages = miss[f_rows]
            sched.mark_stalled(f_ids, f_pages)
            utlb = self.utlb
            f_gpcs = (soa.sm_id[f_ids] // utlb.sms_per_gpc) % utlb.n_gpcs
            buf = self.fault_buffer
            # One vectorized pass replaces the per-entry
            # should_raise_gpc / push_fields / forget_gpc loop; drops
            # (buffer full) are resolved against the free-slot budget
            # with identical visit-order semantics.
            push_mask, n_coalesced, n_dropped = utlb.raise_batch(
                f_gpcs, f_pages, buf.free_slots
            )
            result.faults_coalesced += n_coalesced
            result.faults_dropped += n_dropped
            if n_dropped:
                buf.count_dropped(n_dropped)
            p_rows = np.flatnonzero(push_mask)
            if p_rows.size:
                p_gpcs = f_gpcs[p_rows]
                buf.push_arrays(
                    f_pages[p_rows],
                    soa.writes_flat[pos1[f_rows[p_rows]]],
                    clock.now,
                    p_gpcs,
                    p_gpcs,
                    soa.stream_ids[f_ids[p_rows]],
                    soa.sm_id[f_ids[p_rows]],
                )
                result.faults_enqueued += int(p_rows.size)
        sched.refill()
        return result

    def _record_accesses(self, stream: WarpStream, start: int, stop: int) -> None:
        if self.access_counters is None or stop <= start:
            return
        if self._pages_per_vablock is None:
            raise ConfigurationError(
                "access counters enabled but VABlock geometry not set"
            )
        touched = stream.pages[start:stop]
        np.add.at(self.access_counters, touched // self._pages_per_vablock, 1)

    def load_kernel(self, streams: StreamTable | list[WarpStream]) -> None:
        """Launch a new kernel: fresh scheduler, persistent device state.

        The fault buffer, uTLB filters, and access counters live across
        kernel launches (they are hardware); only the grid changes.  The
        previous kernel must have completed.
        """
        if not self.scheduler.all_done():
            raise ConfigurationError("loading a kernel while one is still running")
        self.scheduler = self._scheduler_cls(
            streams,
            rng=self.rng.fork(f"scheduler-k{self._kernel_counter}"),
            max_active=self.config.max_active_streams,
            n_sms=self.config.n_sms,
            jitter=self.config.scheduler_jitter,
        )
        self._kernel_counter += 1

    def deliver_replay(self) -> int:
        """A replay notification arrives: clear uTLB filters, wake warps."""
        self.utlb.on_replay()
        return self.scheduler.wake_all_stalled()

    def kernel_finished(self) -> bool:
        return self.scheduler.all_done()

    def has_stalled_streams(self) -> bool:
        return self.scheduler.has_stalled()
