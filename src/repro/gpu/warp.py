"""Warp streams: the unit of GPU execution the simulator advances.

A :class:`WarpStream` abstracts a warp (or a coalesced group of warps,
e.g. a thread block's memory-access footprint) as an ordered sequence of
page accesses.  This is the right granularity for UVM analysis because
the driver only ever observes *page*-level faults; intra-page addresses
never matter (Section IV-B analyzes workloads entirely at page
granularity).

Far-fault semantics follow Section III-E: replayable faults "do not block
the faulting GPU compute unit, which can continue running non-faulting
warps until a replay command is received".  Accordingly a stream that
misses becomes STALLED and is only retried when the driver issues a
replay notification; other streams keep running.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import SimulationError


class StreamState(enum.Enum):
    """Lifecycle of a warp stream."""

    PENDING = "pending"  # not yet scheduled onto an SM
    RUNNABLE = "runnable"  # scheduled, can advance
    STALLED = "stalled"  # waiting on a far-fault replay
    DONE = "done"  # all accesses retired


class WarpStream:
    """An ordered page-access sequence with stall/replay state."""

    __slots__ = (
        "stream_id",
        "pages",
        "writes",
        "pos",
        "state",
        "stalled_on",
        "sm_id",
        "faults_raised",
        "accesses_retired",
        "flops_per_access",
    )

    def __init__(
        self,
        stream_id: int,
        pages: np.ndarray,
        writes: Optional[np.ndarray] = None,
        flops_per_access: float = 0.0,
    ) -> None:
        self.stream_id = stream_id
        self.pages = np.ascontiguousarray(pages, dtype=np.int64)
        if self.pages.ndim != 1:
            raise SimulationError("stream pages must be a 1-D array")
        if writes is not None:
            writes = np.ascontiguousarray(writes, dtype=bool)
            if writes.shape != self.pages.shape:
                raise SimulationError("writes mask must match pages shape")
        self.writes = writes
        self.pos = 0
        self.state = StreamState.PENDING
        self.stalled_on: Optional[int] = None
        self.sm_id = -1  # assigned by the scheduler at dispatch
        self.faults_raised = 0
        self.accesses_retired = 0
        #: compute attributed per retired access (e.g. a GEMM block's
        #: FLOPs spread over its page touches); powers Fig. 10's
        #: compute-rate axis.
        self.flops_per_access = float(flops_per_access)

    def __len__(self) -> int:
        return len(self.pages)

    def __eq__(self, other: object) -> bool:
        """Same access sequence: id, pages, writes mask, FLOPs per access.

        Streams are views of a :class:`~repro.gpu.table.StreamTable`, so
        identity says nothing; execution state (cursor, stall) is not
        compared.
        """
        if not isinstance(other, WarpStream):
            return NotImplemented
        if (self.writes is None) != (other.writes is None):
            return False
        return (
            self.stream_id == other.stream_id
            and self.flops_per_access == other.flops_per_access
            and np.array_equal(self.pages, other.pages)
            and (self.writes is None or np.array_equal(self.writes, other.writes))
        )

    __hash__ = None  # type: ignore[assignment]  # mutable cursor state

    @property
    def remaining(self) -> int:
        return len(self.pages) - self.pos

    def next_page(self) -> Optional[int]:
        """The page of the next access, or None when retired."""
        if self.pos >= len(self.pages):
            return None
        return int(self.pages[self.pos])

    def next_is_write(self) -> bool:
        if self.writes is None:
            return False
        return bool(self.writes[self.pos])

    def advance(
        self,
        read_ok: np.ndarray,
        write_ok: Optional[np.ndarray] = None,
        scan_chunk: int = 8192,  # lint: allow(units-magic-literal) accesses per chunk
    ) -> Optional[int]:
        """Retire accesses until the first miss; return the missing page.

        Scans the access sequence from the current position, retiring
        every access whose page is accessible (``read_ok`` for loads,
        ``write_ok`` for stores - a store to a resident-but-read-only
        page is a *permission-upgrade* miss, the read-duplication
        collapse path).  On a miss the stream stalls and the faulting
        page is returned; on completion the stream is DONE and ``None``
        is returned.

        ``write_ok`` defaults to ``read_ok`` (uniform permissions, the
        stock migration behaviour).  Scanning happens in vectorized
        chunks so long reuse-heavy streams advance at numpy speed.
        """
        if self.state not in (StreamState.RUNNABLE, StreamState.PENDING):
            raise SimulationError(
                f"advancing stream {self.stream_id} in state {self.state}"
            )
        self.state = StreamState.RUNNABLE
        check_writes = write_ok is not None and self.writes is not None
        n = len(self.pages)
        while self.pos < n:
            stop = min(self.pos + scan_chunk, n)
            window = self.pages[self.pos : stop]
            if check_writes:
                w = self.writes[self.pos : stop]
                hit = np.where(w, write_ok[window], read_ok[window])
            else:
                hit = read_ok[window]
            # single scan: argmin finds the first False; if that element
            # is True the whole window hit (no separate .all() pass)
            first_miss = int(hit.argmin())
            if hit[first_miss]:
                retired = stop - self.pos
                self.accesses_retired += retired
                self.pos = stop
                continue
            self.accesses_retired += first_miss
            self.pos += first_miss
            page = int(self.pages[self.pos])
            self.state = StreamState.STALLED
            self.stalled_on = page
            self.faults_raised += 1
            return page
        self.state = StreamState.DONE
        self.stalled_on = None
        return None

    def wake(self) -> None:
        """Replay notification observed: the stalled access will retry.

        The retried access may fault again if its page is still not
        resident (the paper's duplicate-fault mechanism).
        """
        if self.state is StreamState.STALLED:
            self.state = StreamState.RUNNABLE
            self.stalled_on = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WarpStream(id={self.stream_id}, {self.pos}/{len(self.pages)},"
            f" {self.state.value})"
        )
