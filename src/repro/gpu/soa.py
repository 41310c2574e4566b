"""Struct-of-arrays (SoA) phase engine: the vectorized GPU hot path.

The scalar execution model (:class:`~repro.gpu.warp.WarpStream` +
:class:`~repro.gpu.scheduler.BlockScheduler`) pays a Python call and
several small-array numpy dispatches per stream per phase - ~2M calls on
an oversubscribed SGEMM run.  This module holds the *same* state in flat
numpy arrays - one concatenated page/write array for all streams, with
per-stream cursors into it - and advances an entire phase's wavefront
with batched operations.

Equivalence with the scalar engine is exact, not statistical:

* within one phase the selected streams are independent (advancing one
  stream reads only the shared residency masks, which the phase does not
  mutate), so batch-advancing them and then emitting faults sequentially
  in the original jittered order produces the identical fault sequence,
* the scheduler consumes the identical RNG draws (one ``jitter_order``
  at construction, nothing else), dispatches in the same order, and
  assigns the same round-robin SM ids,
* uTLB coalescing and fault-buffer capacity drops are applied in the
  emission loop exactly as the scalar loop interleaves them.

``tests/integration/test_engine_equivalence.py`` pins this down against
the scalar reference for every workload family x replay policy x
prefetch setting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.table import StreamTable
from repro.gpu.warp import WarpStream
from repro.sim.rng import SimRng

# int8 state codes (mirrors repro.gpu.warp.StreamState)
PENDING = 0
RUNNABLE = 1
STALLED = 2
DONE = 3

#: first scan window per unresolved stream; grows geometrically so short
#: hops stay cheap while long resident runs advance at full numpy speed.
START_WINDOW = 64
MAX_WINDOW = 8192  # lint: allow(units-magic-literal) scan-window entries, not bytes


class SoaStreams:
    """All warp-stream state as flat arrays.

    The page/write sequences are the kernel's
    :class:`~repro.gpu.table.StreamTable` columns, adopted without a
    copy (``pages_flat`` *is* ``table.pages``, so a pickled driver holds
    them once); ``start``/``end`` delimit each stream's span and ``pos``
    is the absolute cursor of its next access.  Streams without a
    writes mask have an all-False span, which makes the permission
    check ``where(writes, write_ok, read_ok)`` degenerate to ``read_ok``
    - byte-identical to the scalar ``check_writes`` guard.
    """

    def __init__(self, table: StreamTable) -> None:
        n = table.n
        self.n = n
        self.start = table.offsets[:-1]
        self.end = table.offsets[1:]
        self.pages_flat = table.pages
        self.writes_flat = table.writes
        self.pos = self.start.copy()
        self.state = np.full(n, PENDING, dtype=np.int8)
        self.stalled_on = np.full(n, -1, dtype=np.int64)
        self.sm_id = np.full(n, -1, dtype=np.int64)
        self.stream_ids = table.stream_ids
        self.flops = table.flops_per_access
        self.faults_raised = np.zeros(n, dtype=np.int64)
        #: reusable per-window scan scratch (see :func:`advance_batch`);
        #: keyed by window width, rows grown to the high-water mark.
        self._scratch: dict[int, dict[str, np.ndarray]] = {}

    def scan_scratch(self, k: int, width: int) -> dict[str, np.ndarray]:
        """Preallocated ``k x width`` scan buffers for one gallop round.

        The hot loop in :func:`advance_batch` previously allocated five
        fresh ``k x W`` arrays per round; reusing high-water-sized
        buffers removes that churn (the returned views alias scratch -
        valid until the next call with the same ``width``).
        """
        bufs = self._scratch.get(width)
        if bufs is None or bufs["idx"].shape[0] < k:
            bufs = {
                "idx": np.empty((k, width), dtype=np.int64),
                "pg": np.empty((k, width), dtype=np.int64),
                "ok": np.empty((k, width), dtype=bool),
                "wr": np.empty((k, width), dtype=bool),
                "wok": np.empty((k, width), dtype=bool),
                "valid": np.empty((k, width), dtype=bool),
                "arange": np.arange(width, dtype=np.int64),
            }
            self._scratch[width] = bufs
        return bufs


def advance_batch(
    soa: SoaStreams,
    sel: np.ndarray,
    read_ok: np.ndarray,
    write_ok: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the selected streams to their next miss or completion.

    Returns ``(pos0, pos1, miss)`` aligned with ``sel``: the absolute
    cursor before and after, and the missing page per stream (``-1`` for
    streams that ran to completion).  ``soa.pos`` is updated in place;
    state transitions are the caller's job (they depend on emission).

    The scan gallops: each round gathers a ``k x W`` window of upcoming
    accesses for the still-unresolved streams, tests the access masks in
    one shot, and finds each stream's first miss with a single
    ``argmin`` + gather (no separate ``.all()`` pass).  ``W`` grows
    geometrically so streams that stall quickly never pay for a wide
    window while long resident runs sweep at full numpy speed.
    """
    k = int(sel.size)
    pos0 = soa.pos[sel].copy()
    cur = pos0.copy()
    end = soa.end[sel]
    miss = np.full(k, -1, dtype=np.int64)
    pages = soa.pages_flat
    writes = soa.writes_flat
    check_writes = write_ok is not None and writes.size > 0
    live = np.flatnonzero(cur < end)
    width = START_WINDOW
    while live.size:
        n_live = int(live.size)
        c = cur[live]
        e = end[live]
        bufs = soa.scan_scratch(n_live, width)
        idx = bufs["idx"][:n_live]
        np.add(c[:, None], bufs["arange"], out=idx)
        valid = bufs["valid"][:n_live]
        np.less(idx, e[:, None], out=valid)
        # mode="clip" clamps to pages.size - 1, replacing the explicit
        # np.minimum pass (idx is always >= 0)
        pg = bufs["pg"][:n_live]
        np.take(pages, idx, out=pg, mode="clip")
        ok = bufs["ok"][:n_live]
        np.take(read_ok, pg, out=ok)
        if check_writes:
            wr = bufs["wr"][:n_live]
            np.take(writes, idx, out=wr, mode="clip")
            wok = bufs["wok"][:n_live]
            np.take(write_ok, pg, out=wok)
            np.copyto(ok, wok, where=wr)
        np.logical_not(valid, out=valid)
        np.logical_or(ok, valid, out=ok)
        first = ok.argmin(axis=1)
        missed = ~ok[np.arange(n_live), first]
        if missed.any():
            rows = live[missed]
            mpos = c[missed] + first[missed]
            cur[rows] = mpos
            miss[rows] = pages[mpos]
        swept = ~missed
        if swept.any():
            rows = live[swept]
            new_c = np.minimum(c[swept] + width, e[swept])
            cur[rows] = new_c
            live = rows[new_c < e[swept]]
        else:
            live = live[:0]
        if width < MAX_WINDOW:
            width = min(width * 4, MAX_WINDOW)
    soa.pos[sel] = cur
    return pos0, cur, miss


def span_indices(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, stop)`` for each (start, stop) pair.

    Used to gather every retired access's flat index in one shot (for
    access counters and remote-traffic accounting) without a Python loop
    over streams.
    """
    lens = stops - starts
    nz = lens > 0
    if not nz.any():
        return np.empty(0, dtype=np.int64)
    s = starts[nz]
    ls = lens[nz]
    cs = np.cumsum(ls)
    offsets = np.concatenate((np.zeros(1, dtype=np.int64), cs[:-1]))
    return np.arange(cs[-1], dtype=np.int64) + np.repeat(s - offsets, ls)


class SoaBlockScheduler:
    """Array-backed block scheduler, RNG- and order-identical to the
    scalar :class:`~repro.gpu.scheduler.BlockScheduler`.

    Instead of rebuilding the active/runnable lists with O(active) list
    comprehensions every phase, it maintains the runnable set
    incrementally: the device reports completions and stalls
    (:meth:`mark_done` / :meth:`mark_stalled`), and the scheduler only
    compacts its active array when something actually finished.
    """

    def __init__(
        self,
        streams: StreamTable | Sequence[WarpStream],
        rng: SimRng,
        max_active: int = 2048,
        n_sms: int = 80,
        jitter: float = 0.08,
    ) -> None:
        if max_active <= 0:
            raise SimulationError(f"max_active must be positive, got {max_active}")
        if n_sms <= 0:
            raise SimulationError(f"n_sms must be positive, got {n_sms}")
        if not isinstance(streams, StreamTable):
            streams = StreamTable.from_streams(streams)
        self.table = streams
        self.soa = SoaStreams(streams)
        self.max_active = max_active
        self.n_sms = n_sms
        # identical draw to the scalar scheduler: same window, same rng
        self._dispatch_order = rng.jitter_order(
            streams.n, window=max(8.0, jitter * 4 * max_active)
        )
        self._next_dispatch = 0
        self._active = np.empty(0, dtype=np.int64)
        self._dispatch_counter = 0
        self._n_done_active = 0  # DONE entries awaiting compaction
        self._n_stalled = 0
        self._n_done_total = 0

    @property
    def streams(self) -> list[WarpStream]:
        """The kernel's streams as (stateless) views of the table."""
        return self.table.streams()

    # -- dispatch -----------------------------------------------------------
    def refill(self) -> int:
        """Dispatch pending streams up to the occupancy limit."""
        soa = self.soa
        if self._n_done_active:
            self._active = self._active[soa.state[self._active] != DONE]
            self._n_done_active = 0
        dispatched = 0
        need = self.max_active - self._active.size
        order = self._dispatch_order
        while need > 0 and self._next_dispatch < order.size:
            cand = order[self._next_dispatch : self._next_dispatch + need]
            self._next_dispatch += cand.size
            pending = cand[soa.state[cand] == PENDING]
            if pending.size:
                soa.state[pending] = RUNNABLE
                soa.sm_id[pending] = (
                    self._dispatch_counter + np.arange(pending.size)
                ) % self.n_sms
                self._dispatch_counter += int(pending.size)
                self._active = np.concatenate((self._active, pending))
                dispatched += int(pending.size)
                need -= int(pending.size)
        return dispatched

    # -- device feedback ----------------------------------------------------
    def mark_done(self, ids: np.ndarray) -> None:
        soa = self.soa
        soa.state[ids] = DONE
        soa.stalled_on[ids] = -1
        self._n_done_active += int(ids.size)
        self._n_done_total += int(ids.size)

    def mark_stalled(self, ids: np.ndarray, pages: np.ndarray) -> None:
        soa = self.soa
        soa.state[ids] = STALLED
        soa.stalled_on[ids] = pages
        soa.faults_raised[ids] += 1
        self._n_stalled += int(ids.size)

    # -- queries ------------------------------------------------------------
    def runnable_ids(self) -> np.ndarray:
        """Active streams able to advance, in dispatch order.

        Fast path: when nothing is stalled or finished the active array
        *is* the runnable set - no scan at all.
        """
        if self._n_stalled == 0 and self._n_done_active == 0:
            return self._active
        act = self._active
        return act[self.soa.state[act] == RUNNABLE]

    def has_stalled(self) -> bool:
        return self._n_stalled > 0

    def all_done(self) -> bool:
        return (
            self._next_dispatch >= self._dispatch_order.size
            and self._n_done_total == self.table.n
        )

    def wake_all_stalled(self) -> int:
        """Broadcast replay: every stalled warp retries (Section III-E)."""
        if self._n_stalled == 0:
            return 0
        soa = self.soa
        act = self._active
        ids = act[soa.state[act] == STALLED]
        soa.state[ids] = RUNNABLE
        soa.stalled_on[ids] = -1
        self._n_stalled = 0
        return int(ids.size)

    def progress(self) -> tuple[int, int]:
        """(streams done, total streams) - for progress reporting."""
        return self._n_done_total, self.table.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        done, total = self.progress()
        active = self._active.size - self._n_done_active
        return f"SoaBlockScheduler(done={done}/{total}, active={active})"
