"""Columnar warp-stream IR: one kernel's streams as flat arrays.

A :class:`StreamTable` holds every stream of one kernel launch the way
the SoA phase engine consumes it: all page accesses concatenated into
one ``pages`` array, stream ``i`` spanning
``pages[offsets[i]:offsets[i + 1]]``.  Workloads emit tables directly
(vectorised where the access pattern allows, through
:class:`StreamTableBuilder` where it is drawn stream by stream), the SoA
engine adopts the arrays without copying, and :class:`WarpStream`
objects - for the scalar engine and for analysis - are derived as views.

Tables are immutable: the arrays are flagged read-only at construction,
so one table can be shared by a warm-build memo, every driver built
from it, and a checkpoint, and any attempt to mutate it raises.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.gpu.warp import WarpStream


def _frozen(arr, dtype) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    if out.ndim != 1:
        raise SimulationError("stream table columns must be 1-D arrays")
    out.flags.writeable = False
    return out


class StreamTable:
    """All streams of one kernel as read-only columns.

    * ``offsets`` (int64, ``n + 1``): stream ``i``'s accesses are
      ``pages[offsets[i]:offsets[i + 1]]``;
    * ``pages`` (int64) and ``writes`` (bool): the concatenated accesses
      and their store flags (all False for read-only streams);
    * ``has_writes`` (bool, ``n``): whether stream ``i`` carries a
      writes mask at all - its :class:`WarpStream` view has
      ``writes=None`` otherwise;
    * ``flops_per_access`` (float64, ``n``) and ``stream_ids`` (int64,
      ``n``).

    Omitted columns default to: every stream writes-masked iff
    ``writes`` is given, zero FLOPs, ids ``0..n-1``.
    """

    __slots__ = (
        "offsets",
        "pages",
        "writes",
        "has_writes",
        "flops_per_access",
        "stream_ids",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        pages: np.ndarray,
        writes: Optional[np.ndarray] = None,
        has_writes: Optional[np.ndarray] = None,
        flops_per_access: Optional[np.ndarray] = None,
        stream_ids: Optional[np.ndarray] = None,
    ) -> None:
        offsets = _frozen(offsets, np.int64)
        n = offsets.size - 1
        if n < 0 or offsets[0] != 0 or np.any(np.diff(offsets) < 0):
            raise SimulationError("offsets must start at 0 and be non-decreasing")
        pages = _frozen(pages, np.int64)
        if offsets[-1] != pages.size:
            raise SimulationError("offsets must end at the number of accesses")
        self.offsets = offsets
        self.pages = pages
        self.writes = _frozen(
            np.zeros(pages.size, dtype=bool) if writes is None else writes, bool
        )
        self.has_writes = _frozen(
            np.full(n, writes is not None) if has_writes is None else has_writes, bool
        )
        self.flops_per_access = _frozen(
            np.zeros(n) if flops_per_access is None else flops_per_access, np.float64
        )
        self.stream_ids = _frozen(
            np.arange(n) if stream_ids is None else stream_ids, np.int64
        )
        if self.writes.size != pages.size:
            raise SimulationError("writes mask must match pages shape")
        for col in (self.has_writes, self.flops_per_access, self.stream_ids):
            if col.size != n:
                raise SimulationError("per-stream columns must have one entry per stream")

    def __reduce__(self):
        # rebuild through __init__ so an unpickled table is read-only
        # again (array flags do not survive pickling)
        return (
            StreamTable,
            (
                self.offsets,
                self.pages,
                self.writes,
                self.has_writes,
                self.flops_per_access,
                self.stream_ids,
            ),
        )

    def __deepcopy__(self, memo) -> "StreamTable":
        # immutable: a deep copy may share it (the warm-build memo hands
        # out copies of a build that all share its tables)
        return self

    @classmethod
    def from_streams(cls, streams: Sequence[WarpStream]) -> "StreamTable":
        """Concatenate stream objects into a table (copies their arrays)."""
        builder = StreamTableBuilder()
        for s in streams:
            builder.add(s.stream_id, s.pages, s.writes, s.flops_per_access)
        return builder.finish()

    @property
    def n(self) -> int:
        """Number of streams."""
        return self.offsets.size - 1

    def stream(self, i: int) -> WarpStream:
        """Stream ``i`` as a :class:`WarpStream` viewing the table."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return WarpStream(
            int(self.stream_ids[i]),
            self.pages[lo:hi],
            self.writes[lo:hi] if self.has_writes[i] else None,
            flops_per_access=float(self.flops_per_access[i]),
        )

    def streams(self) -> list[WarpStream]:
        """Fresh :class:`WarpStream` views of every stream, in order."""
        return [self.stream(i) for i in range(self.n)]


class StreamTableBuilder:
    """Accumulates streams one at a time; concatenates once in
    :meth:`finish`.  For generators whose streams come out of a loop
    (data-dependent draws, shuffled visit orders)."""

    def __init__(self) -> None:
        self._ids: list[int] = []
        self._pages: list[np.ndarray] = []
        self._writes: list[np.ndarray] = []
        self._has_writes: list[bool] = []
        self._flops: list[float] = []

    def add(
        self,
        stream_id: int,
        pages: np.ndarray,
        writes: Optional[np.ndarray] = None,
        flops_per_access: float = 0.0,
    ) -> None:
        pages = np.asarray(pages, dtype=np.int64)
        if pages.ndim != 1:
            raise SimulationError("stream pages must be a 1-D array")
        if writes is not None and np.shape(writes) != pages.shape:
            raise SimulationError("writes mask must match pages shape")
        self._ids.append(stream_id)
        self._pages.append(pages)
        self._writes.append(np.zeros(pages.size, dtype=bool) if writes is None else writes)
        self._has_writes.append(writes is not None)
        self._flops.append(float(flops_per_access))

    def finish(self) -> StreamTable:
        lengths = np.fromiter((p.size for p in self._pages), np.int64, len(self._pages))
        offsets = np.zeros(lengths.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        if not self._pages:
            return StreamTable(offsets, np.empty(0, dtype=np.int64))
        return StreamTable(
            offsets,
            np.concatenate(self._pages),
            np.concatenate(self._writes).astype(bool, copy=False),
            has_writes=np.array(self._has_writes, dtype=bool),
            flops_per_access=np.array(self._flops, dtype=np.float64),
            stream_ids=np.array(self._ids, dtype=np.int64),
        )
