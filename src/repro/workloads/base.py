"""Workload abstraction.

A workload knows how to (a) allocate its managed ranges into an
:class:`~repro.mem.address_space.AddressSpace` and (b) emit the page
accesses the GPU will execute.  Both happen in :meth:`Workload.build`,
which returns a :class:`WorkloadBuild`: the managed ranges plus one
:class:`KernelPhase` per kernel launch, each carrying a columnar
:class:`~repro.gpu.table.StreamTable` (all of the kernel's warp streams
as flat ``offsets``/``pages``/``writes`` arrays).

How a workload emits its table:

* when the whole pattern is an index computation, build the columns
  directly - e.g. ``StreamTable(offsets=np.arange(0, n + 1) * k,
  pages=...)`` for fixed-length streams, or a ragged gather with
  :func:`~repro.gpu.soa.span_indices` (see :mod:`repro.workloads.sgemm`);
* when streams come out of a loop (data-dependent rng draws, shuffled
  visit orders), ``add`` each stream's arrays to a
  :class:`~repro.gpu.table.StreamTableBuilder` and ``finish`` it once;
* single-kernel workloads return ``WorkloadBuild.single(table, ranges)``,
  multi-kernel ones ``WorkloadBuild(phases, ranges)``.

Conventions:

* element indices are converted to *global page indices* via the range's
  ``start_page`` plus byte arithmetic - workloads never hand-compute
  raw addresses;
* a stream's writes mask marks stores (dirty pages must migrate back on
  eviction, Section V-A1); read-only streams carry none (their
  ``has_writes`` flag is False and their view has ``writes=None``);
* workloads are deterministic given the forked rng the builder receives;
* :class:`~repro.gpu.warp.WarpStream` objects (``build.streams``) are
  read-only views derived from the tables, for analysis and the scalar
  engine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.table import StreamTable
from repro.gpu.warp import WarpStream
from repro.mem.address_space import AddressSpace, ManagedRange
from repro.sim.rng import SimRng
from repro.units import human_size


@dataclass
class HostAccess:
    """CPU-side touches of managed data between kernel launches.

    Real UVM ports hit this constantly: the host inspects results,
    finalizes a reduction, or fills boundaries between kernels; each
    touch of a GPU-resident page takes a *CPU* page fault and migrates
    the page back, so the next kernel re-faults it - the ping-pong that
    keeps iterative solvers' fault counts high.  ``writes`` marks host
    stores (the GPU copy is stale either way; writes matter for
    host-side dirty tracking symmetry).
    """

    pages: np.ndarray
    writes: bool = False


class KernelPhase:
    """One kernel launch, optionally preceded by host-side accesses.

    ``streams`` is the kernel's :class:`StreamTable`; a sequence of
    :class:`WarpStream` objects is packed into one.
    """

    __slots__ = ("table", "host_before")

    def __init__(
        self,
        streams: StreamTable | Sequence[WarpStream],
        host_before: Optional[HostAccess] = None,
    ) -> None:
        if not isinstance(streams, StreamTable):
            streams = StreamTable.from_streams(streams)
        self.table = streams
        self.host_before = host_before

    @property
    def streams(self) -> list[WarpStream]:
        """The kernel's streams as views of :attr:`table`."""
        return self.table.streams()


class WorkloadBuild:
    """The product of building a workload against an address space: the
    kernel launches in order (a single-kernel workload has one) and the
    named managed ranges."""

    __slots__ = ("phases", "ranges")

    def __init__(
        self, phases: list[KernelPhase], ranges: dict[str, ManagedRange]
    ) -> None:
        self.phases = phases
        self.ranges = ranges

    @classmethod
    def single(
        cls, table: StreamTable, ranges: dict[str, ManagedRange]
    ) -> "WorkloadBuild":
        """A one-kernel build."""
        return cls([KernelPhase(table)], ranges)

    @classmethod
    def from_phases(
        cls, phases: list[KernelPhase], ranges: dict[str, ManagedRange]
    ) -> "WorkloadBuild":
        """Same as the constructor (kept for existing callers)."""
        return cls(phases, ranges)

    @property
    def streams(self) -> list[WarpStream]:
        """Every kernel's streams, in launch order, as table views."""
        return [s for phase in self.phases for s in phase.streams]

    @property
    def total_accesses(self) -> int:
        return sum(phase.table.pages.size for phase in self.phases)


class Workload(abc.ABC):
    """Base class for page-level workload generators."""

    #: registry key and display name (paper Table I row label).
    name: str = "workload"

    @abc.abstractmethod
    def required_bytes(self) -> int:
        """Total managed bytes the workload will allocate."""

    @abc.abstractmethod
    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        """Allocate ranges and emit warp streams."""

    # -- helpers for subclasses ---------------------------------------------------
    @staticmethod
    def _element_pages(
        rng_range: ManagedRange,
        element_indices: np.ndarray,
        element_bytes: int,
        page_size: int,
    ) -> np.ndarray:
        """Global page of each element index (any shape), range-checked."""
        if element_bytes <= 0:
            raise ConfigurationError("element_bytes must be positive")
        element_indices = np.asarray(element_indices, dtype=np.int64)
        pages = rng_range.start_page + (element_indices * element_bytes) // page_size
        if pages.size and (
            pages.min() < rng_range.start_page or pages.max() >= rng_range.end_page_aligned
        ):
            raise ConfigurationError(
                f"element accesses escape range {rng_range.name!r}"
            )
        return pages

    @staticmethod
    def pages_of_elements(
        rng_range: ManagedRange,
        element_indices: np.ndarray,
        element_bytes: int,
        page_size: int,
    ) -> np.ndarray:
        """Global pages touched by element indices (duplicates preserved).

        Consecutive accesses to the same page are collapsed to a single
        touch - a warp re-touching the page it just used never re-walks
        the TLB, and the driver could never observe the repetition.
        """
        return _dedup_consecutive(
            Workload._element_pages(rng_range, element_indices, element_bytes, page_size)
        )

    @staticmethod
    def pages_of_element_rows(
        rng_range: ManagedRange,
        element_rows: np.ndarray,
        element_bytes: int,
        page_size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`pages_of_elements` applied to every row of a 2-D array.

        Returns ``(pages, lengths)``: the rows' deduplicated pages
        concatenated in row order, and each row's page count.
        """
        pages = Workload._element_pages(rng_range, element_rows, element_bytes, page_size)
        if pages.ndim != 2 or pages.shape[1] == 0:
            raise ConfigurationError("element_rows must be a non-empty 2-D array")
        keep = np.empty(pages.shape, dtype=bool)
        keep[:, 0] = True
        np.not_equal(pages[:, 1:], pages[:, :-1], out=keep[:, 1:])
        return pages[keep], keep.sum(axis=1)

    @staticmethod
    def make_stream(
        stream_id: int,
        pages: np.ndarray,
        writes: Optional[np.ndarray] = None,
        flops: float = 0.0,
    ) -> WarpStream:
        """Create a stream; ``flops`` is the stream's total compute work."""
        per_access = flops / max(len(pages), 1) if flops else 0.0
        return WarpStream(stream_id, pages, writes, flops_per_access=per_access)

    def describe(self) -> str:
        return f"{self.name} ({human_size(self.required_bytes())} managed)"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def _dedup_consecutive(pages: np.ndarray) -> np.ndarray:
    """Collapse runs of identical consecutive page touches."""
    if pages.size <= 1:
        return pages
    keep = np.empty(pages.shape, dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]


def chunk_indices(n: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``[start, stop)`` chunks of size ``chunk``."""
    if chunk <= 0:
        raise ConfigurationError("chunk must be positive")
    return [(i, min(i + chunk, n)) for i in range(0, n, chunk)]
