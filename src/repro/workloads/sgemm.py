"""Tiled SGEMM (cuBLAS-style) page-access workload.

``C = A @ B`` with three managed ranges of ``n*n`` float32 each
(Table II: "problem size is n for matrices A, B, C where size = n^2").
The access pattern is a classic tiled GEMM: thread block (bi, bj) walks
the K dimension in ``tile`` steps, touching an A row-band tile and a
B column-band tile per step and writing its C tile at the end.

The properties the paper leans on are reproduced:

* *heavy data reuse* invisible to the driver (Section IV-B: the pattern
  "does not show the heavy data reuse taking place on the GPU") - A
  row-bands are shared by every block in a grid row and B column-bands
  by every grid column, so resident data is re-touched without faulting,
* under oversubscription the LRU never sees those re-touches, evicting
  hot bands that immediately re-fault (Fig. 8's evict-then-refault), and
  the eviction count scales as Table II shows,
* FLOP count ``2*n^3`` backs the Fig. 10 compute-rate axis.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.soa import span_indices
from repro.gpu.table import StreamTable
from repro.mem.address_space import AddressSpace
from repro.mem.address_space import ManagedRange
from repro.sim.rng import SimRng
from repro.workloads.base import Workload, WorkloadBuild

_F32 = 4  # bytes per element


class SgemmWorkload(Workload):
    """Tiled dense matrix multiply over managed A, B, C."""

    name = "sgemm"

    def __init__(self, n: int = 2048, tile: int = 128) -> None:
        if n <= 0 or tile <= 0:
            raise ConfigurationError("n and tile must be positive")
        if n % tile:
            raise ConfigurationError(f"tile {tile} must divide n {n}")
        self.n = n
        self.tile = tile

    def required_bytes(self) -> int:
        return 3 * self.n * self.n * _F32

    @property
    def flops(self) -> int:
        """FLOPs of the multiply (Fig. 10's compute-rate numerator)."""
        return 2 * self.n**3

    def _band_pages(
        self, rng_range: ManagedRange, page_size: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pages of every ``tile x tile`` band of one matrix.

        Band ``x * grid + y`` covers rows ``[x*tile, (x+1)*tile)`` and
        columns ``[y*tile, (y+1)*tile)``.  A tile row segment spans at
        most a few pages; sampling its first and last element and
        deduplicating consecutive touches captures every page touched.
        Returns ``(pages, lengths)`` as :meth:`pages_of_element_rows`.
        """
        n, tile = self.n, self.tile
        grid = n // tile
        rows = np.arange(n, dtype=np.int64).reshape(grid, 1, tile)
        col_lo = np.arange(0, n, tile, dtype=np.int64).reshape(1, grid, 1)
        first = rows * n + col_lo
        elems = np.empty((grid, grid, 2 * tile), dtype=np.int64)
        elems[..., 0::2] = first
        elems[..., 1::2] = first + (tile - 1)
        return self.pages_of_element_rows(
            rng_range, elems.reshape(grid * grid, 2 * tile), _F32, page_size
        )

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        n, tile = self.n, self.tile
        nbytes = n * n * _F32
        a = space.malloc_managed(nbytes, name="A")
        b = space.malloc_managed(nbytes, name="B")
        c = space.malloc_managed(nbytes, name="C")
        page_size = space.page_size
        grid = n // tile

        # every band once, then each block (bi, bj) - in row-major
        # block order - gathers its stream A(bi,0) B(0,bj) ... A(bi,g-1)
        # B(g-1,bj) C(bi,bj) out of them
        bands = [self._band_pages(m, page_size) for m in (a, b, c)]
        src = np.concatenate([pages for pages, _ in bands])
        band_len = np.concatenate([lengths for _, lengths in bands])
        band_start = np.zeros_like(band_len)
        np.cumsum(band_len[:-1], out=band_start[1:])
        # segment (bi, bj, s): s = 2k -> A(bi, k), 2k+1 -> B(k, bj), 2g -> C
        seg_start = np.empty((grid, grid, 2 * grid + 1), dtype=np.int64)
        seg_len = np.empty_like(seg_start)
        for seg, band in ((seg_start, band_start), (seg_len, band_len)):
            band_a, band_b, band_c = band.reshape(3, grid, grid)
            seg[:, :, 0:-1:2] = band_a[:, None, :]
            seg[:, :, 1:-1:2] = band_b.T[None, :, :]
            seg[:, :, -1] = band_c
        lengths = seg_len.sum(axis=2).ravel()
        offsets = np.zeros(grid * grid + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        pages = np.empty(int(offsets[-1]), dtype=np.int64)
        for bi in range(grid):  # one grid row at a time bounds the index array
            starts = seg_start[bi].ravel()
            idx = span_indices(starts, starts + seg_len[bi].ravel())
            np.take(src, idx, out=pages[offsets[bi * grid] : offsets[(bi + 1) * grid]])
        writes = np.zeros(pages.size, dtype=bool)  # each block writes its C tile
        writes[span_indices(offsets[1:] - seg_len[:, :, -1].ravel(), offsets[1:])] = True
        block_flops = 2 * tile * tile * n  # tile^2 outputs, n-MACs each
        table = StreamTable(offsets, pages, writes, flops_per_access=block_flops / lengths)
        return WorkloadBuild.single(table, {"A": a, "B": b, "C": c})
