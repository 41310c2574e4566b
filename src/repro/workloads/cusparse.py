"""cuSparse workload: dense-to-CSR conversion followed by SpMM.

Section III-B: "a cuSparse kernel that converts a dense matrix to a
sparse matrix and performs a sparse matrix multiplication."  Two phases
with very different page behaviour, which is what makes its Fig. 7 panel
interesting:

1. **Conversion** (``cusparseSdense2csr``-style): a sequential sweep of
   the dense matrix, writing the CSR value/column arrays sequentially -
   dense, prefetcher-friendly.
2. **SpMM** (``C = S @ B``): per sparse row, a sequential read of that
   row's CSR segment plus *scattered* reads of B rows selected by the
   column indices - the "portions that mimic the random access pattern,
   characterizing the access behavior of sparse matrix representations"
   (Section IV-B).

Sparsity is synthetic (seeded uniform column selection at the requested
density), which preserves exactly the property that matters to the
driver: B is touched at page granularity in data-dependent, scattered
order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.table import StreamTableBuilder
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.workloads.base import Workload, WorkloadBuild, chunk_indices

_F32 = 4
_I32 = 4


class CusparseWorkload(Workload):
    """Dense->CSR conversion + SpMM with scattered B access."""

    name = "cusparse"

    def __init__(
        self,
        n: int = 2048,
        density: float = 0.02,
        b_cols: int = 64,
        rows_per_stream: int = 16,
    ) -> None:
        if n <= 0:
            raise ConfigurationError("n must be positive")
        if not 0.0 < density <= 1.0:
            raise ConfigurationError("density must be in (0, 1]")
        if b_cols <= 0 or rows_per_stream <= 0:
            raise ConfigurationError("b_cols and rows_per_stream must be positive")
        self.n = n
        self.density = density
        self.b_cols = b_cols
        self.rows_per_stream = rows_per_stream
        self.nnz = max(1, int(n * n * density))

    def required_bytes(self) -> int:
        dense = self.n * self.n * _F32
        csr_vals = self.nnz * _F32
        csr_cols = self.nnz * _I32
        rowptr = (self.n + 1) * _I32
        b = self.n * self.b_cols * _F32
        c = self.n * self.b_cols * _F32
        return dense + csr_vals + csr_cols + rowptr + b + c

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        n = self.n
        dense = space.malloc_managed(n * n * _F32, name="dense")
        vals = space.malloc_managed(self.nnz * _F32, name="csr_vals")
        cols = space.malloc_managed(self.nnz * _I32, name="csr_cols")
        rowptr = space.malloc_managed((n + 1) * _I32, name="csr_rowptr")
        bmat = space.malloc_managed(n * self.b_cols * _F32, name="B")
        cmat = space.malloc_managed(n * self.b_cols * _F32, name="C")
        page_size = space.page_size
        wl_rng = rng.fork(self.name)

        nnz_per_row = max(1, self.nnz // n)
        streams = StreamTableBuilder()
        sid = 0

        # -- phase 1: dense -> CSR conversion (sequential sweep) ----------------
        dense_pages_per_row = max(1, (n * _F32) // page_size)
        for lo, hi in chunk_indices(n, self.rows_per_stream):
            d_lo = (lo * n * _F32) // page_size
            d_hi = ((hi * n - 1) * _F32) // page_size + 1
            d_pages = dense.start_page + np.arange(d_lo, d_hi, dtype=np.int64)
            v_lo = (lo * nnz_per_row * _F32) // page_size
            v_hi = (hi * nnz_per_row * _F32 - 1) // page_size + 1
            v_pages = vals.start_page + np.arange(v_lo, v_hi, dtype=np.int64)
            c_pages = cols.start_page + np.arange(v_lo, v_hi, dtype=np.int64)
            r_page = rowptr.start_page + np.array(
                [(lo * _I32) // page_size], dtype=np.int64
            )
            pages = np.concatenate([d_pages, v_pages, c_pages, r_page])
            writes = np.zeros(pages.shape, dtype=bool)
            writes[d_pages.size :] = True  # CSR arrays are written
            streams.add(sid, pages, writes)
            sid += 1

        # -- phase 2: SpMM C = S @ B (scattered B reads) ---------------------------
        b_row_bytes = self.b_cols * _F32
        for lo, hi in chunk_indices(n, self.rows_per_stream):
            v_lo = (lo * nnz_per_row * _F32) // page_size
            v_hi = (hi * nnz_per_row * _F32 - 1) // page_size + 1
            v_pages = vals.start_page + np.arange(v_lo, v_hi, dtype=np.int64)
            c_pages = cols.start_page + np.arange(v_lo, v_hi, dtype=np.int64)
            # data-dependent scatter: each nonzero pulls a B row
            n_scatter = (hi - lo) * nnz_per_row
            scatter_rows = wl_rng.integers(0, n, size=n_scatter)
            b_pages = self.pages_of_elements(
                bmat, scatter_rows, b_row_bytes, page_size
            )
            out_lo = (lo * b_row_bytes) // page_size
            out_hi = (hi * b_row_bytes - 1) // page_size + 1
            out_pages = cmat.start_page + np.arange(out_lo, out_hi, dtype=np.int64)
            pages = np.concatenate([v_pages, c_pages, b_pages, out_pages])
            writes = np.zeros(pages.shape, dtype=bool)
            writes[pages.size - out_pages.size :] = True
            streams.add(sid, pages, writes)
            sid += 1

        return WorkloadBuild.single(
            streams.finish(),
            {
                "dense": dense,
                "csr_vals": vals,
                "csr_cols": cols,
                "csr_rowptr": rowptr,
                "B": bmat,
                "C": cmat,
            },
        )
