"""BFS over a synthetic scale-free graph (the out-of-core graph case).

The paper's related work highlights EMOGI [13]: "efficient memory-access
for out-of-memory graph-traversal in GPUs" - the canonical workload
where UVM's 2 MB-granule migration loses badly, because each frontier
vertex touches a short, data-dependent adjacency segment scattered
across an edge array far larger than GPU memory.

Structure reproduced at page level:

* CSR-style ranges: ``offsets`` (per-vertex), ``edges`` (adjacency
  lists), ``status`` (visited flags / frontier),
* BFS levels run as separate kernels (level barriers): each level's
  streams read their frontier slice of ``offsets``/``status``
  sequentially and then dereference *scattered* ``edges`` segments whose
  placement follows a heavy-tailed degree distribution,
* frontier sizes follow the classic BFS ramp (explode then collapse),
* optionally the host manages the frontier between levels
  (``host_frontier=True``), touching ``status`` - the naive-port
  ping-pong.

Marking ``edges`` as ``MemAdvise.PINNED_HOST`` (zero-copy) is the
EMOGI remedy; the memadvise ablation quantifies it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.soa import span_indices
from repro.gpu.table import StreamTableBuilder
from repro.mem.address_space import AddressSpace
from repro.mem.advise import MemAdvise
from repro.sim.rng import SimRng
from repro.units import bytes_to_pages
from repro.workloads.base import (
    HostAccess,
    KernelPhase,
    Workload,
    WorkloadBuild,
    chunk_indices,
)

_I64 = 8
_I32 = 4


class BfsWorkload(Workload):
    """Level-synchronous BFS with scattered adjacency dereferences."""

    name = "bfs"

    def __init__(
        self,
        n_vertices: int = 1 << 16,
        avg_degree: int = 16,
        levels: int = 4,
        vertices_per_stream: int = 512,
        host_frontier: bool = False,
        pin_edges: bool = False,
    ) -> None:
        if n_vertices <= 0 or avg_degree <= 0 or levels < 1:
            raise ConfigurationError("invalid BFS parameters")
        if vertices_per_stream < 1:
            raise ConfigurationError("vertices_per_stream must be >= 1")
        self.n_vertices = n_vertices
        self.avg_degree = avg_degree
        self.levels = levels
        self.vertices_per_stream = vertices_per_stream
        self.host_frontier = host_frontier
        #: apply the EMOGI remedy: zero-copy map the edge array.
        self.pin_edges = pin_edges
        self.n_edges = n_vertices * avg_degree

    def required_bytes(self) -> int:
        offsets = (self.n_vertices + 1) * _I64
        edges = self.n_edges * _I64
        status = self.n_vertices * _I32
        return offsets + edges + status

    def _frontier_sizes(self) -> list[int]:
        """The BFS ramp: frontier explodes then collapses."""
        peak_level = max(1, self.levels // 2)
        sizes = []
        for lv in range(self.levels):
            scale = 2.0 ** (-abs(lv - peak_level))
            sizes.append(max(64, int(self.n_vertices * 0.5 * scale)))
        return sizes

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        offsets = space.malloc_managed((self.n_vertices + 1) * _I64, name="offsets")
        edges = space.malloc_managed(self.n_edges * _I64, name="edges")
        status = space.malloc_managed(self.n_vertices * _I32, name="status")
        if self.pin_edges:
            space.mem_advise("edges", MemAdvise.PINNED_HOST)
        page_size = space.page_size
        wl_rng = rng.fork(self.name)
        gen = wl_rng.generator

        edge_pages_total = bytes_to_pages(self.n_edges * _I64)
        phases: list[KernelPhase] = []
        sid = 0
        for level, frontier_size in enumerate(self._frontier_sizes()):
            frontier = np.sort(gen.choice(self.n_vertices, size=frontier_size, replace=False))
            streams = StreamTableBuilder()
            for lo, hi in chunk_indices(frontier_size, self.vertices_per_stream):
                verts = frontier[lo:hi]
                # sequential-ish reads of offsets + status for the chunk
                off_pages = self.pages_of_elements(offsets, verts, _I64, page_size)
                st_pages = self.pages_of_elements(status, verts, _I32, page_size)
                # scattered adjacency segments: heavy-tailed lengths at
                # data-dependent positions across the whole edge array
                deg = np.minimum(
                    gen.pareto(1.5, size=verts.size).astype(np.int64) + 1, 512
                )
                seg_pages = gen.integers(0, edge_pages_total, size=verts.size)
                span_pages = np.maximum(deg * _I64 // page_size, 0)
                seg_stop = np.minimum(seg_pages + span_pages + 1, edge_pages_total)
                adj_pages = edges.start_page + span_indices(seg_pages, seg_stop)
                # status updates for newly discovered vertices
                upd_pages = self.pages_of_elements(status, verts, _I32, page_size)
                pages = np.concatenate([off_pages, st_pages, adj_pages, upd_pages])
                writes = np.zeros(pages.shape, dtype=bool)
                writes[pages.size - upd_pages.size :] = True
                streams.add(sid, pages, writes)
                sid += 1
            host_before = None
            if self.host_frontier and level > 0:
                # naive port: the host compacts the frontier each level
                host_before = HostAccess(pages=status.pages(), writes=True)
            phases.append(KernelPhase(streams.finish(), host_before=host_before))
        ranges = {"offsets": offsets, "edges": edges, "status": status}
        return WorkloadBuild(phases, ranges)
