"""STREAM triad: ``a[i] = b[i] + scalar * c[i]`` (triad-only, Section III-B).

Three equal managed vectors.  Each warp stream covers one page-sized
chunk of the index space and must read its ``b`` and ``c`` pages before
writing its ``a`` page - the "three-vector access pattern [that] enforces
a page-access dependency, enforcing a much more strict ordering of page
fault handling than the regular access pattern" (Section IV-B): a
stream's ``a`` fault can only appear after its ``b`` and ``c`` faults
were serviced, interleaving the three ranges tightly in fault order
(the braided bands of Fig. 7).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.gpu.table import StreamTable
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.workloads.base import Workload, WorkloadBuild
from repro.units import bytes_to_pages

_F64 = 8  # STREAM uses doubles


class StreamTriadWorkload(Workload):
    """GPU-STREAM triad over three managed vectors."""

    name = "stream"

    def __init__(self, total_bytes: int = 48 << 20) -> None:
        if total_bytes < 3 * _F64:
            raise ConfigurationError("total_bytes too small for three vectors")
        self.total_bytes = total_bytes

    def required_bytes(self) -> int:
        return 3 * (self.total_bytes // 3)

    def build(self, space: AddressSpace, rng: SimRng) -> WorkloadBuild:
        vec_bytes = self.total_bytes // 3
        a = space.malloc_managed(vec_bytes, name="a")
        b = space.malloc_managed(vec_bytes, name="b")
        c = space.malloc_managed(vec_bytes, name="c")
        npages = bytes_to_pages(vec_bytes)

        # stream i reads b[i], c[i] then writes a[i]
        i = np.arange(npages, dtype=np.int64)[:, None]
        starts = np.array([b.start_page, c.start_page, a.start_page], dtype=np.int64)
        table = StreamTable(
            np.arange(0, 3 * npages + 1, 3, dtype=np.int64),
            (starts + i).ravel(),
            np.tile(np.array([False, False, True]), npages),
        )
        return WorkloadBuild.single(table, {"a": a, "b": b, "c": c})
