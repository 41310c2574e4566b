"""Fig. 8 - SGEMM at ~120% oversubscription: evictions in fault order.

"We show evictions at the relative time step they are issued.  Evict and
re-fault is a worst-case performance scenario... data in the second
memory allocation is evicted immediately prior to being paged back in,
as the driver is ignorant to reuse on the GPU."

The exhibit overlays eviction events on the fault-order scatter and
quantifies *evict-then-refault*: evictions whose VABlock faults again
within a short window - the fault-only LRU evicting hot data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.driver import UvmDriver
from repro.experiments.common import gemm_wave_setup
from repro.experiments.runner import ExperimentSetup
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.trace.analysis import AccessPattern, extract_access_pattern
from repro.trace.export import render_scatter
from repro.trace.recorder import TraceRecorder
from repro.units import MiB
from repro.workloads.sgemm import SgemmWorkload


@dataclass
class Fig8Result:
    n: int
    oversubscription: float
    pattern: AccessPattern
    n_evictions: int
    #: evictions whose victim VABlock re-faulted within the window
    refaulted_evictions: int
    refault_window: int

    @property
    def refault_fraction(self) -> float:
        return self.refaulted_evictions / self.n_evictions if self.n_evictions else 0.0

    def render(self) -> str:
        plot = render_scatter(
            self.pattern.occurrence,
            self.pattern.page_index,
            title=(
                f"Fig.8 - sgemm n={self.n} at {self.oversubscription:.0%} of GPU memory "
                f"(* fault, x eviction)"
            ),
            hlines=self.pattern.range_boundaries[1:],
            overlay=(self.pattern.eviction_occurrence, self.pattern.eviction_page_index),
        )
        return (
            f"{plot}\n evictions={self.n_evictions} "
            f"evict-then-refault within {self.refault_window} faults: "
            f"{self.refaulted_evictions} ({self.refault_fraction:.0%})"
        )


def _count_refaulted_evictions(trace, window: int) -> int:
    """Evictions whose VABlock faults again within ``window`` faults."""
    refaulted = 0
    fault_vb = trace.fault_vablock
    for vb, idx in zip(trace.evict_vablock, trace.evict_fault_index):
        upcoming = fault_vb[idx : idx + window]
        if (upcoming == vb).any():
            refaulted += 1
    return refaulted


def run_fig8(
    setup: Optional[ExperimentSetup] = None,
    oversubscription: float = 1.3,
    refault_window: int = 2000,
) -> Fig8Result:
    """Trace an oversubscribed SGEMM run (prefetch on, as in the paper)."""
    setup = setup or gemm_wave_setup()
    target_bytes = setup.gpu.memory_bytes * oversubscription
    tile = 128
    n = int((target_bytes / 12) ** 0.5)  # 3 * n^2 * 4 bytes
    n = max(tile, round(n / tile) * tile)
    workload = SgemmWorkload(n=n, tile=tile)

    rng = SimRng(setup.seed)
    space = AddressSpace()
    build = workload.build(space, rng.fork("workload"))
    recorder = TraceRecorder()
    driver = UvmDriver(
        space=space,
        phases=build.phases,
        driver_config=setup.driver,
        gpu_config=setup.gpu,
        cost=setup.cost,
        rng=rng,
        recorder=recorder,
    )
    result = driver.run()
    pattern = extract_access_pattern(result.trace, space)
    return Fig8Result(
        n=n,
        oversubscription=workload.required_bytes() / setup.gpu.memory_bytes,
        pattern=pattern,
        n_evictions=result.evictions,
        refaulted_evictions=_count_refaulted_evictions(result.trace, refault_window),
        refault_window=refault_window,
    )
