"""A driver snapshot holds each stream array once.

The SoA engine adopts the kernel's stream table instead of copying it,
so a pickled driver carries the page and writes arrays a single time
(pickle memoizes the shared objects).
"""

from repro.experiments.runner import ExperimentSetup, build_driver
from repro.sim.engine import SimulationCheckpointer
from repro.units import MiB
from repro.workloads.registry import make_workload


def test_sgemm_snapshot_holds_pages_once(tmp_path):
    driver = build_driver(
        make_workload("sgemm", 24 * MiB),
        ExperimentSetup().with_gpu(memory_bytes=16 * MiB),
    )
    table = driver._phases[0].table
    stream_bytes = table.pages.nbytes + table.writes.nbytes
    path = tmp_path / "sgemm.ckpt"
    sizes = []
    ckpt = SimulationCheckpointer(
        path, every_phases=64, on_save=lambda _n: sizes.append(path.stat().st_size)
    )
    ckpt.save(driver)  # before the run
    driver.run(ckpt)  # and mid-run
    assert len(sizes) > 1
    assert max(sizes) < 1.5 * stream_bytes
