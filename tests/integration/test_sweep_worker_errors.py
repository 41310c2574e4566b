"""Integration: a sweep worker's exception reaches the caller.

Only a pool that cannot start (no ``fork``, no semaphores) may fall back
to running the sweep serially.  A bug that raises inside a worker must
surface as that exception - never as a silent serial re-run that costs
twice the time and hides the failure.
"""

import os

import pytest

from repro.experiments.runner import ExperimentSetup, clear_warm_builds, run_sweep
from repro.units import MiB
from repro.workloads.synthetic import RegularAccess


class ForkedBuildError(RuntimeError):
    pass


class RaisesInChild(RegularAccess):
    """A workload whose build fails only in a process other than the one
    that created it (i.e. in a forked sweep worker)."""

    def __init__(self, data_bytes: int, parent_pid: int) -> None:
        super().__init__(data_bytes)
        self.parent_pid = parent_pid

    def build(self, space, rng):
        if os.getpid() != self.parent_pid:
            raise ForkedBuildError(f"build in worker pid {os.getpid()}")
        return super().build(space, rng)


def _points():
    pid = os.getpid()
    # two sizes -> two build signatures -> two batches, so the pool runs
    return [RaisesInChild(1 * MiB, pid), RaisesInChild(2 * MiB, pid)]


def test_serial_sweep_runs_in_process():
    results = run_sweep(
        _points(),
        setup=ExperimentSetup().with_gpu(memory_bytes=16 * MiB),
        workers=1,
        cache=False,
        mem_cache_mb=0,
    )
    assert len(results) == 2


def test_worker_exception_propagates():
    # forked workers inherit this process's warm-build memo; clear it so
    # they really build
    clear_warm_builds()
    with pytest.raises(ForkedBuildError):
        run_sweep(
            _points(),
            setup=ExperimentSetup().with_gpu(memory_bytes=16 * MiB),
            workers=2,
            cache=False,
            mem_cache_mb=0,
        )
