"""Unit tests for the columnar stream table and its adoption."""

import copy
import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.experiments.runner import ExperimentSetup, build_driver, clear_warm_builds
from repro.gpu.soa import SoaBlockScheduler
from repro.gpu.table import StreamTable, StreamTableBuilder
from repro.gpu.warp import WarpStream
from repro.mem.address_space import AddressSpace
from repro.sim.rng import SimRng
from repro.units import MiB
from repro.workloads.registry import make_workload


def two_streams():
    return [
        WarpStream(4, np.array([1, 2, 3]), np.array([False, True, False])),
        WarpStream(9, np.array([7]), flops_per_access=2.5),
    ]


class TestStreamTable:
    def test_round_trip_through_views(self):
        table = StreamTable.from_streams(two_streams())
        assert table.offsets.tolist() == [0, 3, 4]
        assert table.pages.tolist() == [1, 2, 3, 7]
        assert table.writes.tolist() == [False, True, False, False]
        assert table.has_writes.tolist() == [True, False]
        assert table.streams() == two_streams()
        assert table.streams()[1].writes is None

    def test_views_share_the_table_arrays(self):
        table = StreamTable.from_streams(two_streams())
        view = table.stream(0)
        assert np.shares_memory(view.pages, table.pages)
        assert np.shares_memory(view.writes, table.writes)

    def test_columns_are_read_only(self):
        table = StreamTable.from_streams(two_streams())
        for col in (table.offsets, table.pages, table.writes, table.flops_per_access):
            with pytest.raises(ValueError):
                col[0] = col[0]

    def test_pickle_and_deepcopy_stay_read_only(self):
        table = StreamTable.from_streams(two_streams())
        for other in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert other.streams() == table.streams()
            with pytest.raises(ValueError):
                other.pages[0] = 0

    def test_empty_table(self):
        table = StreamTableBuilder().finish()
        assert table.n == 0 and table.pages.size == 0
        assert table.streams() == []

    def test_inconsistent_columns_rejected(self):
        with pytest.raises(SimulationError):
            StreamTable(np.array([0, 5]), np.arange(3))
        with pytest.raises(SimulationError):
            StreamTable(np.array([0, 2, 1]), np.arange(1))
        with pytest.raises(SimulationError):
            StreamTable(np.array([0, 3]), np.arange(3), np.zeros(2, dtype=bool))

    def test_builder_rejects_mismatched_writes(self):
        with pytest.raises(SimulationError):
            StreamTableBuilder().add(0, np.arange(3), np.zeros(2, dtype=bool))


class TestAdoption:
    def test_soa_engine_adopts_table_without_copy(self):
        table = StreamTable.from_streams(two_streams())
        sched = SoaBlockScheduler(table, SimRng(1))
        assert sched.soa.pages_flat is table.pages
        assert sched.soa.writes_flat is table.writes
        assert sched.table is table

    def test_writing_to_a_built_table_raises(self):
        build = make_workload("sgemm", 4 * MiB).build(AddressSpace(), SimRng(3))
        table = build.phases[0].table
        with pytest.raises(ValueError):
            table.pages[0] = 0
        with pytest.raises(ValueError):
            table.writes[:] = False
        with pytest.raises(ValueError):
            build.streams[0].pages[0] = 0

    def test_warm_builds_share_table_arrays(self):
        clear_warm_builds()
        setup = ExperimentSetup().with_gpu(memory_bytes=16 * MiB)
        workload = make_workload("stream", 4 * MiB)
        first = build_driver(workload, setup, warm=True)
        second = build_driver(workload, setup, warm=True)
        clear_warm_builds()
        table = first._phases[0].table
        assert second._phases[0].table is table
        assert first.space is not second.space
        assert second.device.scheduler.soa.pages_flat is table.pages
