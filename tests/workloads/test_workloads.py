"""Workload framework tests: plans, round trips, phase metrics."""

import pytest

from repro.units import KB, KiB, MB, MiB
from repro.workloads import (
    IOR,
    LANL1,
    LANL3,
    Aramco,
    MADbench,
    MPIIOTest,
    Pixie3D,
    app_suite,
    direct_stack,
    n1_open_storm,
    nn_metadata_storm,
    plfs_stack,
    run_workload,
)
from tests.conftest import make_world, traced_world


def flat_extents(workload, rank):
    return [e for rnd in workload.write_rounds(rank) for e in rnd]


class TestPlans:
    def test_strided_interleaves(self):
        wl = MPIIOTest(4, size_per_proc=4 * KB, transfer=1 * KB, layout="strided")
        assert flat_extents(wl, 0) == [(0, KB), (4 * KB, KB), (8 * KB, KB), (12 * KB, KB)]
        assert flat_extents(wl, 1)[0] == (KB, KB)

    def test_segmented_is_contiguous(self):
        wl = MPIIOTest(4, size_per_proc=4 * KB, transfer=1 * KB, layout="segmented")
        assert flat_extents(wl, 1) == [(4 * KB, KB), (5 * KB, KB), (6 * KB, KB), (7 * KB, KB)]

    def test_nn_has_private_paths(self):
        wl = MPIIOTest(4, layout="nn")
        assert not wl.shared_file
        assert wl.file_path(0) != wl.file_path(1)

    def test_plans_cover_disjoint_extents(self):
        """No two ranks' write extents overlap, for every workload."""
        for wl in [
            MPIIOTest(4, size_per_proc=8 * KB, transfer=3 * KB),
            IOR(4, size_per_proc=8 * KB, transfer=3 * KB),
            Pixie3D(4, per_proc=2 * MiB, n_vars=2, io_size=MiB),
            Aramco(4, total_bytes=8 * MiB, chunk=MiB),
            MADbench(4, matrix_bytes_per_rank=2 * MiB, n_components=2),
            LANL1(4, per_proc=2 * MB, record=500 * KB),
            LANL3(4, total_bytes=8 * MiB, round_bytes=4 * MiB),
        ]:
            seen = []
            for r in range(4):
                for off, ln in flat_extents(wl, r):
                    assert ln > 0
                    seen.append((off, off + ln))
            seen.sort()
            for (s1, e1), (s2, e2) in zip(seen, seen[1:]):
                assert e1 <= s2, f"{wl.name}: [{s1},{e1}) overlaps [{s2},{e2})"

    def test_totals_consistent(self):
        wl = IOR(4, size_per_proc=8 * KB, transfer=3 * KB)
        assert wl.total_bytes == 32 * KB
        assert wl.bytes_per_rank(0) == 8 * KB

    def test_lanl3_rounds_are_collective(self):
        wl = LANL3(8, total_bytes=16 * MiB, round_bytes=8 * MiB)
        assert wl.collective_write
        rounds = list(wl.write_rounds(3))
        assert len(rounds) == 2
        assert rounds[0][0][1] == MiB  # 8 MiB round / 8 ranks


@pytest.mark.parametrize("stack_kind", ["direct", "plfs"])
class TestRoundTrips:
    def make_stack(self, world, kind, hints=None):
        return direct_stack(world, hints) if kind == "direct" else plfs_stack(world, hints)

    @pytest.mark.parametrize("wl_factory", [
        lambda n: MPIIOTest(n, size_per_proc=40 * KB, transfer=10 * KB),
        lambda n: IOR(n, size_per_proc=40 * KB, transfer=10 * KB),
        lambda n: Pixie3D(n, per_proc=1 * MiB, n_vars=2, io_size=512 * KiB),
        lambda n: Aramco(n, total_bytes=4 * MiB, chunk=512 * KiB),
        lambda n: MADbench(n, matrix_bytes_per_rank=1 * MiB, n_components=2),
        lambda n: LANL1(n, per_proc=2 * MB, record=500 * KB),
    ], ids=["mpiio", "ior", "pixie3d", "aramco", "madbench", "lanl1"])
    def test_write_read_verified(self, stack_kind, wl_factory):
        world = make_world()
        wl = wl_factory(4)
        stack = self.make_stack(world, stack_kind)
        res = run_workload(world, wl, stack, verify=True)
        assert res.read.verified is True
        assert res.write.bytes_moved == wl.total_bytes
        assert res.write.wall_time > 0
        assert res.read.effective_bandwidth > 0

    def test_lanl3_collective_verified(self, stack_kind):
        from repro.mpiio import Hints

        world = make_world()
        wl = LANL3(4, total_bytes=8 * MiB, round_bytes=4 * MiB)
        stack = self.make_stack(world, stack_kind, Hints(cb_enable=True, cb_nodes=2))
        res = run_workload(world, wl, stack, verify=True)
        assert res.read.verified is True

    def test_nn_layout_verified(self, stack_kind):
        world = make_world()
        wl = MPIIOTest(4, size_per_proc=40 * KB, transfer=10 * KB, layout="nn")
        stack = self.make_stack(world, stack_kind)
        res = run_workload(world, wl, stack, verify=True)
        assert res.read.verified is True


class TestPhaseSemantics:
    def test_cold_read_slower_than_warm(self):
        world = make_world()
        wl = MPIIOTest(4, size_per_proc=2 * MB, transfer=500 * KB)
        warm = run_workload(world, wl, plfs_stack(world), cold_read=False)
        world2 = make_world()
        cold = run_workload(world2, wl, plfs_stack(world2), cold_read=True)
        assert cold.read.io_time > warm.read.io_time

    def test_write_only_and_read_only(self):
        world = make_world()
        wl = IOR(2, size_per_proc=20 * KB, transfer=10 * KB)
        r1 = run_workload(world, wl, plfs_stack(world), do_read=False)
        assert r1.read is None and r1.write is not None
        r2 = run_workload(world, wl, plfs_stack(world), do_write=False, verify=True)
        assert r2.write is None and r2.read.verified is True


class TestMetadataBench:
    def test_nn_storm_direct_vs_plfs_federated(self):
        world = make_world(n_volumes=6, federation="container", n_nodes=4)
        direct = nn_metadata_storm(world, 16, 4, "direct", dirname="/m1")
        plfs6 = nn_metadata_storm(world, 16, 4, "plfs", dirname="/m2")
        assert direct.open_time > 0 and plfs6.open_time > 0
        # Closes: PLFS pays the metadata dropping; direct always wins (Fig 7b).
        assert plfs6.close_time > direct.close_time

    def test_nn_storm_plfs1_slower_than_direct(self):
        world = make_world(n_volumes=1)
        direct = nn_metadata_storm(world, 16, 4, "direct", dirname="/m1")
        plfs1 = nn_metadata_storm(world, 16, 4, "plfs", dirname="/m2")
        assert plfs1.open_time > direct.open_time  # container burden, 1 MDS

    def test_n1_open_storm_runs(self):
        world = traced_world(n_volumes=2, federation="subdir")
        direct = n1_open_storm(world, 16, "direct", path="/s1/f")
        plfs = n1_open_storm(world, 16, "plfs", path="/s2/f")
        assert direct.open_time > 0 and plfs.open_time > 0


class TestAppSuite:
    def test_suite_builds_and_scales(self):
        specs = app_suite(scale=0.01)
        assert len(specs) == 7
        for spec in specs:
            wl = spec.make(4)
            assert wl.total_bytes > 0

    def test_suite_labels_unique(self):
        labels = [s.label for s in app_suite()]
        assert len(set(labels)) == len(labels)
