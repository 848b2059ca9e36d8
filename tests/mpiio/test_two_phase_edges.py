"""Edge cases of the two-phase collective buffering implementation.

Every world here runs under a strict collective-trace validator, so the
empty-domain barriers and the exchange's sends/recvs are also checked
for congruence and undelivered messages."""

import pytest

from repro.mpi import run_job
from repro.mpiio import Hints, MPIFile, UfsDriver
from repro.pfs.data import LiteralData, PatternData, ZeroData
from repro.units import KB, KiB, MiB
from tests.conftest import traced_world


def open_cb(ctx, world, mode, cb_nodes=2):
    return MPIFile.open(ctx, "/f", mode, UfsDriver(world.volume),
                        Hints(cb_enable=True, cb_nodes=cb_nodes))


class TestTwoPhaseWrite:
    def test_piece_spanning_domain_boundary(self):
        """One rank's large piece splits across two aggregator domains."""
        world = traced_world()

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            pieces = []
            if ctx.rank == 0:
                pieces = [(0, PatternData(1, 0, 2 * MiB))]
            elif ctx.rank == 1:
                pieces = [(2 * MiB, PatternData(2, 0, 2 * MiB))]
            yield from f.write_at_all(pieces)
            yield from f.close()

        run_job(world.env, world.cluster, 4, fn)
        node = world.volume.ns.resolve("/f")
        assert node.data.size == 4 * MiB
        assert node.data.read(0, 2 * MiB).content_equal(PatternData(1, 0, 2 * MiB))
        assert node.data.read(2 * MiB, 2 * MiB).content_equal(PatternData(2, 0, 2 * MiB))

    def test_single_aggregator(self):
        world = traced_world()

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w", cb_nodes=1)
            yield from f.write_at_all([(ctx.rank * KB, PatternData(ctx.rank, 0, KB))])
            yield from f.close()

        run_job(world.env, world.cluster, 8, fn)
        node = world.volume.ns.resolve("/f")
        for r in range(8):
            assert node.data.read(r * KB, KB).content_equal(PatternData(r, 0, KB))

    def test_more_aggregators_than_ranks_clamped(self):
        world = traced_world()

        def fn(ctx):
            f = yield from MPIFile.open(ctx, "/f", "w", UfsDriver(world.volume),
                                        Hints(cb_enable=True, cb_nodes=64))
            yield from f.write_at_all([(ctx.rank * KB, LiteralData(b"z" * 1000))])
            yield from f.close()

        run_job(world.env, world.cluster, 2, fn)
        assert world.volume.ns.resolve("/f").data.size == 2 * KB

    def test_interleaved_tiny_records_coalesce(self):
        """The aggregator's writes are big & few even with 1 KB records."""
        world = traced_world()
        nprocs = 8

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w", cb_nodes=1)
            pieces = [(i * nprocs * KB + ctx.rank * KB, PatternData(ctx.rank, i * KB, KB))
                      for i in range(16)]
            yield from f.write_at_all(pieces)
            yield from f.close()

        run_job(world.env, world.cluster, nprocs, fn)
        # The round spans 128 KB contiguous -> one coalesced write run.
        node = world.volume.ns.resolve("/f")
        assert node.data.size == 16 * nprocs * KB
        assert len(node.data.sources) <= 4  # coalesced, not 128 tiny writes


class TestTwoPhaseRead:
    def test_read_with_holes_returns_zeros(self):
        world = traced_world()

        def writer(ctx):
            f = yield from open_cb(ctx, world, "w")
            pieces = [(0, LiteralData(b"A" * 1000))] if ctx.rank == 0 else []
            yield from f.write_at_all(pieces)
            # Leave [1000, 5000) a hole, then more data.
            pieces = [(5000, LiteralData(b"B" * 1000))] if ctx.rank == 1 else []
            yield from f.write_at_all(pieces)
            yield from f.close()

        run_job(world.env, world.cluster, 4, fn=writer)

        def reader(ctx):
            f = yield from open_cb(ctx, world, "r")
            views = yield from f.read_at_all([(500, 1000)])
            yield from f.close()
            got = views[0].to_bytes()
            return got == b"A" * 500 + b"\x00" * 500

        res = run_job(world.env, world.cluster, 4, reader, client_id_base=100)
        assert all(res.results)

    def test_disjoint_requests_per_rank(self):
        world = traced_world()
        nprocs = 4

        def writer(ctx):
            f = yield from open_cb(ctx, world, "w")
            yield from f.write_at_all(
                [(ctx.rank * 100 * KB, PatternData(ctx.rank, 0, 100 * KB))])
            yield from f.close()

        run_job(world.env, world.cluster, nprocs, writer)

        def reader(ctx):
            src = (ctx.rank + 1) % nprocs
            f = yield from open_cb(ctx, world, "r")
            views = yield from f.read_at_all([
                (src * 100 * KB, 50 * KB),
                (src * 100 * KB + 50 * KB, 50 * KB),
            ])
            yield from f.close()
            return (views[0].content_equal(PatternData(src, 0, 50 * KB))
                    and views[1].content_equal(PatternData(src, 50 * KB, 50 * KB)))

        res = run_job(world.env, world.cluster, nprocs, reader, client_id_base=100)
        assert all(res.results)

    def test_empty_read_round(self):
        world = traced_world()

        def fn(ctx):
            f = yield from open_cb(ctx, world, "w")
            yield from f.write_at_all([(0, ZeroData(1000))] if ctx.rank == 0 else [])
            yield from f.close()
            g = yield from open_cb(ctx, world, "r")
            out = yield from g.read_at_all([])
            yield from g.close()
            return out == []

        assert all(run_job(world.env, world.cluster, 3, fn).results)
