"""Tests for the MPI-IO layer: drivers, collective open, two-phase I/O."""

import pytest

from repro.errors import UnsupportedOperation
from repro.mpi import run_job
from repro.mpiio import Hints, MPIFile, PlfsDriver, UfsDriver
from repro.pfs.data import PatternData
from tests.conftest import make_world, traced_world

KB = 1000


def strided_writer(driver_factory, path, per_proc, rec, hints=None, collective=False):
    def fn(ctx):
        driver = driver_factory()
        f = yield from MPIFile.open(ctx, path, "w", driver, hints)
        pieces = []
        written = 0
        while written < per_proc:
            n = min(rec, per_proc - written)
            logical = ctx.rank * rec + (written // rec) * ctx.nprocs * rec
            pieces.append((logical, PatternData(ctx.rank, written, n)))
            written += n
        if collective:
            yield from f.write_at_all(pieces)
        else:
            for off, spec in pieces:
                yield from f.write_at(off, spec)
        yield from f.close()
        return f.size()

    return fn


def strided_reader(driver_factory, path, per_proc, rec, hints=None,
                   collective=False, shift=0):
    def fn(ctx):
        driver = driver_factory()
        f = yield from MPIFile.open(ctx, path, "r", driver, hints)
        src = (ctx.rank + shift) % ctx.nprocs
        reqs, specs = [], []
        got = 0
        while got < per_proc:
            n = min(rec, per_proc - got)
            logical = src * rec + (got // rec) * ctx.nprocs * rec
            reqs.append((logical, n))
            specs.append(PatternData(src, got, n))
            got += n
        if collective:
            views = yield from f.read_at_all(reqs)
        else:
            views = []
            for off, n in reqs:
                v = yield from f.read_at(off, n)
                views.append(v)
        yield from f.close()
        return all(v.content_equal(s) for v, s in zip(views, specs))

    return fn


@pytest.mark.parametrize("use_plfs", [False, True], ids=["ufs", "plfs"])
class TestDrivers:
    nprocs, per_proc, rec = 8, 35 * KB, 7 * KB

    def factory(self, w, use_plfs):
        return (lambda: PlfsDriver(w.mount)) if use_plfs else (lambda: UfsDriver(w.volume))

    def test_independent_roundtrip(self, use_plfs):
        w = traced_world()
        fac = self.factory(w, use_plfs)
        res = run_job(w.env, w.cluster, self.nprocs,
                      strided_writer(fac, "/f", self.per_proc, self.rec))
        # Ranks close at different times; the last closer sees the full size
        # (and a PLFS write handle reports its own writer's EOF).
        assert max(res.results) == self.nprocs * self.per_proc
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(fac, "/f", self.per_proc, self.rec, shift=2),
                       client_id_base=1000)
        assert all(rres.results)

    def test_collective_roundtrip_without_cb(self, use_plfs):
        # write_at_all/read_at_all with collective buffering off: each
        # rank does its own I/O and the call only synchronizes.
        w = traced_world()
        fac = self.factory(w, use_plfs)
        res = run_job(w.env, w.cluster, self.nprocs,
                      strided_writer(fac, "/f", self.per_proc, self.rec,
                                     collective=True))
        assert max(res.results) == self.nprocs * self.per_proc
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(fac, "/f", self.per_proc, self.rec,
                                      collective=True, shift=3),
                       client_id_base=1000)
        assert all(rres.results)

    def test_collective_roundtrip_with_cb(self, use_plfs):
        w = traced_world()
        fac = self.factory(w, use_plfs)
        hints = Hints(cb_enable=True, cb_nodes=2)
        res = run_job(w.env, w.cluster, self.nprocs,
                      strided_writer(fac, "/f", self.per_proc, self.rec,
                                     hints=hints, collective=True))
        assert max(res.results) == self.nprocs * self.per_proc
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(fac, "/f", self.per_proc, self.rec,
                                      hints=hints, collective=True, shift=3),
                       client_id_base=1000)
        assert all(rres.results)

    def test_cb_write_then_independent_read(self, use_plfs):
        w = traced_world()
        fac = self.factory(w, use_plfs)
        hints = Hints(cb_enable=True)
        run_job(w.env, w.cluster, self.nprocs,
                strided_writer(fac, "/f", self.per_proc, self.rec,
                               hints=hints, collective=True))
        rres = run_job(w.env, w.cluster, self.nprocs,
                       strided_reader(fac, "/f", self.per_proc, self.rec, shift=1),
                       client_id_base=1000)
        assert all(rres.results)


class TestCollectiveBuffering:
    def test_cb_reduces_fs_requests_for_tiny_records(self):
        """Two-phase turns many 1 KB writes into few large ones (§IV-D6)."""
        nprocs, per_proc, rec = 16, 64 * KB, 1 * KB

        def count_requests(hints, collective):
            w = make_world()
            fac = lambda: UfsDriver(w.volume)  # noqa: E731
            run_job(w.env, w.cluster, nprocs,
                    strided_writer(fac, "/f", per_proc, rec,
                                   hints=hints, collective=collective))
            return sum(o.requests for o in w.volume.pool.osds), w.env.now

        reqs_plain, t_plain = count_requests(None, False)
        reqs_cb, t_cb = count_requests(Hints(cb_enable=True, cb_nodes=4), True)
        assert reqs_cb < reqs_plain / 5
        assert t_cb < t_plain

    def test_rw_mode_rejected_by_plfs_driver(self):
        w = make_world()

        def fn(ctx):
            with pytest.raises(UnsupportedOperation):
                yield from MPIFile.open(ctx, "/f", "rw", PlfsDriver(w.mount))
            return True

        assert run_job(w.env, w.cluster, 2, fn).results == [True, True]

    def test_empty_collective_participation(self):
        """Ranks with no data still complete collective calls."""
        w = traced_world()

        def fn(ctx):
            f = yield from MPIFile.open(ctx, "/f", "w", UfsDriver(w.volume),
                                        Hints(cb_enable=True))
            pieces = [(0, PatternData(1, 0, 10 * KB))] if ctx.rank == 0 else []
            yield from f.write_at_all(pieces)
            yield from f.write_at_all([])  # an all-empty round
            yield from f.close()
            return True

        assert all(run_job(w.env, w.cluster, 4, fn).results)

    def test_double_close_rejected(self):
        w = make_world()

        def fn(ctx):
            f = yield from MPIFile.open(ctx, "/f", "w", UfsDriver(w.volume))
            yield from f.close()
            try:
                yield from f.close()
            except Exception:
                return "raised"

        assert run_job(w.env, w.cluster, 1, fn).results == ["raised"]
