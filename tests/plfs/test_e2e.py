"""End-to-end PLFS correctness: what goes in through N-1 comes back out.

These tests exercise the full stack — MPI job, PLFS container, backing
volume, OSD/MDS models — and verify *content*, not just timing.
"""

import pytest

from repro.errors import FileNotFound, UnsupportedOperation
from repro.mpi import run_job
from repro.pfs.data import PatternData
from tests.conftest import make_world

KB = 1000


def n1_writer(mount, path, per_proc, rec):
    """Rank fn: strided N-1 write of `per_proc` bytes in `rec`-byte records."""

    def fn(ctx):
        parent = path.rpartition("/")[0]
        if parent and ctx.rank == 0 and not mount.exists(parent):
            yield from mount.mkdir(ctx.client, parent)
        yield from ctx.comm.barrier()
        fh = yield from mount.open_write(ctx.client, path, ctx.comm)
        written = 0
        while written < per_proc:
            n = min(rec, per_proc - written)
            logical = ctx.rank * rec + (written // rec) * ctx.nprocs * rec
            yield from fh.write(logical, PatternData(ctx.rank, written, n))
            written += n
        flattened = yield from mount.close_write(fh, ctx.comm)
        return flattened

    return fn


def n1_reader(mount, path, per_proc, rec, shift=0):
    """Rank fn: read back the strided pattern written by rank (rank+shift)."""

    def fn(ctx):
        src = (ctx.rank + shift) % ctx.nprocs
        fh = yield from mount.open_read(ctx.client, path, ctx.comm)
        got = 0
        ok = True
        while got < per_proc:
            n = min(rec, per_proc - got)
            logical = src * rec + (got // rec) * ctx.nprocs * rec
            view = yield from fh.read(logical, n)
            ok = ok and view.content_equal(PatternData(src, got, n))
            got += n
        yield from fh.close()
        return ok

    return fn


@pytest.mark.parametrize("aggregation", ["original", "flatten", "parallel"])
class TestN1RoundTrip:
    nprocs, per_proc, rec = 8, 40 * KB, 7 * KB

    def test_same_pattern_readback(self, aggregation):
        w = make_world(aggregation=aggregation)
        run_job(w.env, w.cluster, self.nprocs,
                n1_writer(w.mount, "/ckpt", self.per_proc, self.rec))
        res = run_job(w.env, w.cluster, self.nprocs,
                      n1_reader(w.mount, "/ckpt", self.per_proc, self.rec),
                      client_id_base=1000)
        assert all(res.results)

    def test_shifted_pattern_readback(self, aggregation):
        """Every rank reads a *different* rank's region (cross-log reads)."""
        w = make_world(aggregation=aggregation)
        run_job(w.env, w.cluster, self.nprocs,
                n1_writer(w.mount, "/ckpt", self.per_proc, self.rec))
        res = run_job(w.env, w.cluster, self.nprocs,
                      n1_reader(w.mount, "/ckpt", self.per_proc, self.rec, shift=3),
                      client_id_base=1000)
        assert all(res.results)

    def test_single_reader_sees_whole_file(self, aggregation):
        w = make_world(aggregation=aggregation)
        nprocs, per_proc, rec = 4, 20 * KB, 5 * KB
        run_job(w.env, w.cluster, nprocs, n1_writer(w.mount, "/f", per_proc, rec))

        def solo(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/f", ctx.comm)
            total = fh.size
            view = yield from fh.read(0, total)
            yield from fh.close()
            return total, view

        res = run_job(w.env, w.cluster, 1, solo, client_id_base=2000)
        total, view = res.results[0]
        assert total == nprocs * per_proc
        # Check the strided reassembly piecewise.
        for stripe in range(per_proc // rec):
            for rank in range(nprocs):
                logical = rank * rec + stripe * nprocs * rec
                sub = yield_view_slice(view, logical, rec)
                assert sub.content_equal(PatternData(rank, stripe * rec, rec))


def yield_view_slice(view, offset, length):
    """Slice a DataView by absolute offset (helper for assertions)."""
    from repro.pfs.data import DataView

    out, pos = [], 0
    for p in view.pieces:
        lo, hi = pos, pos + p.length
        s, e = max(lo, offset), min(hi, offset + length)
        if e > s:
            out.append(p.slice(s - lo, e - s))
        pos = hi
    return DataView(out)


def test_independent_open_under_original_aggregation():
    """An open with no communicator (``comm=None``) under Original
    aggregation: the lone reader walks every index log itself."""
    w = make_world(aggregation="original")
    nprocs, per_proc, rec = 4, 20 * KB, 5 * KB
    run_job(w.env, w.cluster, nprocs, n1_writer(w.mount, "/f", per_proc, rec))

    def reader(ctx):
        fh = yield from w.mount.open_read(ctx.client, "/f", None)
        views = []
        for rank in range(nprocs):
            view = yield from fh.read(rank * rec, rec)
            views.append(view.content_equal(PatternData(rank, 0, rec)))
        yield from fh.close()
        return fh.size, views

    size, views = run_job(w.env, w.cluster, 1, reader,
                          client_id_base=2000).results[0]
    assert size == nprocs * per_proc
    assert all(views)
    assert len(w.mount._index_cache) == 1  # Original's memo, not Parallel's


@pytest.mark.parametrize("federation", ["none", "container", "subdir"])
def test_federation_roundtrip(federation):
    w = make_world(n_volumes=3, federation=federation, aggregation="parallel")
    nprocs, per_proc, rec = 8, 20 * KB, 5 * KB
    run_job(w.env, w.cluster, nprocs, n1_writer(w.mount, "/d/ckpt", per_proc, rec))
    res = run_job(w.env, w.cluster, nprocs,
                  n1_reader(w.mount, "/d/ckpt", per_proc, rec, shift=1),
                  client_id_base=1000)
    assert all(res.results)


def test_subdir_federation_spreads_volumes():
    w = make_world(n_volumes=3, federation="subdir", n_nodes=4, cores=4)
    nprocs = 8
    run_job(w.env, w.cluster, nprocs, n1_writer(w.mount, "/f", 10 * KB, 5 * KB))
    layout = w.mount.layout("/f")
    vols_with_logs = set()
    for s in range(layout.cfg.n_subdirs):
        vol = layout.subdir_volume(s)
        if vol.ns.exists(layout.subdir_path(s)):
            vols_with_logs.add(vol.name)
    assert len(vols_with_logs) > 1


class TestOverwrites:
    def test_later_write_wins_across_ranks(self, world):
        w = world

        def fn(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/f", ctx.comm)
            if ctx.rank == 0:
                yield from fh.write(0, PatternData(100, 0, 10 * KB))
            yield from ctx.comm.barrier()
            yield ctx.env.timeout(0.001)
            if ctx.rank == 1:
                yield from fh.write(5 * KB, PatternData(200, 0, 5 * KB))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 2, fn)

        def reader(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/f", ctx.comm)
            head = yield from fh.read(0, 5 * KB)
            tail = yield from fh.read(5 * KB, 5 * KB)
            yield from fh.close()
            return (head.content_equal(PatternData(100, 0, 5 * KB)),
                    tail.content_equal(PatternData(200, 0, 5 * KB)))

        res = run_job(w.env, w.cluster, 1, reader, client_id_base=1000)
        assert res.results[0] == (True, True)

    def test_sparse_file_holes_read_zero(self, world):
        w = world

        def writer(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/sparse", ctx.comm)
            yield from fh.write(100 * KB, PatternData(1, 0, KB))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 1, writer)

        def reader(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/sparse", ctx.comm)
            assert fh.size == 101 * KB
            hole = yield from fh.read(0, KB)
            yield from fh.close()
            return hole.materialize().any()

        res = run_job(w.env, w.cluster, 1, reader, client_id_base=1000)
        assert res.results[0] == False  # noqa: E712


class TestFlattenBehaviour:
    def test_flatten_produces_global_index(self):
        w = make_world(aggregation="flatten")
        res = run_job(w.env, w.cluster, 4, n1_writer(w.mount, "/f", 10 * KB, 5 * KB))
        assert all(res.results)  # every rank reports the flatten happened
        layout = w.mount.layout("/f")
        assert layout.home_volume.ns.exists(layout.global_index_path)

    def test_flatten_skipped_when_over_threshold(self):
        w = make_world(aggregation="flatten", flatten_threshold=96)
        # 10 records/rank * 48B = 480B > 96B threshold -> no flatten.
        res = run_job(w.env, w.cluster, 4, n1_writer(w.mount, "/f", 10 * KB, 1 * KB))
        assert not any(res.results)
        layout = w.mount.layout("/f")
        assert not layout.home_volume.ns.exists(layout.global_index_path)
        # Reads still work through the fallback path.
        rres = run_job(w.env, w.cluster, 4, n1_reader(w.mount, "/f", 10 * KB, 1 * KB),
                       client_id_base=1000)
        assert all(rres.results)


class TestMetadataOps:
    def test_stat_reports_logical_size(self, world):
        w = world
        run_job(w.env, w.cluster, 4, n1_writer(w.mount, "/f", 10 * KB, 5 * KB))

        def fn(ctx):
            st = yield from w.mount.stat(ctx.client, "/f")
            return st

        st = run_job(w.env, w.cluster, 1, fn, client_id_base=1000).results[0]
        assert st.size == 4 * 10 * KB
        assert not st.is_dir

    def test_stat_missing_raises(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.stat(ctx.client, "/nope")

        with pytest.raises(FileNotFound):
            run_job(w.env, w.cluster, 1, fn)

    def test_readdir_hides_container_internals(self, world):
        w = world
        run_job(w.env, w.cluster, 2, n1_writer(w.mount, "/dir/f", 5 * KB, 5 * KB))

        def fn(ctx):
            names = yield from w.mount.readdir(ctx.client, "/dir")
            return names

        names = run_job(w.env, w.cluster, 1, fn, client_id_base=50).results[0]
        assert names == ["f"]

    def test_unlink_removes_container_everywhere(self):
        w = make_world(n_volumes=3, federation="subdir")
        run_job(w.env, w.cluster, 8, n1_writer(w.mount, "/f", 5 * KB, 5 * KB))

        def fn(ctx):
            yield from w.mount.unlink(ctx.client, "/f")

        run_job(w.env, w.cluster, 1, fn, client_id_base=50)
        assert not w.mount.exists("/f")
        for vol in w.volumes:
            assert not vol.ns.exists("/f")

    def test_create_exclusive(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.create(ctx.client, "/new")
            return w.mount.exists("/new")

        assert run_job(w.env, w.cluster, 1, fn).results[0]

    def test_rw_open_unsupported(self, world):
        w = world

        def fn(ctx):
            with pytest.raises(UnsupportedOperation):
                yield from w.mount.open_write(ctx.client, "/f", ctx.comm, mode="rw")
            return True

        assert run_job(w.env, w.cluster, 1, fn).results[0]

    def test_open_read_missing_raises(self, world):
        w = world

        def fn(ctx):
            yield from w.mount.open_read(ctx.client, "/absent", ctx.comm)

        with pytest.raises(FileNotFound):
            run_job(w.env, w.cluster, 1, fn)


class TestWriteSpeedupPremise:
    def test_plfs_n1_write_much_faster_than_direct(self):
        """Fig. 2's premise at miniature scale: PLFS vs direct N-1 writes."""
        nprocs, per_proc, rec = 16, 1020 * KB, 17 * KB

        def direct_writer(vol):
            def fn(ctx):
                fh = yield from vol.open(ctx.client, "/shared", "w", create=True)
                written = 0
                while written < per_proc:
                    n = min(rec, per_proc - written)
                    logical = ctx.rank * rec + (written // rec) * nprocs * rec
                    yield from fh.write(logical, PatternData(ctx.rank, written, n))
                    written += n
                yield from fh.close()
            return fn

        w1 = make_world()
        r1 = run_job(w1.env, w1.cluster, nprocs, direct_writer(w1.volume))
        t_direct = r1.duration

        w2 = make_world()
        r2 = run_job(w2.env, w2.cluster, nprocs,
                     n1_writer(w2.mount, "/shared", per_proc, rec))
        t_plfs = r2.duration
        assert t_direct > 2 * t_plfs, f"direct={t_direct:.2f}s plfs={t_plfs:.2f}s"


class TestLogicalTruncate:
    def test_truncate_discards_previous_generation(self, world):
        w = world

        def writer(ctx, seed, nbytes, truncate):
            fh = yield from w.mount.open_write(ctx.client, "/t", ctx.comm,
                                               truncate=truncate)
            yield from fh.write(0, PatternData(seed, 0, nbytes))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 1, lambda ctx: writer(ctx, 1, 10 * KB, False))
        # Rewrite a SHORTER file with O_TRUNC: no stale tail may survive.
        run_job(w.env, w.cluster, 1, lambda ctx: writer(ctx, 2, 2 * KB, True),
                client_id_base=50)

        def reader(ctx):
            st = yield from w.mount.stat(ctx.client, "/t")
            fh = yield from w.mount.open_read(ctx.client, "/t", ctx.comm)
            size = fh.size
            view = yield from fh.read(0, size)
            yield from fh.close()
            return st.size, size, view.content_equal(PatternData(2, 0, 2 * KB))

        st_size, size, ok = run_job(w.env, w.cluster, 1, reader,
                                    client_id_base=99).results[0]
        assert st_size == 2 * KB
        assert size == 2 * KB
        assert ok

    def test_without_truncate_old_tail_survives(self, world):
        w = world

        def writer(ctx, seed, nbytes):
            fh = yield from w.mount.open_write(ctx.client, "/t", ctx.comm)
            yield from fh.write(0, PatternData(seed, 0, nbytes))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 1, lambda ctx: writer(ctx, 1, 10 * KB))
        run_job(w.env, w.cluster, 1, lambda ctx: writer(ctx, 2, 2 * KB),
                client_id_base=50)

        def reader(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/t", ctx.comm)
            head = yield from fh.read(0, 2 * KB)
            tail = yield from fh.read(2 * KB, 8 * KB)
            size = fh.size
            yield from fh.close()
            return (size, head.content_equal(PatternData(2, 0, 2 * KB)),
                    tail.content_equal(PatternData(1, 2 * KB, 8 * KB)))

        size, head_ok, tail_ok = run_job(w.env, w.cluster, 1, reader,
                                         client_id_base=99).results[0]
        assert size == 10 * KB
        assert head_ok and tail_ok

    def test_collective_truncate_by_rank_zero(self, world):
        w = world
        run_job(w.env, w.cluster, 4, n1_writer(w.mount, "/t", 10 * KB, 5 * KB))

        def rewriter(ctx):
            fh = yield from w.mount.open_write(ctx.client, "/t", ctx.comm,
                                               truncate=True)
            yield from fh.write(ctx.rank * KB, PatternData(9, ctx.rank * KB, KB))
            yield from w.mount.close_write(fh, ctx.comm)

        run_job(w.env, w.cluster, 4, rewriter, client_id_base=50)

        def reader(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/t", ctx.comm)
            size = fh.size
            view = yield from fh.read(0, size)
            yield from fh.close()
            return size, view.content_equal(PatternData(9, 0, 4 * KB))

        size, ok = run_job(w.env, w.cluster, 1, reader, client_id_base=99).results[0]
        assert size == 4 * KB
        assert ok
