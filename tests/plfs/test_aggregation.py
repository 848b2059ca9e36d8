"""Unit tests for the three index-aggregation strategies (§IV)."""

import pytest

from repro.mpi import run_job, trace
from repro.mpi.trace import attach_tracer
from repro.pfs.data import PatternData
from repro.plfs.aggregation import (
    aggregate_original,
    aggregate_parallel,
    list_index_logs,
    read_flattened_index,
)
from repro.plfs.config import PlfsConfig
from repro.plfs.container import ContainerLayout
from tests.conftest import make_world

KB = 1000


def write_n1(world, path="/f", nprocs=8, per_proc=20 * KB, rec=5 * KB):
    def fn(ctx):
        fh = yield from world.mount.open_write(ctx.client, path, ctx.comm)
        written = 0
        while written < per_proc:
            n = min(rec, per_proc - written)
            off = ctx.rank * rec + (written // rec) * nprocs * rec
            yield from fh.write(off, PatternData(ctx.rank, written, n))
            written += n
        yield from world.mount.close_write(fh, ctx.comm)

    run_job(world.env, world.cluster, nprocs, fn)


class TestListing:
    def test_lists_every_writer(self, world):
        write_n1(world, nprocs=8)

        def fn(ctx):
            entries = yield from list_index_logs(world.mount.layout("/f"), ctx.client)
            return entries

        entries = run_job(world.env, world.cluster, 1, fn,
                          client_id_base=100).results[0]
        assert len(entries) == 8
        writers = sorted(w for _, _, w, _ in entries)
        assert writers == list(range(8))


class TestOriginal:
    def test_builds_complete_index(self, world):
        write_n1(world, nprocs=8)

        def fn(ctx):
            gi = yield from aggregate_original(world.mount.layout("/f"), ctx.client)
            return gi

        gi = run_job(world.env, world.cluster, 1, fn, client_id_base=100).results[0]
        assert gi.logical_size == 8 * 20 * KB
        assert set(gi.writers) == set(range(8))

    def test_memoization_charges_but_skips_parse(self, world):
        write_n1(world, nprocs=8)
        cache = {}

        def fn(ctx):
            layout = world.mount.layout("/f")
            t0 = ctx.env.now
            g1 = yield from aggregate_original(layout, ctx.client, cache)
            t1 = ctx.env.now
            g2 = yield from aggregate_original(layout, ctx.client, cache)
            t2 = ctx.env.now
            return g1, g2, t1 - t0, t2 - t1

        g1, g2, d1, d2 = run_job(world.env, world.cluster, 1, fn,
                                 client_id_base=100).results[0]
        assert g2 is g1            # memoized object
        assert d2 > 0              # but simulated time still charged

    def test_memoization_invalidated_by_new_writes(self, world):
        write_n1(world, nprocs=4)
        cache = {}

        def agg(ctx):
            gi = yield from aggregate_original(world.mount.layout("/f"),
                                               ctx.client, cache)
            return gi

        g1 = run_job(world.env, world.cluster, 1, agg, client_id_base=100).results[0]
        # Append more data from a new job: fingerprint must change.
        write_n1(world, nprocs=4, per_proc=40 * KB)
        g2 = run_job(world.env, world.cluster, 1, agg, client_id_base=200).results[0]
        assert g2 is not g1
        assert g2.logical_size > g1.logical_size


class TestParallel:
    @pytest.mark.parametrize("nprocs,group", [(8, 0), (8, 2), (9, 3), (16, 4)])
    def test_all_ranks_get_identical_complete_index(self, nprocs, group):
        w = make_world(aggregation="parallel", parallel_group_size=group)
        write_n1(w, nprocs=nprocs)

        def fn(ctx):
            gi = yield from aggregate_parallel(
                w.mount.layout("/f"), ctx.client, ctx.comm, w.mount.cfg)
            return gi

        res = run_job(w.env, w.cluster, nprocs, fn, client_id_base=100)
        first = res.results[0]
        assert all(gi is first for gi in res.results)  # shared by reference
        assert set(first.writers) == set(range(nprocs))
        assert first.logical_size == nprocs * 20 * KB

    def test_single_rank_falls_back_to_original(self, world):
        write_n1(world, nprocs=4)

        def fn(ctx):
            gi = yield from aggregate_parallel(
                world.mount.layout("/f"), ctx.client, ctx.comm, world.mount.cfg)
            return len(gi.writers)

        assert run_job(world.env, world.cluster, 1, fn,
                       client_id_base=100).results[0] == 4


class TestParallelHostCost:
    """The simulator's own work in a parallel read open is linear in ranks."""

    def test_open_resolves_volumes_for_own_shard_only(self, monkeypatch):
        n = 64
        w = make_world(n_volumes=4, federation="subdir", aggregation="parallel")
        write_n1(w, nprocs=n)
        calls = [0]
        subdir_volume = ContainerLayout.subdir_volume

        def counted(self, s):
            calls[0] += 1
            return subdir_volume(self, s)

        monkeypatch.setattr(ContainerLayout, "subdir_volume", counted)

        def fn(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/f", ctx.comm)
            return fh.size

        res = run_job(w.env, w.cluster, n, fn, client_id_base=100)
        assert res.results == [n * 20 * KB] * n
        # Rank 0 lists every subdir, and each rank resolves its own log.
        assert calls[0] <= 2 * n

    def test_group_and_leader_splits_validated_at_drain(self, monkeypatch):
        # A micro restart: N-1 strided write, then a parallel read open
        # under a strict collective tracer.  Drain must still walk the
        # two-level merge's "group" split (one comm per group) and its
        # "leaders" split (leaders and everyone else).
        n, gsize = 16, 4
        w = make_world(n_volumes=2, federation="subdir", aggregation="parallel",
                       parallel_group_size=gsize)
        write_n1(w, nprocs=n)
        attach_tracer(w.env, strict=True)
        validated = []
        mismatch_of = trace._mismatch_of

        def spy(shared, by_rank):
            validated.append((shared.name, sorted(by_rank)))
            return mismatch_of(shared, by_rank)

        monkeypatch.setattr(trace, "_mismatch_of", spy)

        def fn(ctx):
            fh = yield from w.mount.open_read(ctx.client, "/f", ctx.comm)
            data = yield from fh.read(0, fh.size)
            yield from fh.close()
            return data.length

        res = run_job(w.env, w.cluster, n, fn, name="restart",
                      client_id_base=100)
        assert res.results == [n * 20 * KB] * n
        splits = {}
        for name, ranks in validated:
            if name.startswith("restart/split"):
                color, seq = name[len("restart/split"):].split("@")
                splits.setdefault(int(seq), {})[int(color)] = ranks
        group_seq, leaders_seq = sorted(splits)
        assert splits[group_seq] == {g: list(range(gsize)) for g in range(n // gsize)}
        # Only the leaders run collectives on their comm; the other
        # colour is created and validated, with nothing recorded.
        assert splits[leaders_seq] == {0: list(range(n // gsize)), 1: []}


class TestFlattenRead:
    def test_missing_global_index_returns_none(self, world):
        write_n1(world, nprocs=4)  # aggregation default = parallel, no flatten

        def fn(ctx):
            gi = yield from read_flattened_index(world.mount.layout("/f"),
                                                 ctx.client, ctx.comm)
            return gi

        assert run_job(world.env, world.cluster, 2, fn,
                       client_id_base=100).results == [None, None]

    def test_flattened_index_read_back(self):
        w = make_world(aggregation="flatten")
        write_n1(w, nprocs=8)

        def fn(ctx):
            gi = yield from read_flattened_index(w.mount.layout("/f"),
                                                 ctx.client, ctx.comm)
            return gi

        res = run_job(w.env, w.cluster, 8, fn, client_id_base=100)
        first = res.results[0]
        assert first is not None
        assert all(gi is first for gi in res.results)
        assert first.logical_size == 8 * 20 * KB
