"""Edge cases of the collective implementations and of the runtime trace
validator that gates their SPMD congruence: split sub-communicators,
nonzero-root vrank rotation, zero-byte payloads, and the divergent and
congruent job shapes the validator must tell apart."""

import pytest

from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.errors import CollectiveMismatchError, DeadlockError
from repro.mpi import run_job
from repro.mpi.trace import attach_tracer, validate_tracer
from repro.sim import Engine


def run_ranks(nprocs, fn, n_nodes=4, cores=4, tracer=False):
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores)))
    t = attach_tracer(env, strict=True) if tracer else None
    result = run_job(env, cluster, nprocs, fn)
    return env, result, t


class TestSplitSubCommunicators:
    @pytest.mark.parametrize("nprocs,ngroups", [(4, 2), (9, 3), (12, 4)])
    def test_nested_collectives_stay_within_color(self, nprocs, ngroups):
        def fn(ctx):
            color = ctx.rank % ngroups
            sub = yield from ctx.comm.split(color)
            local = yield from sub.allreduce(ctx.rank, op=lambda a, b: a + b,
                                             nbytes=8)
            total = yield from ctx.comm.allreduce(local, op=max, nbytes=8)
            return (local, total)

        _, res, _ = run_ranks(nprocs, fn)
        sums = {c: sum(x for x in range(nprocs) if x % ngroups == c)
                for c in range(ngroups)}
        for r, (local, total) in enumerate(res.results):
            assert local == sums[r % ngroups]
            assert total == max(sums.values())

    def test_split_of_split(self):
        def fn(ctx):
            half = yield from ctx.comm.split(ctx.rank // 4)
            quarter = yield from half.split(half.rank // 2)
            members = yield from quarter.allgather(ctx.rank, nbytes=8)
            return members

        _, res, _ = run_ranks(8, fn)
        assert res.results == [[0, 1]] * 2 + [[2, 3]] * 2 \
            + [[4, 5]] * 2 + [[6, 7]] * 2

    def test_sub_communicator_names_are_unique(self):
        # Two same-color splits at different points must not alias (the
        # tracer keys per-communicator traces and validates each).
        def fn(ctx):
            a = yield from ctx.comm.split(0)
            yield from a.barrier()
            b = yield from ctx.comm.split(0)
            yield from b.barrier()
            return (a._shared.name, b._shared.name)

        _, res, _ = run_ranks(2, fn)
        name_a, name_b = res.results[0]
        assert name_a != name_b

    def test_traces_recorded_per_sub_communicator(self):
        def fn(ctx):
            sub = yield from ctx.comm.split(ctx.rank % 2)
            yield from sub.gather(ctx.rank, nbytes=8, root=0)
            yield from ctx.comm.barrier()
            return None

        _, _, tracer = run_ranks(4, fn, tracer=True)
        traces = {c.name: tracer.trace_of(c) for c in tracer.comms()}
        # world: split then barrier on every rank; each sub-comm: one
        # gather from each of its two members.
        world = [t for n, t in traces.items() if "/" not in n]
        subs = [t for n, t in traces.items() if "/" in n]
        assert len(world) == 1 and len(subs) == 2
        for by_rank in world:
            assert all(seq == [("split", None), ("barrier", None)]
                       for seq in by_rank.values())
        for by_rank in subs:
            assert sorted(by_rank) == [0, 1]
            assert all(seq == [("gather", 0)] for seq in by_rank.values())
        assert validate_tracer(tracer) == []


class TestNonzeroRootVrankMapping:
    @pytest.mark.parametrize("nprocs", [2, 3, 5, 8])
    @pytest.mark.parametrize("which", ["gather", "bcast"])
    def test_every_root_is_equivalent(self, nprocs, which):
        # The binomial tree runs on vranks (rank rotated by root); any
        # root must produce the same logical result.
        for root in range(nprocs):
            def fn(ctx, _root=root):
                if which == "gather":
                    out = yield from ctx.comm.gather(ctx.rank, nbytes=8,
                                                     root=_root)
                    return out
                val = "hdr" if ctx.rank == _root else None
                out = yield from ctx.comm.bcast(val, nbytes=8, root=_root)
                return out

            _, res, _ = run_ranks(nprocs, fn)
            if which == "gather":
                assert res.results[root] == list(range(nprocs))
                assert all(r is None for i, r in enumerate(res.results)
                           if i != root)
            else:
                assert res.results == ["hdr"] * nprocs

    def test_nonzero_root_trace_records_actual_root(self):
        def fn(ctx):
            yield from ctx.comm.gather(ctx.rank, nbytes=8, root=2)
            val = ctx.rank if ctx.rank == 1 else None
            yield from ctx.comm.bcast(val, nbytes=8, root=1)
            return None

        _, _, tracer = run_ranks(4, fn, tracer=True)
        (shared,) = tracer.comms()
        by_rank = tracer.trace_of(shared)
        assert all(seq == [("gather", 2), ("bcast", 1)]
                   for seq in by_rank.values())
        assert validate_tracer(tracer) == []


class TestZeroByteCollectives:
    def test_zero_byte_gather_and_bcast_carry_values(self):
        # nbytes=0 messages still deliver payloads and synchronize; the
        # paper's metadata collectives are often tiny.
        def fn(ctx):
            got = yield from ctx.comm.bcast(
                "m" if ctx.rank == 0 else None, nbytes=0, root=0)
            out = yield from ctx.comm.gather(got + str(ctx.rank), nbytes=0,
                                             root=0)
            return out

        _, res, _ = run_ranks(4, fn)
        assert res.results[0] == ["m0", "m1", "m2", "m3"]

    def test_zero_byte_collectives_take_latency_only(self):
        def fn(ctx):
            yield from ctx.comm.allgather(ctx.rank, nbytes=0)
            return ctx.env.now

        env, res, _ = run_ranks(8, fn, cores=1)
        assert env.now > 0          # still pays per-message latency
        assert env.now < 1e-3       # but transfers no bandwidth time

    def test_zero_byte_alltoall(self):
        def fn(ctx):
            vals = [ctx.rank * 10 + dst for dst in range(ctx.nprocs)]
            got = yield from ctx.comm.alltoall(vals, nbytes_each=0)
            return got

        _, res, _ = run_ranks(4, fn)
        for r, got in enumerate(res.results):
            assert got == [src * 10 + r for src in range(4)]


class TestTracerGranularity:
    def test_composites_record_once(self):
        # barrier/allgather/allreduce are built from gather+bcast
        # internally; the trace must show the *caller-level* collective
        # only, matching what the calling code wrote.
        def fn(ctx):
            yield from ctx.comm.barrier()
            yield from ctx.comm.allgather(ctx.rank, nbytes=8)
            yield from ctx.comm.allreduce(ctx.rank, op=max, nbytes=8)
            return None

        _, _, tracer = run_ranks(4, fn, tracer=True)
        (shared,) = tracer.comms()
        by_rank = tracer.trace_of(shared)
        assert all(seq == [("barrier", None), ("allgather", None),
                           ("allreduce", None)]
                   for seq in by_rank.values())


# -- the congruence gate: divergent shapes raise, congruent ones pass --------

def _leader_only_bcast(ctx):
    c = ctx.comm
    if c.rank == 0:
        yield from c.bcast("hdr", root=0)
    vals = yield from c.gather(c.rank, root=0)
    return vals


def _bcast_helper(comm, data):
    yield from comm.bcast(data, root=0)


def _bcast_in_helper(ctx):
    c = ctx.comm
    if c.rank == 0:
        yield from _bcast_helper(c, "x")
    yield from c.barrier()


def _rank_root(ctx):
    c = ctx.comm
    yield from c.bcast("x", root=c.rank)


def _bcast_from(comm, root):
    yield from comm.bcast("x", root=root)


def _root_through_call(ctx):
    yield from _bcast_from(ctx.comm, ctx.comm.rank)


def _rank_bound_loop(ctx):
    c = ctx.comm
    for _ in range(c.rank):
        yield from c.barrier()


def _unsatisfiable_recv(ctx):
    msg = yield from ctx.comm.recv(0, tag=("never", 1))
    return msg


def _unconsumed_send(ctx):
    c = ctx.comm
    yield from c.send((c.rank + 1) % c.size, "x", nbytes=1, tag=("odd", 7))


# shape -> (rank function, error raised, fragments its message must name)
DIVERGENT = {
    "leader-only-bcast": (_leader_only_bcast, CollectiveMismatchError, [
        "1 of 4 ranks never finished",
        "diverge at collective #0: rank 0: bcast(root=0); "
        "rank 1: gather(root=0); rank 2: gather(root=0); "
        "rank 3: gather(root=0)"]),
    "bcast-in-helper": (_bcast_in_helper, CollectiveMismatchError, [
        "diverge at collective #0", "rank 0: bcast(root=0)",
        "rank 1: barrier(root=None)"]),
    "rank-root": (_rank_root, CollectiveMismatchError, [
        "diverge at collective #0", "rank 0: bcast(root=0)",
        "rank 3: bcast(root=3)"]),
    "root-through-call": (_root_through_call, CollectiveMismatchError, [
        "diverge at collective #0", "rank 1: bcast(root=1)"]),
    "rank-bound-loop": (_rank_bound_loop, CollectiveMismatchError, [
        "diverge at collective #0", "rank 0: (nothing)",
        "rank 1: barrier(root=None)"]),
    "unsatisfiable-recv": (_unsatisfiable_recv, DeadlockError, [
        "4 of 4 ranks never finished", "waiting receives",
        "communicator 'bad': 1 waiting recv(s) in mailbox "
        "(dst=3, src=0, tag=('never', 1))"]),
    "unconsumed-send": (_unconsumed_send, CollectiveMismatchError, [
        "communicator 'bad': 1 undelivered message(s) in mailbox "
        "(dst=0, src=3, tag=('odd', 7))"]),
}


def _both_arm_bcast(ctx):
    # The adio.py open idiom: both arms issue the same collective.
    c = ctx.comm
    if c.rank == 0:
        meta = yield from c.bcast("meta", root=0)
    else:
        meta = yield from c.bcast(None, root=0)
    return meta


def _uniform_early_return(ctx, items=("a",)):
    # A rank-uniform guard splits *runs*, not ranks of one run.
    if not items:
        return None
    data = yield from ctx.comm.bcast(list(items), root=0)
    return data


def _two_level_split(ctx):
    # A rank-dependent split color partitions the comm: each color group
    # is internally congruent even though the groups differ.
    color = ctx.rank % 2
    sub = yield from ctx.comm.split(color)
    if color == 0:
        parts = yield from sub.gather(1, root=0)
    else:
        parts = yield from sub.allgather(2)
    yield from ctx.comm.barrier()
    return parts


def _allreduced_root(ctx):
    # allreduce returns the same value on every rank: a uniform root.
    c = ctx.comm
    leader = yield from c.allreduce(c.rank, op=max)
    data = yield from c.bcast("x" if c.rank == leader else None,
                              root=leader)
    return data


def _matched_pair(ctx):
    c = ctx.comm
    if c.rank == 0:
        yield from c.send(1, "x", nbytes=1, tag=("pair", 1))
    elif c.rank == 1:
        msg = yield from c.recv(0, tag=("pair", 1))
        return msg
    return None


def _produce(comm):
    yield from comm.send(1, "x", nbytes=1, tag=("xfn", 3))


def _consume(comm):
    msg = yield from comm.recv(0, tag=("xfn", 3))
    return msg


def _cross_function_pair(ctx):
    # Sender and receiver in different functions.
    if ctx.rank == 0:
        yield from _produce(ctx.comm)
    elif ctx.rank == 1:
        msg = yield from _consume(ctx.comm)
        return msg
    return None


def _uniform_bound_loop(ctx, n=3):
    for _ in range(n):
        yield from ctx.comm.barrier()


def _barrier_bcast_gather(ctx):
    c = ctx.comm
    yield from c.barrier()
    data = yield from c.bcast("x", root=0)
    yield from c.gather(data, root=0)
    return data


CONGRUENT = {
    "collective-sequence": (_barrier_bcast_gather, ["x"] * 4),
    "both-arm-bcast": (_both_arm_bcast, ["meta"] * 4),
    "uniform-early-exit": (_uniform_early_return, [["a"]] * 4),
    "two-level-split": (_two_level_split, [[1, 1], [2, 2], None, [2, 2]]),
    "allreduced-root": (_allreduced_root, ["x"] * 4),
    "matched-pair": (_matched_pair, [None, "x", None, None]),
    "cross-function-pair": (_cross_function_pair, [None, "x", None, None]),
    "uniform-bound-loop": (_uniform_bound_loop, [None] * 4),
}


def _world(n_nodes=4, cores=4):
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores)))
    return env, cluster


class TestRuntimeConfirmation:
    @pytest.mark.parametrize("shape", sorted(DIVERGENT))
    def test_divergent_raises(self, shape):
        fn, error, fragments = DIVERGENT[shape]
        env, cluster = _world()
        attach_tracer(env, strict=True)
        with pytest.raises(error) as err:
            run_job(env, cluster, 4, fn, name="bad")
        msg = str(err.value)
        for fragment in fragments:
            assert fragment in msg

    def test_divergent_fixture_reports_non_congruent_traces(self):
        # A collective only the leader issues produces a
        # CollectiveMismatchError naming the per-rank divergence.
        def fn(ctx):
            c = ctx.comm
            if c.rank == 0:
                yield from c.bcast("hdr", root=0)
            vals = yield from c.gather(c.rank, root=0)
            return vals

        env, cluster = _world()
        attach_tracer(env, strict=True)
        with pytest.raises(CollectiveMismatchError) as err:
            run_job(env, cluster, 4, fn, name="bad")
        msg = str(err.value)
        assert "diverge at collective #0" in msg
        assert "rank 0: bcast(root=0)" in msg
        assert "rank 1: gather(root=0)" in msg

    @pytest.mark.parametrize("shape", sorted(CONGRUENT))
    def test_congruent_passes(self, shape):
        fn, expected = CONGRUENT[shape]
        env, cluster = _world()
        tracer = attach_tracer(env, strict=True)
        result = run_job(env, cluster, 4, fn, name="ok")
        assert result.results == expected
        assert validate_tracer(tracer) == []

    def test_non_strict_tracer_collects_instead_of_raising(self):
        # The model checker's mode: violations become oracle findings.
        env, cluster = _world()
        tracer = attach_tracer(env, strict=False)
        # The divergence also desynchronizes tags, so the job hangs; a
        # strict=False tracer still upgrades the error to the mismatch.
        with pytest.raises((CollectiveMismatchError, DeadlockError)):
            run_job(env, cluster, 4, _leader_only_bcast, name="bad")
        errors = validate_tracer(tracer)
        assert errors and "diverge" in errors[0]

    def test_non_strict_tracer_returns_undelivered_messages(self):
        # A job that completes with a message nobody received: strict
        # tracers raise (above), non-strict ones report it.
        env, cluster = _world()
        tracer = attach_tracer(env, strict=False)
        run_job(env, cluster, 4, _unconsumed_send, name="bad")
        errors = validate_tracer(tracer)
        assert len(errors) == 4
        assert all("undelivered message(s)" in e for e in errors)
