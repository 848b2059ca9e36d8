"""The engine's contract with CPython's cyclic collector.

``Engine.run`` holds the collector off while events fire and restores the
caller's setting on every exit.  That is safe only because the run loop's
steady state makes no reference cycles: whatever a job retires is freed by
reference counting alone.  These tests pin both halves.  They assert on
collector states, object lifetimes and counts compared within one run,
never on absolute collection counts, which differ between CPython
versions.
"""

import gc
import weakref

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.harness.setup import build_world
from repro.mpi.runtime import run_job
from repro.sim import Engine
from repro.units import KB
from repro.workloads import MPIIOTest, nn_metadata_storm, plfs_stack, run_workload


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def caller_gc(request):
    """Set the collector to the parametrized state; restore it afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def collector_off():
    """Hold the collector off, so that only reference counting frees."""
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def _recording(env, seen, delay=1.0):
    seen.append(gc.isenabled())
    yield env.timeout(delay)
    seen.append(gc.isenabled())


class _FirstReady:
    """A controlled-loop scheduler that always takes the default order."""

    def select(self, ready):
        return 0

    def fired(self, eid, event):
        pass

    def quiescent(self, now):
        pass


class TestRunRestoresCallerSetting:
    def test_normal_drain(self, caller_gc):
        env = Engine()
        seen = []
        env.process(_recording(env, seen))
        env.run()
        assert seen == [False, False]
        assert gc.isenabled() is caller_gc

    def test_until_returns_early(self, caller_gc):
        env = Engine()
        seen = []
        env.process(_recording(env, seen, delay=10.0))
        env.run(until=5.0)
        assert env.now == 5.0 and seen == [False]
        assert gc.isenabled() is caller_gc

    def test_unhandled_failed_event_raises(self, caller_gc):
        env = Engine()
        env.event().fail(RuntimeError("nobody waits for this"))
        with pytest.raises(RuntimeError):
            env.run()
        assert gc.isenabled() is caller_gc

    def test_deadlock_from_run_process(self, caller_gc):
        env = Engine()

        def stuck(env):
            yield env.event()

        with pytest.raises(DeadlockError):
            env.run_process(stuck(env))
        assert gc.isenabled() is caller_gc

    def test_past_horizon_is_rejected(self, caller_gc):
        env = Engine()
        env.run_process(_recording(env, []))
        with pytest.raises(SimulationError):
            env.run(until=0.0)
        assert gc.isenabled() is caller_gc

    def test_controlled_loop(self, caller_gc):
        env = Engine()
        env.attach_scheduler(_FirstReady())
        seen = []
        env.process(_recording(env, seen))
        env.process(_recording(env, seen))
        env.run()
        assert seen == [False] * 4
        assert gc.isenabled() is caller_gc

    def test_nested_run_leaves_outer_setting_alone(self, caller_gc):
        outer, inner = Engine(), Engine()
        seen = []

        def nested(env):
            yield env.timeout(1.0)
            inner.run_process(_recording(inner, seen))
            seen.append(gc.isenabled())

        outer.run_process(nested(outer))
        assert seen == [False, False, False]
        assert gc.isenabled() is caller_gc


def test_finished_rank_process_is_freed_by_reference_counting(collector_off):
    """No self-cycle survives a finished process.

    Processes are slotted without ``__weakref__``, so the probe is each
    rank's generator: only its process holds it, so it dies with it.
    """
    world = build_world(n_nodes=2)
    gens = []

    def body(ctx):
        yield from ctx.comm.barrier()
        yield ctx.env.timeout(0.5)
        return ctx.rank

    def fn(ctx):
        gen = body(ctx)
        gens.append(weakref.ref(gen))
        return gen

    res = run_job(world.env, world.cluster, 4, fn)
    assert res.results == [0, 1, 2, 3]
    del res
    assert [g() for g in gens] == [None] * 4


# -- no cyclic garbage that grows with the work --------------------------------

def _cyclic_garbage_per_job(world, jobs):
    """What ``gc.collect()`` finds after each job."""
    gc.collect()
    counts = []
    for job in jobs:
        job(world)
        counts.append(gc.collect())
    return counts


def _n1_plfs_write_read(per_rank):
    transfer = 4 * KB
    pattern = MPIIOTest(4, size_per_proc=per_rank * transfer, transfer=transfer,
                        layout="strided", name="gc-n1")

    def write(world):
        run_workload(world, pattern, plfs_stack(world), do_read=False)

    def read(world):
        res = run_workload(world, pattern, plfs_stack(world), do_write=False,
                           verify=True)
        assert res.read.verified

    return _cyclic_garbage_per_job(build_world(n_nodes=2), [write, read])


def _nn_create_storm(per_rank):
    def storm(world):
        nn_metadata_storm(world, 4, per_rank, "plfs", "/gc-storm")

    world = build_world(n_nodes=2, n_volumes=2, federation="container")
    return _cyclic_garbage_per_job(world, [storm])


@pytest.mark.parametrize("run", [_n1_plfs_write_read, _nn_create_storm],
                         ids=["n1-plfs-write-verified-read", "nn-create-storm"])
def test_cyclic_garbage_does_not_grow_with_events(run, collector_off):
    assert run(10) == run(100)
