"""The benchmark's workloads: seeded I/O patterns run through the public API.

A *scenario* is one benchmark workload.  Given a seed it yields *stages*:
each stage builds one world with :func:`repro.build_world`, constructs its
I/O pattern, and runs its *jobs* (a write pass, a read pass or a metadata
storm) in order.  Every scenario runs at two sizes, ``half`` and ``full``,
so that one pass also measures how host cost grows with the rank count.

The seed only salts file and directory names.  Names feed the per-rank
content seeds (``crc32(name:rank)``) and federated placement
(``crc32(path) % n_volumes``), so the program under test receives nothing
but the generated workload.
"""

from __future__ import annotations

import traceback
from math import fsum
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro
import repro.workloads as wl
from repro.cluster import cielo, lanl64
from repro.pfs import panfs_cielo
from repro.units import KB, MB, MiB

Outputs = Dict[str, Any]


@dataclass(frozen=True)
class Job:
    """One simulated job; ``run(world, pattern)`` returns its outputs."""

    name: str
    run: Callable[[Any, Any], Outputs]


@dataclass(frozen=True)
class Stage:
    """One world: built, given its I/O pattern, then its jobs run in order."""

    label: str
    half: bool
    build: Callable[[], Any]
    make: Callable[[], Any]
    jobs: Tuple[Job, ...]


@dataclass(frozen=True)
class Scenario:
    name: str
    why: str
    stages: Callable[[int], List[Stage]]


# The API is looked up on its module at each call, so that a tracer that
# rewraps the module's functions sees every call the benchmark makes.

def _world(**kwargs):
    return repro.build_world(**kwargs)


def _pattern(nprocs: int, **kwargs):
    return wl.MPIIOTest(nprocs, **kwargs)


def _plfs(world):
    return wl.plfs_stack(world)


def _direct(world):
    return wl.direct_stack(world)


# -- jobs -----------------------------------------------------------------------

def _write(stack, world, pattern) -> Outputs:
    res = wl.run_workload(world, pattern, stack(world), do_read=False)
    return {"write_bw": res.write.effective_bandwidth,
            "write_close_s": res.write.close_time}


def _read(stack, cold: bool, verify: bool, world, pattern) -> Outputs:
    res = wl.run_workload(world, pattern, stack(world), do_write=False,
                       cold_read=cold, verify=verify)
    out = {"read_open_s": res.read.open_time,
           "read_bw": res.read.effective_bandwidth}
    if verify:
        out["verified"] = res.read.verified
    return out


def _storm(stack: str, world, spec) -> Outputs:
    nprocs, files, dirname = spec
    m = wl.nn_metadata_storm(world, nprocs, files, stack, dirname)
    return {"open_s": m.open_time, "close_s": m.close_time}


def _write_read(stack, cold: bool, verify: bool) -> Tuple[Job, ...]:
    return (Job("write", partial(_write, stack)),
            Job("read", partial(_read, stack, cold, verify)))


def _sizes(full: int) -> Tuple[Tuple[int, bool], ...]:
    # Where a workload has several stages per size, the sizes alternate,
    # so that drift in host speed during a pass hits both halves of
    # scaling_x2 alike.
    return ((full // 2, True), (full, False))


# -- the four scenarios -----------------------------------------------------------

def n1_strided(seed: int, *, streams: int = 256, size: int = 50 * MB,
               transfer: int = 200 * KB) -> List[Stage]:
    """Fig. 4 shape: N-1 strided through PLFS, warm read per aggregation."""
    stages = []
    for agg in ("original", "parallel", "flatten"):
        for n, half in _sizes(streams):
            stages.append(Stage(
                label=f"{n}/{agg}", half=half,
                build=partial(_world, cluster_spec=lanl64(), aggregation=agg),
                make=partial(_pattern, n, size_per_proc=size, transfer=transfer,
                             layout="strided", name=f"n1s-{seed}"),
                jobs=_write_read(_plfs, cold=False, verify=False)))
    return stages


def n1_direct(seed: int, *, streams: int = 256, size: int = 20 * MB,
              transfer: int = 200 * KB) -> List[Stage]:
    """The paper's baseline: the same N-1 strided pattern straight to PanFS."""
    return [Stage(label=f"{n}/direct", half=half,
                  build=partial(_world, cluster_spec=lanl64()),
                  make=partial(_pattern, n, size_per_proc=size,
                               transfer=transfer, layout="strided",
                               name=f"n1d-{seed}"),
                  jobs=_write_read(_direct, cold=True, verify=True))
            for n, half in _sizes(streams)]


def nn_create(seed: int, *, ranks: int = 4096, files: int = 2) -> List[Stage]:
    """Fig. 8d shape: N-N create storm, PLFS-10 container federation vs direct."""
    plfs10 = partial(_world, cluster_spec=cielo(), pfs_cfg=panfs_cielo(),
                     n_volumes=10, federation="container")
    direct = partial(_world, cluster_spec=cielo(), pfs_cfg=panfs_cielo())
    return [Stage(label=f"{n}/{label}", half=half, build=build,
                  make=partial(tuple, (n, files, f"/meta-{seed}")),
                  jobs=(Job("storm", partial(_storm, stack)),))
            for label, stack, build in (("plfs10", "plfs", plfs10),
                                        ("direct", "direct", direct))
            for n, half in _sizes(ranks)]


def restart(seed: int, *, ranks: int = 2048, size: int = 50 * MB,
            transfer: int = 8 * MiB) -> List[Stage]:
    """Fig. 8a shape: N-1 checkpoint and verified cold restart, PLFS-10 subdir."""
    return [Stage(label=f"{n}/parallel", half=half,
                  build=partial(_world, cluster_spec=cielo(),
                                pfs_cfg=panfs_cielo(), n_volumes=10,
                                federation="subdir", aggregation="parallel"),
                  make=partial(_pattern, n, size_per_proc=size,
                               transfer=transfer, layout="strided",
                               name=f"restart-{seed}"),
                  jobs=_write_read(_plfs, cold=True, verify=True))
            for n, half in _sizes(ranks)]


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("n1-strided",
             "PFS byte ledger and PLFS index path; the only run of Original's "
             "N^2 index-log opens and Flatten's close-time gather",
             n1_strided),
    Scenario("n1-direct",
             "PLFS bypassed: one shared object with interleaved writers, so "
             "pfs lock revocations and fair-share OSD service do the work",
             n1_direct),
    Scenario("nn-create",
             "metadata only: no data bytes and no index, so the byte ledger "
             "and index path are bypassed; engine and MDS queueing dominate",
             nn_create),
    Scenario("restart",
             "rank count is where super-linear host cost lives: parallel index "
             "read, Comm.split and verified restart reads at 1,024 and 2,048",
             restart),
)}

# Micro-sized versions of the same scenarios, for the benchmark's own tests.
MICRO: Dict[str, Callable[[int], List[Stage]]] = {
    "n1-strided": partial(n1_strided, streams=8, size=400 * KB, transfer=50 * KB),
    "n1-direct": partial(n1_direct, streams=8, size=400 * KB, transfer=50 * KB),
    "nn-create": partial(nn_create, ranks=32),
    "restart": partial(restart, ranks=16, size=2 * MB, transfer=512 * KB),
}


# -- running a pass -------------------------------------------------------------------

@dataclass
class JobRecord:
    key: str
    half: bool
    host_s: float
    outputs: Optional[Outputs] = None
    error: Optional[str] = None
    ledger: Optional[Dict[str, float]] = None  # the stage's world, on its last job


@dataclass
class PassResult:
    """One pass; times are host seconds."""

    setup_s: float = 0.0
    build_s: float = 0.0
    jobs: List[JobRecord] = field(default_factory=list)
    ledger: Dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(j.host_s for j in self.jobs)

    def size_s(self, half: bool) -> float:
        return sum(j.host_s for j in self.jobs if j.half == half)

    def outputs(self) -> Dict[str, Optional[Outputs]]:
        return {j.key: j.outputs for j in self.jobs}


def run_pass(stages: Sequence[Stage],
             on_world: Callable[[Any], None] = lambda world: None) -> PassResult:
    """Set up and run every stage; a job that raises fails the rest of its stage."""
    result = PassResult()
    for stage in stages:
        t0 = perf_counter()
        world = stage.build()
        t1 = perf_counter()
        pattern = stage.make()
        result.setup_s += perf_counter() - t0
        result.build_s += t1 - t0
        on_world(world)
        error = None
        for job in stage.jobs:
            rec = JobRecord(key=f"{stage.label}/{job.name}", half=stage.half,
                            host_s=0.0)
            if error is not None:
                rec.error = f"not run: an earlier job of {stage.label} failed"
            else:
                t0 = perf_counter()
                try:
                    rec.outputs = job.run(world, pattern)
                except Exception:  # a failed job is counted, and the pass goes on
                    error = rec.error = traceback.format_exc()
                rec.host_s = perf_counter() - t0
            result.jobs.append(rec)
        rec.ledger = world_ledger(world)
        for name, value in rec.ledger.items():
            result.ledger[name] = result.ledger.get(name, 0) + value
        # Free the world here, outside both stopwatches, rather than when
        # the next stage's build rebinds the name.
        del world, pattern
    return result


def rehearse_setup(stages: Sequence[Stage]) -> float:
    """Host seconds to build every world of a pass and construct its patterns."""
    t0 = perf_counter()
    for stage in stages:
        stage.build()
        stage.make()
    return perf_counter() - t0


def world_ledger(world) -> Dict[str, float]:
    """Counters and simulated busy times the world's models kept during its jobs.

    Float sums use ``fsum``: inode uids come from a process-wide counter,
    so which OSD serves a file depends on what ran earlier in the process,
    and a plain sum over OSDs would round differently from pass to pass.
    """
    cluster, vol = world.cluster, world.volume
    pool = vol.pool
    caches = [node.page_cache for node in cluster.nodes]
    mds = [v.mds for v in world.volumes]
    return {
        "events": world.env._eid,
        "fabric_msgs": cluster.interconnect.messages_sent,
        "fabric_busy_s": cluster.interconnect.fabric.busy_time,
        "storage_busy_s": cluster.storage_net.pipe.busy_time,
        "cache_hits": sum(c.hits for c in caches),
        "cache_misses": sum(c.misses for c in caches),
        "bytes_moved": pool.total_bytes_moved,
        "osd_busy_s": fsum(o.server.busy_time for o in pool.osds),
        "osd_seeks": pool.total_seeks,
        "mds_ops": sum(m.total_ops for m in mds),
        "mds_busy_s": fsum(m.server.busy_time for m in mds),
        "mds_service_s": fsum(m.server.total_served / m.server.capacity
                              for m in mds),
        "lock_revocations": vol.locks.revocations,
    }


def job_failures(rec: JobRecord, pinned: Optional[Outputs]) -> Optional[str]:
    """Why a job failed, or None: it raised, its read-back was not byte-exact,
    or its simulated outputs differ from the pinned ones."""
    if rec.error is not None:
        return rec.error.strip().splitlines()[-1]
    if rec.outputs.get("verified") is False:
        return "read-back is not byte-exact"
    if pinned is not None and rec.outputs != pinned:
        return f"outputs {rec.outputs} differ from pinned {pinned}"
    return None
