"""Job launcher: spawn N rank processes on the cluster and collect metrics.

A *rank function* is a generator function ``fn(ctx) -> result`` where
``ctx`` is a :class:`RankContext` carrying the rank's communicator view,
its PFS client identity, and a phase clock.  :func:`run_job` runs all
ranks to completion (bulk-synchronous jobs implicitly synchronize through
their own collectives) and reduces the clocks into
:class:`~repro.sim.JobMetrics` the way the paper reports times: phase
times are the max over ranks, and effective bandwidth spans first-open to
last-close (footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List

from ..cluster import Cluster
from ..errors import ConfigError
from ..pfs.volume import Client
from ..sim import Engine, JobMetrics, PhaseClock
from .comm import Comm, Communicator

__all__ = ["RankContext", "JobResult", "run_job"]


@dataclass
class RankContext:
    """Everything one rank needs: identity, comm, storage client, clock."""

    rank: int
    nprocs: int
    comm: Comm
    client: Client
    clock: PhaseClock
    env: Engine
    cluster: Cluster

    @property
    def node(self):
        return self.client.node

    # -- phase bookkeeping -----------------------------------------------------
    def start(self, name: str) -> None:
        """Start timing phase *name* at the current simulated time."""
        self.clock.start(name, self.env.now)

    def stop(self, name: str) -> float:
        """Stop phase *name*; returns its duration."""
        return self.clock.stop(name, self.env.now)


@dataclass
class JobResult:
    """Outcome of one simulated job."""

    nprocs: int
    results: List[Any]
    metrics: JobMetrics
    start_time: float
    end_time: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


def run_job(env: Engine, cluster: Cluster, nprocs: int,
            fn: Callable[[RankContext], Generator], *,
            bytes_total: int = 0, name: str = "job",
            client_id_base: int = 0) -> JobResult:
    """Run *fn* as an *nprocs*-rank job; returns results and reduced metrics.

    The engine is run to completion; a rank that blocks forever raises
    :class:`~repro.errors.DeadlockError` via the engine.  *bytes_total* is
    recorded into the metrics for bandwidth computation (callers know what
    their workload moved logically; the simulator also tracks physical
    bytes separately).  *client_id_base* offsets PFS client identities so
    back-to-back jobs (write then restart) look like distinct job launches.
    """
    if nprocs < 1:
        raise ConfigError(f"job needs >= 1 rank, got {nprocs}")
    nodes = [cluster.node_for_rank(r, nprocs) for r in range(nprocs)]
    shared = Communicator(env, cluster.interconnect, nodes, name=name)
    clocks = [PhaseClock() for _ in range(nprocs)]
    contexts = [
        RankContext(
            rank=r,
            nprocs=nprocs,
            comm=shared.view(r),
            client=Client(node=nodes[r], client_id=client_id_base + r),
            clock=clocks[r],
            env=env,
            cluster=cluster,
        )
        for r in range(nprocs)
    ]
    start = env.now
    procs = [env.process(fn(contexts[r]), name=f"{name}.r{r}") for r in range(nprocs)]
    done = env.all_of(procs)
    # The engine may keep running past the job (fault recoveries, other
    # jobs' stragglers); the job ends when its last rank returns.
    finish_stamp = {}
    done._add_callback(lambda _ev: finish_stamp.setdefault("t", env.now))
    env.run()
    tracer = getattr(env, "collective_tracer", None)
    if not done.triggered:
        # Surface which ranks are stuck *and what each is waiting on* to
        # make model bugs debuggable.
        from ..errors import DeadlockError
        from ..sim import blocked_report

        stuck = [p for p in procs if not p.triggered]
        report = (
            f"job {name!r}: {len(stuck)} of {nprocs} ranks never finished:\n"
            + blocked_report(stuck[:8])
            + ("\n  ..." if len(stuck) > 8 else ""))
        if tracer is not None:
            # A rank-divergent collective or a message sent to the wrong
            # (rank, tag) usually *causes* the hang; the trace comparison
            # and the mailbox check name the exact divergence, which is
            # far more actionable than the generic stuck report.
            from ..errors import CollectiveMismatchError
            from .trace import validate_comm

            trace_errors = validate_comm(tracer, shared)
            if trace_errors:
                raise CollectiveMismatchError(
                    report + "\n  non-congruent collective traces or "
                    "undelivered messages:\n  " + "\n  ".join(trace_errors))
        # A read-only walk of the mailboxes, so it needs no tracer: a rank
        # stuck in recv is named by (dst, src, tag), the same on every run.
        from .trace import pending_recvs

        waiting = pending_recvs(shared)
        if waiting:
            report += "\n  waiting receives:\n  " + "\n  ".join(waiting)
        raise DeadlockError(report)
    if tracer is not None:
        # Quiescent-drain congruence check (--validate-collectives):
        # every rank of this job's communicator — and of every split
        # sub-communicator — must have issued the same collective
        # sequence with the same roots, and every message sent must have
        # been received.  Strict tracers (harness runs)
        # raise CollectiveMismatchError; non-strict ones (the model
        # checker) leave the errors for the oracle pass to collect.
        from .trace import check_at_drain

        check_at_drain(tracer, shared, name)
    metrics = JobMetrics.from_rank_clocks(clocks, bytes_total)
    return JobResult(
        nprocs=nprocs,
        results=[p.value for p in procs],
        metrics=metrics,
        start_time=start,
        end_time=finish_stamp.get("t", env.now),
    )
