"""Runtime collective-trace recording and congruence validation.

The collectives behind transformative I/O (Index Flatten's close-time
gather, Parallel Index Read's two-level leader split) are only correct
when every rank of a communicator issues the same collectives with the
same roots.  This module is the one gate for that SPMD contract: with a
:class:`CollectiveTracer` attached to the engine
(``--validate-collectives`` in the harness), every top-level collective
a rank issues is recorded as ``(op, root)`` against its communicator,
and :func:`validate_comm` asserts at job drain that every rank of every
communicator issued the *same* sequence with the *same* roots, and that
no point-to-point message was left undelivered in a mailbox (a send no
rank ever received completes silently otherwise).

Recording is per-communicator, keyed by object identity, so the
sub-communicators of ``split`` validate independently (each color group
must be internally congruent; the groups legitimately differ from each
other).  Composite collectives (``barrier``, ``allgather``,
``allreduce``, ``split``) record once — their nested ``gather``/
``bcast`` building blocks are suppressed by a per-rank depth counter —
so the trace matches the caller's source.  ``split`` records root
``None``: its color argument varies by rank by design.

The tracer is off by default and costs one attribute check per
collective call when detached (benchmarks/bench_analysis.py guards the
overhead at <2%).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import CollectiveMismatchError

__all__ = [
    "CollectiveTracer", "attach_tracer", "pending_recvs",
    "validate_collectives_enabled", "validate_comm", "validate_tracer",
]

_ENV_FLAG = "REPRO_VALIDATE_COLLECTIVES"

# One recorded collective: (operation name, root argument or None).
TraceEntry = Tuple[str, Optional[int]]


def validate_collectives_enabled() -> bool:
    """Is ``REPRO_VALIDATE_COLLECTIVES`` set (the harness flag's channel)?

    An environment variable rather than an argument so ``--jobs`` sweep
    worker processes inherit the setting, same as ``REPRO_SANITIZE``.
    """
    return os.environ.get(_ENV_FLAG, "") not in ("", "0")


class CollectiveTracer:
    """Per-communicator, per-rank collective sequence recorder.

    ``strict`` decides what a detected mismatch does at job drain:
    raise :class:`~repro.errors.CollectiveMismatchError` (harness runs)
    or merely be reported by :func:`validate_comm` for the caller to
    collect (the model checker's oracle mode).
    """

    def __init__(self, strict: bool = True):
        self.strict = strict
        # id(Communicator) -> (Communicator, {rank: [entries]}).  Keyed
        # by identity: split() makes one Communicator per color, and
        # congruence is a per-communicator property.
        self._traces: Dict[int, Tuple[Any, Dict[int, List[TraceEntry]]]] = {}
        self._order: List[int] = []  # deterministic reporting order

    # -- recording ----------------------------------------------------------
    def register(self, shared: Any) -> None:
        """Track *shared* (a Communicator) from its creation."""
        key = id(shared)
        if key not in self._traces:
            self._traces[key] = (shared, {})
            self._order.append(key)

    def record(self, shared: Any, rank: int, op: str,
               root: Optional[int]) -> None:
        """One top-level collective entered by *rank* on *shared*."""
        self.register(shared)
        self._traces[id(shared)][1].setdefault(rank, []).append((op, root))

    # -- validation ---------------------------------------------------------
    def trace_of(self, shared: Any) -> Dict[int, List[TraceEntry]]:
        """rank -> recorded sequence for *shared* (empty if untouched)."""
        entry = self._traces.get(id(shared))
        return entry[1] if entry is not None else {}

    def comms(self) -> List[Any]:
        """Every registered communicator, in creation order."""
        return [self._traces[k][0] for k in self._order]


def _mismatch_of(shared: Any,
                 by_rank: Dict[int, List[TraceEntry]]) -> Optional[str]:
    """Describe the first non-congruence on one communicator, or None."""
    if not by_rank:
        return None  # no collectives on this comm: trivially congruent
    size = getattr(shared, "size", max(by_rank) + 1)
    name = getattr(shared, "name", "comm")
    seqs = {r: by_rank.get(r, []) for r in range(size)}
    longest = max(len(s) for s in seqs.values())
    for i in range(longest):
        entries = {r: (s[i] if i < len(s) else None)
                   for r, s in sorted(seqs.items())}
        distinct = set(entries.values())
        if len(distinct) == 1:
            continue
        parts = []
        for r in sorted(entries):
            e = entries[r]
            parts.append(f"rank {r}: " + (
                f"{e[0]}(root={e[1]})" if e is not None else "(nothing)"))
        return (f"communicator {name!r}: per-rank traces diverge at "
                f"collective #{i}: " + "; ".join(parts))
    return None


def _family(shared: Any) -> Iterator[Any]:
    """*shared* and, recursively, its split sub-communicators."""
    yield shared
    splits = getattr(shared, "_splits", None) or {}
    for key in sorted(splits, key=repr):
        yield from _family(splits[key])


def _mailbox_lines(shared: Any, what: str,
                   count: Callable[[Any], int]) -> List[str]:
    """One line per mailbox of *shared* where ``count(box)`` is nonzero."""
    return [f"communicator {shared.name!r}: {n} {what} in mailbox "
            f"(dst={dst}, src={src}, tag={tag!r})"
            for (dst, src, tag), box in shared._mail.items()  # repro: noqa[REP004] -- insertion order is event order
            if (n := count(box))]


def _errors_of(tracer: CollectiveTracer, shared: Any) -> List[str]:
    msg = _mismatch_of(shared, tracer.trace_of(shared))
    return (([msg] if msg is not None else [])
            + _mailbox_lines(shared, "undelivered message(s)", len))


def validate_comm(tracer: CollectiveTracer, shared: Any) -> List[str]:
    """Congruence and undelivered-message errors for *shared* and
    (recursively) its splits."""
    return [e for comm in _family(shared) for e in _errors_of(tracer, comm)]


def validate_tracer(tracer: CollectiveTracer) -> List[str]:
    """The same errors across every communicator the tracer saw."""
    return [e for comm in tracer.comms() for e in _errors_of(tracer, comm)]


def pending_recvs(shared: Any) -> List[str]:
    """Receives still waiting on *shared* or its splits: what a
    deadlocked job's ranks are blocked on, by ``(dst, src, tag)``."""
    return [line for comm in _family(shared)
            for line in _mailbox_lines(comm, "waiting recv(s)",
                                       lambda box: len(box._getters))]


def attach_tracer(env: Any, strict: bool = True) -> CollectiveTracer:
    """Attach a :class:`CollectiveTracer` to *env*; idempotent.

    Communicators created on *env* afterwards pick the tracer up from
    ``env.collective_tracer`` (mirroring the sanitizer's attachment
    protocol) and :func:`~repro.mpi.runtime.run_job` validates at
    drain, raising :class:`~repro.errors.CollectiveMismatchError` when
    *strict*.
    """
    tracer = getattr(env, "collective_tracer", None)
    if tracer is None:
        tracer = CollectiveTracer(strict=strict)
        env.collective_tracer = tracer
    return tracer


def check_at_drain(tracer: CollectiveTracer, shared: Any,
                   job_name: str) -> List[str]:
    """Drain-time validation used by ``run_job``: validate *shared* and
    its splits; raise when strict, else return the error list."""
    errors = validate_comm(tracer, shared)
    if errors and tracer.strict:
        raise CollectiveMismatchError(
            f"job {job_name!r}: non-congruent collective traces or "
            f"undelivered messages ({len(errors)} error(s)):\n  "
            + "\n  ".join(errors))
    return errors
