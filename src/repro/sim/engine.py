"""Discrete-event simulation engine.

The whole repro stack (network, file system, MPI, PLFS) runs on this small
coroutine-based engine.  Simulated activities are plain Python generator
functions that ``yield`` :class:`Event` objects; the engine resumes them when
the event fires.  The style matches SimPy's but the implementation is
self-contained and tuned for the bulk-synchronous workloads we simulate:

* yielding an already-triggered event resumes the process inline (no heap
  round-trip), which matters when 65,536 rank processes hammer shared
  resources;
* event callbacks never recurse more than one level — follow-on triggers go
  through the scheduler — so arbitrarily long completion chains cannot
  overflow the Python stack;
* zero-delay scheduling (event ``succeed``/``fail``, process starts and
  completions, condition triggers) bypasses the time heap entirely: such
  events go to a FIFO *immediate queue* drained before simulated time can
  advance.  Bulk-synchronous workloads trigger storms of same-timestamp
  events, and the immediate queue makes each one O(1) instead of
  O(log heap).  The observable order is unchanged: events still fire in
  (time, sequence-id) order, exactly as if everything went through the heap.

Example
-------
>>> env = Engine()
>>> def hello(env):
...     yield env.timeout(1.5)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
1.5
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..errors import DeadlockError, SimulationError

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "describe_event",
    "blocked_report",
]

_PENDING = object()  # sentinel: event value not yet set


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it is *triggered* once :meth:`succeed` or
    :meth:`fail` is called, and *processed* once the engine has run its
    callbacks.  Processes wait on events by ``yield``-ing them.

    Setting ``daemon = True`` *before* the event is scheduled marks it as
    background work: the engine stops once only daemon events remain
    (instrumentation probes use this so they never keep a run alive).

    ``callbacks`` storage is lazy to keep pending events small: ``None``
    while nothing waits, a bare callable for the overwhelmingly common
    single-waiter case, and a list only once a second waiter attaches.
    Use :meth:`_add_callback` rather than touching the attribute.
    """

    __slots__ = ("env", "callbacks", "_value", "_exc", "_processed", "daemon")

    # Class-level flag: plain events need no start hook.  Process overrides
    # it with a per-instance slot so the engine can lazily kick generators
    # off without a throwaway start event (see Engine.step).
    _started = True

    def __init__(self, env: "Engine"):
        self.env = env
        self.callbacks: Any = None
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._processed = False
        self.daemon = False

    # -- state ------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exc is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is fully in the past)."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when triggered successfully (not failed)."""
        return self._value is not _PENDING and self._exc is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if self._exc is not None:
            raise self._exc
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure, if the event failed; else None."""
        return self._exc

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling callbacks for *now*."""
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        env = self.env
        env._eid += 1
        if not self.daemon:
            env._live += 1
        env._immediate.append((env._eid, self))
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates into each waiting process; if nothing is
        waiting when the callbacks run, the engine re-raises it (an unhandled
        simulated failure is a bug in the model, not a condition to swallow).
        """
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._value is not _PENDING or self._exc is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._exc = exc
        env = self.env
        env._eid += 1
        if not self.daemon:
            env._live += 1
        env._immediate.append((env._eid, self))
        return self

    def _add_callback(self, cb: Callable[["Event"], None]) -> None:
        if self._processed:
            raise SimulationError(f"cannot wait on processed event {self!r}")
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = cb
        elif type(cbs) is list:
            cbs.append(cb)
        else:
            self.callbacks = [cbs, cb]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    ``daemon=True`` marks it background work (see :class:`Event`).
    """

    __slots__ = ()

    def __init__(self, env: "Engine", delay: float, value: Any = None,
                 daemon: bool = False):
        # Inlined Event.__init__ + scheduling: timeouts are the single
        # hottest allocation in the simulator, so they pay no super() call.
        if delay < 0:
            raise SimulationError(f"negative timeout {delay!r}")
        self.env = env
        self.callbacks = None
        self._value = value
        self._exc = None
        self._processed = False
        self.daemon = daemon
        env._eid += 1
        if not daemon:
            env._live += 1
        if delay == 0.0:
            env._immediate.append((env._eid, self))
        else:
            heapq.heappush(env._heap, (env._now + delay, env._eid, self))


class _Init:
    """Stand-in for the start 'event' of a process: send(None) semantics."""

    __slots__ = ()
    _exc = None
    _value = None


_INIT = _Init()


class Process(Event):
    """A running simulated activity wrapping a generator.

    A process is itself an event: it triggers with the generator's return
    value when the generator finishes (or fails with its exception), so
    processes can wait on other processes by yielding them.

    The process schedules *itself* for start — the engine's step sees the
    per-instance ``_started = False`` and resumes the generator instead of
    processing a completion, avoiding a throwaway start event per process
    (65,536-rank jobs allocate 65,536 fewer events and callback attaches).
    """

    __slots__ = ("_gen", "name", "_started", "_rcb", "_waiting")

    def __init__(self, env: "Engine", gen: Generator, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process() needs a generator, got {type(gen).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        super().__init__(env)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._started = False
        self._rcb = self._resume  # one bound method, reused for every yield
        self._waiting: Optional[Event] = None
        env._eid += 1
        if not self.daemon:
            env._live += 1
        env._immediate.append((env._eid, self))

    @property
    def alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def waiting_on(self) -> Optional[Event]:
        """The event this process is currently blocked on (None if runnable/done).

        This is what :func:`blocked_report` reads to turn a deadlock into an
        actionable message instead of a bare "queue drained".
        """
        return self._waiting

    def _resume(self, event: Any) -> None:
        """Advance the generator; loop inline over already-triggered yields."""
        gen = self._gen
        while True:
            try:
                if event._exc is not None:
                    target = gen.throw(event._exc)
                else:
                    target = gen.send(event._value)
            except StopIteration as stop:
                self._value = stop.value
                self._finish()
                return
            except BaseException as exc:
                self._exc = exc
                self._finish()
                return
            if not isinstance(target, Event):
                exc = SimulationError(
                    f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
                )
                gen.close()
                self._exc = exc
                self._finish()
                return
            if target._processed:
                # Already processed: consume its value/exception inline.
                event = target
                continue
            cbs = target.callbacks
            if cbs is None:
                target.callbacks = self._rcb
            elif type(cbs) is list:
                cbs.append(self._rcb)
            else:
                target.callbacks = [cbs, self._rcb]
            self._waiting = target
            return

    def _finish(self) -> None:
        """Schedule this process's completion for the current instant."""
        self._waiting = None
        # The stored bound method is a self-cycle; dropping it lets reference
        # counting free the finished process (see Engine.run).
        self._rcb = None
        env = self.env
        env._eid += 1
        if not self.daemon:
            env._live += 1
        env._immediate.append((env._eid, self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"


class AllOf(Event):
    """Triggers when every child event has triggered; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Engine", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        pending = []
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different engines")
            if ev._processed:
                if ev._exc is not None:
                    self.fail(ev._exc)
                    return
            else:
                pending.append(ev)
        self._remaining = len(pending)
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])
            return
        for ev in pending:
            ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Triggers when the first child event triggers; value is that child's value.

    With an empty child list it triggers immediately with ``None``.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Engine", events: Iterable[Event]):
        super().__init__(env)
        self._events = list(events)
        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different engines")
        if not self._events:
            self.succeed(None)
            return
        for ev in self._events:
            if ev._processed:
                self._check(ev)
                return
        for ev in self._events:
            ev._add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
        else:
            self.succeed(event._value)


def describe_event(ev: Optional[Event], depth: int = 1) -> str:
    """One-line human description of what waiting on *ev* means.

    Used by deadlock reports.  Recurses *depth* levels into composite
    events (``AllOf``/``AnyOf``) so "blocked on all_of" becomes "blocked on
    the 3 unfinished children of an all_of", which is what actually
    identifies a stuck fault-injection run.
    """
    if ev is None:
        return "nothing (runnable or never started)"
    server = getattr(ev, "server", None)
    if server is not None:  # a FairShareServer completion (see resources.py)
        state = "PAUSED" if getattr(server, "_paused", False) else f"{server.active} active"
        return (f"service by FairShareServer {server.name or '<unnamed>'!r} "
                f"({state}, capacity {server.capacity:g})")
    if isinstance(ev, Process):
        inner = ""
        if depth > 0 and ev._waiting is not None:
            inner = f" (itself waiting on {describe_event(ev._waiting, depth - 1)})"
        return f"process {ev.name!r}{inner}"
    if isinstance(ev, AllOf):
        pending = [c for c in ev._events if not c._processed]
        inner = ""
        if depth > 0 and pending:
            inner = ", first: " + describe_event(pending[0], depth - 1)
        return f"all_of with {len(pending)}/{len(ev._events)} children pending{inner}"
    if isinstance(ev, AnyOf):
        return f"any_of over {len(ev._events)} events, none fired"
    if isinstance(ev, Timeout):
        return "a timeout that never fired (scheduled past the run horizon?)"
    return f"{type(ev).__name__} at {id(ev):#x}"


def blocked_report(procs: Iterable[Process]) -> str:
    """Multi-line report naming each blocked process and what it waits on."""
    lines = []
    for proc in procs:
        if proc.triggered:
            continue
        lines.append(f"  - {proc.name}: waiting on {describe_event(proc._waiting)}")
    return "\n".join(lines) if lines else "  (no blocked processes tracked)"


class Engine:
    """The event loop: an immediate FIFO plus a time-ordered heap.

    Events scheduled for the *current* instant (triggers, process starts
    and completions) go to the immediate deque; only genuine delays enter
    the heap.  :meth:`step` interleaves the two so that events still fire
    in exact (time, sequence-id) order.

    Typical use::

        env = Engine()
        env.process(my_activity(env))
        env.run()
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List = []
        self._immediate: deque = deque()
        self._eid = 0
        self._live = 0  # scheduled non-daemon events
        self._san = None  # yield-point race sanitizer (see attach_sanitizer)
        self._sched = None  # controlled scheduler (see attach_scheduler)
        # The factories are the hottest constructors in the simulator;
        # binding them as C-level partials (shadowing the documented
        # methods below) removes a Python wrapper frame per call.
        self.event = partial(Event, self)
        self.timeout = partial(Timeout, self)
        self.process = partial(Process, self)
        self.all_of = partial(AllOf, self)
        self.any_of = partial(AnyOf, self)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def sanitizer(self):
        """The attached yield-point race sanitizer, or None (the default)."""
        return self._san

    def attach_sanitizer(self, sanitizer) -> None:
        """Enable yield-point race detection for every future process.

        Rebinds this engine's :meth:`process` factory so each spawned
        generator is wrapped with the sanitizer's per-process *yield
        epoch* counter: the wrapper bumps the epoch and marks the process
        current on every resume, which is what lets shared state proxies
        (:func:`repro.analysis.sanitize.tracked`) tell a same-turn
        read-modify-write from a write acting on a value read before a
        ``yield``.  Call before spawning processes (worlds attach at
        construction).  When never called, nothing in the engine's hot
        paths changes — sanitizing is structurally free when off.
        """
        self._san = sanitizer
        sanitizer._attach(self)
        make = partial(Process, self)

        def _sanitized_process(gen: Generator, name: str = "") -> Process:
            label = name or getattr(gen, "__name__", "process")
            return make(sanitizer.instrument(gen, label), label)

        self.process = _sanitized_process

    @property
    def scheduler(self):
        """The attached controlled scheduler, or None (the default)."""
        return self._sched

    def attach_scheduler(self, scheduler) -> None:
        """Route :meth:`run` through the controlled (model-checking) loop.

        *scheduler* decides tie-breaks among same-instant ready events:

        * ``select(ready)`` — called with the ready set (``(eid, event)``
          pairs sorted by eid) whenever more than one event is runnable at
          the current instant; returns the index to fire.  Index 0 always
          reproduces the engine's default (time, eid) order.
        * ``fired(eid, event)`` — called for every event the controlled
          loop fires, before its callbacks run.
        * ``quiescent(now)`` — called whenever the current instant has
          fully drained (before time advances, and once at the end).

        The stock :meth:`run` loop is untouched when no scheduler is
        attached — exploration is structurally free when off.
        """
        self._sched = scheduler

    def detach_scheduler(self) -> None:
        """Return :meth:`run` to the uncontrolled fast path."""
        self._sched = None

    # -- factory helpers (shadowed by equivalent partials per instance) ----
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None, *,
                daemon: bool = False) -> Timeout:
        """An event firing after *delay* simulated seconds."""
        return Timeout(self, delay, value, daemon=daemon)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Spawn *gen* as a simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all children have."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires with the first child."""
        return AnyOf(self, events)

    def schedule_at(self, t: float, *, daemon: bool = False) -> Event:
        """An event firing at *absolute* simulated time *t* (value ``None``).

        Unlike ``timeout(t - now)``, the fire time is exactly the float
        *t* — no ``now + delay`` re-rounding — which resource models use to
        hit a precomputed deadline bit-for-bit.
        """
        if t < self._now:
            raise SimulationError(f"schedule_at({t}) is in the past (now={self._now})")
        ev = Event(self)
        ev._value = None
        ev.daemon = daemon
        self._eid += 1
        if not daemon:
            self._live += 1
        if t == self._now:
            self._immediate.append((self._eid, ev))
        else:
            heapq.heappush(self._heap, (t, self._eid, ev))
        return ev

    # -- scheduling --------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._eid += 1
        if not event.daemon:
            self._live += 1
        if delay == 0.0:
            self._immediate.append((self._eid, event))
        else:
            heapq.heappush(self._heap, (self._now + delay, self._eid, event))

    def step(self) -> None:
        """Process the next event in (time, sequence-id) order.

        Raises :class:`SimulationError` when both the immediate queue and
        the heap are empty (stepping an exhausted simulation is a bug in
        the caller, not an expected condition).
        """
        imm = self._immediate
        if imm:
            # Every immediate entry is stamped with the current time, but a
            # heap entry may share that timestamp with a smaller sequence id
            # (a timeout armed earlier that lands exactly now) — it must
            # fire first to preserve the global (time, eid) order.
            heap = self._heap
            if heap and heap[0][0] <= self._now and heap[0][1] < imm[0][0]:
                _, _, event = heapq.heappop(heap)
            else:
                _, event = imm.popleft()
        else:
            heap = self._heap
            if not heap:
                raise SimulationError("step() on an empty event queue")
            t, _, event = heapq.heappop(heap)
            if t < self._now:  # pragma: no cover - defensive
                raise SimulationError("time went backwards")
            self._now = t
        if not event.daemon:
            self._live -= 1
        if not event._started:
            # A process awaiting its first resume, not a completion.
            event._started = True
            event._resume(_INIT)
            return
        cbs = event.callbacks
        event.callbacks = None
        event._processed = True
        if cbs is not None:
            if type(cbs) is list:
                for cb in cbs:
                    cb(event)
            else:
                cbs(event)
        elif event._exc is not None:
            # A failed event nobody waited for: surface the bug.
            raise event._exc

    def run(self, until: Optional[float] = None) -> None:
        """Run until only daemon work remains, or until simulated time *until*.

        Daemon events (instrumentation probes) never keep a run alive; they
        stay queued and resume if later real work advances the clock past
        them.

        CPython's cyclic collector is held off for the duration and the
        caller's setting restored on every exit.  The loop's steady state
        is free of reference cycles, so reference counting alone frees
        what it retires; full collections would only re-walk the live
        heap, which at paper scale is hundreds of thousands of objects.
        """
        if until is not None and until < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            if self._sched is not None:
                self._run_controlled(until)
            else:
                self._run_uncontrolled(until)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_uncontrolled(self, until: Optional[float]) -> None:
        """The stock run loop: events fire in exact (time, eid) order."""
        # The loop below is step() inlined (minus the defensive checks that
        # structurally cannot trip here): one Python frame per event is the
        # difference between "tens of minutes" and "minutes" at paper scale.
        imm = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        popleft = imm.popleft
        while self._live > 0:
            if imm:
                if heap and heap[0][0] <= self._now and heap[0][1] < imm[0][0]:
                    _, _, event = heappop(heap)
                else:
                    _, event = popleft()
            elif heap:
                t = heap[0][0]
                if t > horizon:
                    self._now = until
                    return
                _, _, event = heappop(heap)
                self._now = t
            else:
                return
            if not event.daemon:
                self._live -= 1
            if not event._started:
                event._started = True
                event._resume(_INIT)
                continue
            cbs = event.callbacks
            event.callbacks = None
            event._processed = True
            if cbs is not None:
                if type(cbs) is list:
                    for cb in cbs:
                        cb(event)
                else:
                    cbs(event)
            elif event._exc is not None:
                raise event._exc

    def _run_controlled(self, until: Optional[float]) -> None:
        """The model-checker's run loop: every same-instant tie-break is a
        *decision point* delegated to the attached scheduler.

        Instead of firing the single (time, eid)-minimal event, the loop
        materializes the whole ready set of the current instant — all
        immediate entries plus every heap entry already due — and asks the
        scheduler which to fire.  Choosing index 0 at every decision
        reproduces the uncontrolled order exactly (new events always get
        larger sequence ids, so the eid-minimal ready event is the one
        :meth:`run` would have fired).  Unchosen events go back on the
        immediate queue; the re-gather-and-sort next iteration restores
        the global order among them.
        """
        sched = self._sched
        imm = self._immediate
        heap = self._heap
        heappop = heapq.heappop
        horizon = float("inf") if until is None else until
        while self._live > 0:
            ready = []
            while heap and heap[0][0] <= self._now:
                _, eid, ev = heappop(heap)
                ready.append((eid, ev))
            while imm:
                ready.append(imm.popleft())
            if not ready:
                if not heap:
                    break
                sched.quiescent(self._now)
                t = heap[0][0]
                if t > horizon:
                    self._now = until
                    return
                self._now = t
                continue
            if len(ready) > 1:
                ready.sort()
                choice = sched.select(ready)
                eid, event = ready.pop(choice)
                imm.extendleft(reversed(ready))
            else:
                eid, event = ready[0]
            if not event.daemon:
                self._live -= 1
            sched.fired(eid, event)
            if not event._started:
                event._started = True
                event._resume(_INIT)
                continue
            cbs = event.callbacks
            event.callbacks = None
            event._processed = True
            if cbs is not None:
                if type(cbs) is list:
                    for cb in cbs:
                        cb(event)
                else:
                    cbs(event)
            elif event._exc is not None:
                raise event._exc
        sched.quiescent(self._now)

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn *gen*, run to completion, return its result.

        Raises :class:`DeadlockError` if the event queue drains while the
        process is still blocked (a modeling bug: something never released).
        """
        proc = self.process(gen, name)
        self.run()
        if not proc.triggered:
            raise DeadlockError(
                f"event queue drained at t={self._now:g} with blocked processes:\n"
                + blocked_report([proc]))
        return proc.value
