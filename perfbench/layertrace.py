"""Per-layer host-time tracing of the simulator, from outside ``src/``.

:class:`LayerTracer` wraps every public function and method of each layer
package (``repro.sim``, ``repro.cluster``, ... ``repro.harness``) and
every simulated process, then puts the originals back on
:meth:`~LayerTracer.uninstall`.  Nothing in the program changes.

Simulated processes are generators, and a layer call that yields lives
across many resumes.  Each resume is timed and charged to the innermost
open layer call of the process being resumed: the engine resumes one
process at a time, and the resumes of a ``yield from`` chain nest, so one
global stack of open frames is always exactly that process's chain.  A
call's *self* time is its time minus the time of the wrapped calls it
made.  For each generator call the tracer also records the simulated time
between its first resume and its return.

Spans are aggregated per (layer, function).  Full spans are kept only for
the coarse calls named in :data:`SPAN_FUNCTIONS`, up to :data:`MAX_SPANS`,
because a pass of ``n1-strided`` makes about ten million layer calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter
from types import FunctionType, GeneratorType
from typing import Any, Dict, List, Optional, Tuple

LAYERS = ("sim", "cluster", "pfs", "mpi", "mpiio", "plfs", "workloads", "harness")

# Functions whose outermost calls are measured together, by group name.
GROUPS = {
    "mpi.collective": [f"repro.mpi.comm.Comm.{op}" for op in (
        "gather", "bcast", "barrier", "allgather", "reduce", "allreduce",
        "scatter", "alltoall", "split")],
    "plfs.aggregate": [f"repro.plfs.aggregation.{fn}" for fn in (
        "aggregate_original", "aggregate_resilient", "aggregate_parallel",
        "read_flattened_index", "flatten_on_close")],
    "plfs.open_read": ["repro.plfs.api.PlfsMount.open_read"],
}

SPAN_FUNCTIONS = frozenset({
    "repro.harness.setup.build_world",
    "repro.workloads.base.run_workload",
    "repro.workloads.metadata_bench.nn_metadata_storm",
    "repro.mpi.runtime.run_job",
    "repro.sim.engine.Engine.run",
    "repro.plfs.api.PlfsMount.open_read",
    "repro.plfs.api.PlfsMount.open_write",
    "repro.plfs.api.PlfsMount.close_write",
    *GROUPS["plfs.aggregate"],
})
MAX_SPANS = 100_000


def _index_records(args, kwargs) -> int:
    # GlobalIndex.add_records(self, logical, ...) / merge_writer / merge.
    other = args[1]
    return len(other.journal) if hasattr(other, "journal") else len(other)


# Counters read off the arguments of a call: qualified name -> (counter, fn).
PROBES = {
    "repro.plfs.index.GlobalIndex.add_records": ("index_records", _index_records),
    "repro.plfs.index.GlobalIndex.merge_writer": ("index_records", _index_records),
    "repro.plfs.index.GlobalIndex.merge": ("index_records", _index_records),
    "repro.pfs.volume.Volume.bulk_read_files":
        ("index_log_opens", lambda args, kwargs: len(args[2])),
    "repro.pfs.mds.MetadataServer.op":
        ("mds_latency_s", lambda args, kwargs: args[0].cfg.mds_latency),
    "repro.mpi.runtime.run_job": ("jobs", lambda args, kwargs: 1),
}


class Stat:
    """Aggregate of one function's calls."""

    __slots__ = ("layer", "name", "calls", "self_s", "incl_s", "sim_s",
                 "active", "groups", "probe", "span")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.calls = 0
        self.self_s = 0.0   # host seconds minus wrapped children
        self.incl_s = 0.0   # host seconds of outermost calls (recursion counted once)
        self.sim_s = 0.0    # simulated seconds inside outermost generator calls
        self.active = 0     # frames of this function on the current stack
        self.groups: Tuple[Group, ...] = ()
        self.probe = None
        self.span = False


class Group:
    """Outermost calls into a set of functions (nested members count once)."""

    __slots__ = ("name", "calls", "incl_s", "sim_s", "active", "job_max")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.incl_s = 0.0
        self.sim_s = 0.0
        self.active = 0
        self.job_max: Dict[int, float] = {}  # job number -> longest call


class LayerTracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    def __init__(self) -> None:
        self.stack: List[list] = []  # open frames: [t_start, child_s, span]
        self.stats: Dict[Any, Stat] = {}
        self.groups = {name: Group(name) for name in GROUPS}
        self.counters: Dict[str, float] = {}
        self.env = None  # engine of the world being run, for simulated time
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        self._undo: List[Tuple[Any, str, Any]] = []
        self._layer_of_file: Dict[str, str] = {}

    # -- installing ----------------------------------------------------------------
    def install(self) -> None:
        modules = sorted((name, mod) for name, mod in sys.modules.items()
                         if (name == "repro" or name.startswith("repro."))
                         and mod is not None)
        for name, mod in modules:
            layer = (name.split(".") + [""])[1]
            if layer in LAYERS and getattr(mod, "__file__", None):
                self._layer_of_file[mod.__file__] = layer
        wrapped: Dict[int, Any] = {}
        for name, mod in modules:
            layer = (name.split(".") + [""])[1]
            if layer not in LAYERS or name.endswith("__main__"):
                continue
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if isinstance(obj, FunctionType):
                    wrapped[id(obj)] = self._wrap(obj, layer, f"{name}.{attr}")
                elif isinstance(obj, type):
                    self._wrap_class(obj, layer, f"{name}.{attr}")
        # Re-point every module-level reference (``from .x import f``).
        for name, mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and isinstance(obj, FunctionType):
                    self._patch(mod, attr, wrapped[id(obj)])
        from repro.sim.engine import Process
        self._patch(Process, "__init__", self._process_init(Process.__init__))

    def _wrap_class(self, cls: type, layer: str, qualname: str) -> None:
        for attr, raw in sorted(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{qualname}.{attr}"
            if isinstance(raw, FunctionType):
                self._patch(cls, attr, self._wrap(raw, layer, name))
            elif isinstance(raw, (staticmethod, classmethod)) and \
                    isinstance(raw.__func__, FunctionType):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, layer, name)))

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _stat(self, key: Any, layer: str, name: str) -> Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat(layer, name)
            stat.groups = tuple(self.groups[g] for g, members in GROUPS.items()
                                if name in members)
            stat.probe = PROBES.get(name)
            stat.span = name in SPAN_FUNCTIONS
        return stat

    # -- wrappers --------------------------------------------------------------------
    def _wrap(self, fn: FunctionType, layer: str, name: str):
        stat = self._stat(name, layer, name)
        drive = self._drive
        if fn.__code__.co_flags & inspect.CO_GENERATOR:

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                if stat.probe is not None:
                    self._count(stat, args, kwargs)
                return drive(stat, fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            if stat.probe is not None:
                self._count(stat, args, kwargs)
            tops = [g for g in stat.groups if g.active == 0]
            frame = self._enter(stat)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(stat, frame)
            if type(result) is GeneratorType and result.gi_code is not _DRIVE_CODE:
                return drive(stat, result)  # a generator made by a private helper
            for g in tops:
                g.calls += 1
            if frame[2] is not None:
                self._span_end(frame[2])
            return result

        return traced

    def _count(self, stat: Stat, args, kwargs) -> None:
        counter, fn = stat.probe
        self.counters[counter] = self.counters.get(counter, 0) + fn(args, kwargs)

    def _enter(self, stat: Stat) -> list:
        stat.active += 1
        for g in stat.groups:
            g.active += 1
        span = None
        if stat.span or not self.stack:
            span = self._span_begin(stat, True)
        frame = [0.0, 0.0, span]
        self.stack.append(frame)
        frame[0] = perf_counter()
        return frame

    def _leave(self, stat: Stat, frame: list) -> None:
        dt = perf_counter() - frame[0]
        stack = self.stack
        stack.pop()
        stat.self_s += dt - frame[1]
        stat.active -= 1
        if stat.active == 0:
            stat.incl_s += dt
        for g in stat.groups:
            g.active -= 1
            if g.active == 0:
                g.incl_s += dt
        if stack:
            stack[-1][1] += dt

    def _drive(self, stat: Stat, gen):
        """Run *gen* one resume at a time, charging each resume to *stat*."""
        groups = stat.groups
        send = gen.send
        value = exc = None
        started = False
        while True:
            if not started:
                started = True
                sim0 = self._now()
                outer = stat.active == 0
                tops = [g for g in groups if g.active == 0]
                for g in tops:
                    g.calls += 1
                span = self._span_begin(stat, False) if stat.span else None
            stat.active += 1
            for g in groups:
                g.active += 1
            frame = [0.0, 0.0, None]
            self.stack.append(frame)
            frame[0] = perf_counter()
            try:
                if exc is None:
                    target = send(value)
                else:
                    target = gen.throw(exc)
            except BaseException as stop:
                self._leave(stat, frame)
                self._finish(stat, outer, tops, sim0, span)
                if isinstance(stop, StopIteration):
                    return stop.value
                raise
            self._leave(stat, frame)
            try:
                value = yield target
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                value, exc = None, thrown

    def _finish(self, stat: Stat, outer: bool, tops, sim0: float, span) -> None:
        sim = self._now() - sim0
        if outer:
            stat.sim_s += sim
        job = self.counters.get("jobs", 0)
        for g in tops:
            g.sim_s += sim
            if sim > g.job_max.get(job, 0.0):
                g.job_max[job] = sim
        if span is not None:
            self._span_end(span)

    def _process_init(self, init):
        """Wrap the generator of every new simulated process as a root frame."""

        def traced_init(proc, env, gen, name=""):
            if type(gen) is GeneratorType and gen.gi_code is not _DRIVE_CODE:
                code = gen.gi_code
                layer = self._layer_of_file.get(code.co_filename, "other")
                stat = self._stat(code, layer, f"{layer}:{code.co_qualname}")
                stat.calls += 1
                driven = self._drive(stat, gen)
                driven.__name__, driven.__qualname__ = gen.__name__, gen.__qualname__
                gen = driven
            init(proc, env, gen, name)

        return traced_init

    # -- spans ----------------------------------------------------------------------
    def _span_begin(self, stat: Stat, plain: bool) -> Optional[list]:
        if len(self.spans) >= MAX_SPANS:
            self.spans_dropped += 1
            return None
        return [stat.name, stat.layer, plain, perf_counter(), self._now()]

    def _span_end(self, span: list) -> None:
        """Keep a finished span: (name, layer, plain, host start, host end,
        sim start, sim end)."""
        self.spans.append((*span, perf_counter(), self._now()))

    def _now(self) -> float:
        return self.env._now if self.env is not None else 0.0

    # -- results ----------------------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for stat in self.stats.values():
            out[stat.layer] = out.get(stat.layer, 0.0) + stat.self_s
        return out

    def layer_calls(self, layer: str) -> int:
        """Calls of the layer's public functions (process roots excluded)."""
        return sum(s.calls for s in self.stats.values()
                   if s.layer == layer and s.name.startswith("repro."))

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat("", name)

    def export(self) -> Dict[str, Any]:
        """Aggregates plus the kept spans, as a Chrome trace-event document.

        Calls that do not yield nest in host time and go on the "host"
        track (pid 1).  Generator calls of concurrent simulated processes
        overlap, so they go on the "simulated" track (pid 2) as async
        slices placed at simulated time.
        """
        t0 = min((s[3] for s in self.spans), default=0.0)
        events: List[dict] = []
        for i, (name, layer, plain, h0, s0, h1, s1) in enumerate(self.spans):
            args = {"host_s": h1 - h0, "sim_s": s1 - s0}
            if plain:
                events.append({"name": name, "cat": layer, "ph": "X", "pid": 1,
                               "tid": 1, "ts": (h0 - t0) * 1e6,
                               "dur": (h1 - h0) * 1e6, "args": args})
            else:
                for ph, ts in (("b", s0), ("e", s1)):
                    events.append({"name": name, "cat": layer, "ph": ph, "pid": 2,
                                   "tid": 1, "id": i, "ts": ts * 1e6, "args": args})
        functions = sorted(
            ({"layer": s.layer, "function": s.name, "calls": s.calls,
              "self_s": s.self_s, "incl_s": s.incl_s, "sim_s": s.sim_s}
             for s in self.stats.values() if s.calls),
            key=lambda row: -row["self_s"])
        groups = {g.name: {"calls": g.calls, "incl_s": g.incl_s, "sim_s": g.sim_s,
                           "job_max_sim_s": sum(g.job_max.values())}
                  for g in self.groups.values()}
        return {"displayTimeUnit": "ms", "traceEvents": events,
                "layers": self.layer_self(), "functions": functions,
                "groups": groups, "counters": self.counters,
                "spans_dropped": self.spans_dropped}


_DRIVE_CODE = LayerTracer._drive.__code__
