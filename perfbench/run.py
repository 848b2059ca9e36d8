"""Benchmark of the simulator's host cost on four I/O-pattern workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload restart --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: ``wall_s``
(host seconds in the simulated jobs), ``setup_s`` (``import repro`` plus
world and workload construction), ``peak_rss_mb`` and ``scaling_x2``
(full-size over half-size wall time, same run).  ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics; the traced
pass also writes its spans to ``perfbench/out/``.  See
``perfbench/README.md``.

Every job's simulated outputs are checked: pinned seeds must reproduce
``perfbench/pins.json`` bit-for-bit, verified reads must be byte-exact,
and repeated or traced passes must match the first pass exactly.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PINS = os.path.join(HERE, "pins.json")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("n1-strided", "n1-direct", "nn-create", "restart")
DEFAULT_SEED = 0
SETUP_REHEARSALS = 3
# Per-layer self times must add up to the host time of the traced calls
# within this share; a larger gap means time ran outside any wrapped layer.
SELF_SUM_TOLERANCE = 0.02


def import_program() -> float:
    """Put the checkout's ``src`` first on the path; return ``import repro``
    host seconds."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator source at {SRC}")
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import repro
    seconds = perf_counter() - t0
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")
    return seconds


def load_pins(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    with open(PINS) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def digest(outputs: Dict[str, Any]) -> str:
    blob = json.dumps(outputs, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Checker:
    """Counts jobs attempted and failed, remembering why each failed."""

    def __init__(self, pins: Optional[Dict[str, Any]]):
        self.pins = pins
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, pass_result, reference=None, label: str = "") -> None:
        """Check one pass; *reference* is a pass it must equal job for job."""
        from suite import job_failures

        ref = {j.key: j for j in reference.jobs} if reference is not None else {}
        for rec in pass_result.jobs:
            self.attempted += 1
            pinned = self.pins.get(rec.key) if self.pins is not None else None
            why = job_failures(rec, pinned)
            if why is None and self.pins is not None and rec.key not in self.pins:
                why = "no pinned outputs for this job"
            other = ref.get(rec.key)
            if why is None and other is not None and (
                    rec.outputs != other.outputs or rec.ledger != other.ledger):
                why = f"outputs differ from the {label or 'first'} pass"
            if why is not None:
                self.failures.append(f"{label}{rec.key}: {why}")

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(stages, seconds: float, checker: Checker, import_s: float = 0.0
            ) -> Tuple[Dict[str, Tuple[float, str]], Any]:
    """Untraced passes until *seconds* would be exceeded; end-to-end metrics."""
    from suite import rehearse_setup, run_pass

    setups = [rehearse_setup(stages) for _ in range(SETUP_REHEARSALS)]
    passes = []
    start = perf_counter()
    while True:
        p = run_pass(stages)
        checker.check(p, passes[0] if passes else None, "" if not passes else "repeat ")
        passes.append(p)
        setups.append(p.setup_s)
        if perf_counter() - start + p.setup_s + p.wall_s > seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": (import_s + statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "scaling_x2": (statistics.median(p.size_s(False) / p.size_s(True)
                                         for p in passes), "ratio"),
    }
    print(f"passes: {len(passes)}, wall_s of each: "
          + " ".join(f"{p.wall_s:.3f}" for p in passes))
    return metrics, passes[0]


def trace(stages, checker: Checker, out_path: str
          ) -> Tuple[Dict[str, Tuple[float, str]], Any, List[str]]:
    """One untraced and one traced pass; per-layer metrics and self-checks."""
    from layertrace import LayerTracer
    from suite import run_pass

    base = run_pass(stages)
    checker.check(base)
    tracer = LayerTracer()
    tracer.install()
    try:
        traced = run_pass(stages, on_world=lambda world: setattr(tracer, "env", world.env))
    finally:
        tracer.uninstall()
    checker.check(traced, base, "traced ")

    problems = []
    layers = tracer.layer_self()
    host = traced.build_s + traced.wall_s
    unattributed = 1.0 - sum(layers.values()) / host
    if abs(unattributed) > SELF_SUM_TOLERANCE:
        problems.append(f"layer self times miss {unattributed:.2%} of the traced "
                        f"host time (tolerance {SELF_SUM_TOLERANCE:.0%})")
    os.makedirs(OUT, exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(tracer.export(), f)

    led = traced.ledger
    st, groups, counters = tracer.stat, tracer.groups, tracer.counters
    lookups = led["cache_hits"] + led["cache_misses"]
    m = {
        "sim.self_s": (layers["sim"], "s"),
        "sim.events": (led["events"], "count"),
        "sim.events_per_s": (led["events"] / base.wall_s, "1/s"),
        "sim.fairshare_serves": (st("repro.sim.resources.FairShareServer.serve").calls
                                 + st("repro.sim.resources.FairShareServer.serve_many").calls,
                                 "count"),
        "cluster.self_s": (layers["cluster"], "s"),
        "cluster.fabric_msgs": (led["fabric_msgs"], "count"),
        "cluster.fabric_busy_s": (led["fabric_busy_s"], "sim_s"),
        "cluster.storage_busy_s": (led["storage_busy_s"], "sim_s"),
        "cluster.cache_hit_ratio": (led["cache_hits"] / lookups if lookups else 0.0,
                                    "ratio"),
        "pfs.self_s": (layers["pfs"], "s"),
        "pfs.calls": (tracer.layer_calls("pfs"), "count"),
        "pfs.extent_queries": (st("repro.pfs.extents.FlatMap.query").calls, "count"),
        "pfs.extent_query_s": (st("repro.pfs.extents.FlatMap.query").incl_s, "s"),
        "pfs.bytes_moved": (led["bytes_moved"], "count"),
        "pfs.osd_busy_s": (led["osd_busy_s"], "sim_s"),
        "pfs.osd_seeks": (led["osd_seeks"], "count"),
        "pfs.mds_ops": (led["mds_ops"], "count"),
        "pfs.mds_busy_s": (led["mds_busy_s"], "sim_s"),
        "pfs.mds_wait_s": (st("repro.pfs.mds.MetadataServer.op").sim_s
                           - counters.get("mds_latency_s", 0.0)
                           - led["mds_service_s"], "sim_s"),
        "pfs.lock_wait_s": (st("repro.pfs.locks.RangeLockManager.acquire").sim_s, "sim_s"),
        "pfs.lock_revocations": (led["lock_revocations"], "count"),
        "mpi.self_s": (layers["mpi"], "s"),
        "mpi.collectives": (groups["mpi.collective"].calls, "count"),
        "mpi.split_s": (st("repro.mpi.comm.Comm.split").incl_s, "s"),
        "mpi.coll_wait_s": (groups["mpi.collective"].sim_s, "sim_s"),
        "mpiio.self_s": (layers["mpiio"], "s"),
        "mpiio.calls": (tracer.layer_calls("mpiio"), "count"),
        "plfs.self_s": (layers["plfs"], "s"),
        "plfs.calls": (tracer.layer_calls("plfs"), "count"),
        "plfs.aggregate_s": (groups["plfs.aggregate"].incl_s, "s"),
        "plfs.index_records": (counters.get("index_records", 0), "count"),
        "plfs.index_log_opens": (counters.get("index_log_opens", 0), "count"),
        "plfs.index_open_s": (sum(groups["plfs.open_read"].job_max.values()), "sim_s"),
        "workloads.self_s": (layers["workloads"], "s"),
        "harness.self_s": (layers["harness"], "s"),
        "harness.build_world_s": (st("repro.harness.setup.build_world").incl_s, "s"),
        "trace.overhead": (traced.wall_s / base.wall_s, "ratio"),
        "trace.unattributed": (unattributed, "ratio"),
    }
    return m, base, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    import_s = import_program()
    sys.path.insert(0, HERE)
    import suite

    stages = suite.SCENARIOS[args.workload].stages(args.seed)
    pins = load_pins(args.workload, args.seed)
    checker = Checker(pins)
    problems: List[str] = []
    if args.trace:
        out_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}.json")
        metrics, first, problems = trace(stages, checker, out_path)
        print(f"trace: {out_path}")
    else:
        metrics, first = measure(stages, args.seconds, checker, import_s)

    print(f"workload {args.workload} seed {args.seed}: "
          f"{'pinned' if pins is not None else 'not pinned'}, "
          f"outputs digest {digest(first.outputs())}")
    for key, outputs in first.outputs().items():
        print(f"  {key}: {json.dumps(outputs, sort_keys=True)}")
    for why in checker.failures + problems:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name:26s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not checker.failures and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
