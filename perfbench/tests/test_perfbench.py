"""The benchmark's own tests, on micro-sized versions of its four workloads.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import suite
from layertrace import LayerTracer

ROOT = os.path.dirname(run.HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = sorted(suite.MICRO)


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def micro_stages(name, seed=0):
    return suite.MICRO[name](seed)


def test_spec_names_the_suite_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(suite.SCENARIOS)
    assert run.WORKLOADS == tuple(suite.SCENARIOS)
    for w in SPEC["workloads"]:
        assert w["why"] == suite.SCENARIOS[w["name"]].why


def test_default_seed_is_pinned_for_every_workload():
    for name in suite.SCENARIOS:
        assert run.load_pins(name, run.DEFAULT_SEED), name


@pytest.mark.parametrize("name", WORKLOADS)
def test_measure_reports_every_end_to_end_metric(name):
    checker = run.Checker(None)
    metrics, first = run.measure(micro_stages(name), 0.0, checker)
    assert {k: unit for k, (_, unit) in metrics.items()} == units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())
    assert checker.attempted == len(first.jobs) and checker.failures == []


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_reports_every_per_layer_metric(name, tmp_path):
    checker = run.Checker(None)
    out = tmp_path / "trace.json"
    metrics, base, problems = run.trace(micro_stages(name), checker, str(out))
    assert {k: unit for k, (_, unit) in metrics.items()} == units("per_layer")
    assert problems == []
    # The traced pass matched the untraced one job for job, ledger included.
    assert checker.attempted == 2 * len(base.jobs) and checker.failures == []
    doc = json.loads(out.read_text())
    assert doc["traceEvents"] and doc["functions"]
    exact = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    again, _, _ = run.trace(micro_stages(name), run.Checker(None), str(out))
    assert exact == {k: again[k][0] for k in exact}


def test_layer_metrics_follow_the_workload():
    def layers(name):
        metrics, _, _ = run.trace(micro_stages(name), run.Checker(None), os.devnull)
        return {k: v for k, (v, _) in metrics.items()}

    direct, create = layers("n1-direct"), layers("nn-create")
    assert direct["plfs.calls"] == 0 and direct["pfs.lock_revocations"] > 0
    assert create["pfs.bytes_moved"] == 0 and create["plfs.index_records"] == 0
    assert create["pfs.mds_ops"] > 0
    strided = layers("n1-strided")
    assert strided["plfs.index_log_opens"] > 0 and strided["plfs.aggregate_s"] > 0


def test_pins_catch_drift_and_missing_jobs():
    result = suite.run_pass(micro_stages("nn-create"))
    pins = result.outputs()
    ok = run.Checker(pins)
    ok.check(result)
    assert ok.failures == []

    key = result.jobs[0].key
    drifted = dict(pins, **{key: dict(pins[key], open_s=pins[key]["open_s"] * (1 + 1e-15))})
    bad = run.Checker(drifted)
    bad.check(result)
    assert bad.attempted == len(result.jobs) and bad.failed == 1
    assert "differ from pinned" in bad.failures[0]

    missing = run.Checker({k: v for k, v in pins.items() if k != key})
    missing.check(result)
    assert missing.failed == 1 and "no pinned outputs" in missing.failures[0]


def test_repeat_pass_must_match_the_first():
    first = suite.run_pass(micro_stages("n1-direct"))
    second = suite.run_pass(micro_stages("n1-direct"))
    checker = run.Checker(None)
    checker.check(second, first, "repeat ")
    assert checker.failures == []
    second.jobs[1].outputs = dict(second.jobs[1].outputs, read_bw=0.0)
    checker.check(second, first, "repeat ")
    assert checker.failed == 1 and "repeat" in checker.failures[0]


def test_raising_job_fails_the_rest_of_its_stage():
    def boom(world, pattern):
        raise RuntimeError("injected")

    good = micro_stages("n1-direct")[0]
    broken = suite.Stage(label="x", half=True, build=good.build, make=good.make,
                         jobs=(suite.Job("write", boom), good.jobs[1]))
    result = suite.run_pass([broken, good])
    checker = run.Checker(None)
    checker.check(result)
    assert checker.attempted == 4 and checker.failed == 2
    assert "injected" in checker.failures[0]
    assert "not run" in checker.failures[1]


def test_unverified_read_back_fails_the_job():
    rec = suite.JobRecord(key="k", half=False, host_s=1.0,
                          outputs={"read_bw": 1.0, "verified": False})
    assert suite.job_failures(rec, None) == "read-back is not byte-exact"


def test_seed_salts_names_only():
    a, b = micro_stages("restart", 1), micro_stages("restart", 2)
    pa, pb = a[0].make(), b[0].make()
    assert pa.file_path(0) != pb.file_path(0) and pa.seed(0) != pb.seed(0)
    assert micro_stages("restart", 1)[0].make().seed(3) == pa.seed(3)
    assert (pa.nprocs, pa.size_per_proc) == (pb.nprocs, pb.size_per_proc)


def test_tracer_uninstall_restores_the_program():
    import repro
    import repro.workloads.base as base
    from repro.sim.engine import Engine, Process

    before = (repro.build_world, base.run_workload, Engine.run, Process.__init__)
    tracer = LayerTracer()
    tracer.install()
    assert repro.build_world is not before[0]
    tracer.uninstall()
    assert (repro.build_world, base.run_workload, Engine.run, Process.__init__) == before


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "restart",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
