"""Integration smoke tests: every figure function runs end-to-end.

A micro scale keeps each figure to seconds while still exercising every
code path the real reproductions use (worlds, sweeps, both stacks,
federation, Cielo preset, table assembly).

They double as the behaviour contract: every table must equal
``golden_micro.json`` bit-for-bit.  A deliberate model change regenerates
that file in the same change and explains the drift.

They are also the collective-congruence gate: every figure runs under
the runtime trace validator (``REPRO_VALIDATE_COLLECTIVES=1``, the
harness's ``--validate-collectives``), so each job's ranks must issue
the same collectives with the same roots and leave no message
undelivered, or the job raises at drain.
"""

import json
from pathlib import Path

import pytest

from repro.harness.figures import FIGURES
from repro.harness.report import render_tables, tables_to_json
from repro.harness.scales import Scale
from repro.units import KB, MB, MiB

MICRO = Scale(
    name="micro",
    fig2_nprocs=8,
    fig2_app_scale=0.05,
    fig4_streams=[4, 8],
    fig4_size_per_proc=1 * MB,
    fig4_transfer=100 * KB,
    fig5_procs=[4, 8],
    fig5_scale=0.05,
    fig7_nprocs=8,
    fig7_files_per_proc=[1, 2],
    fig7_mds_counts=[1, 3],
    fig8_read_procs=[16, 32],
    fig8_meta_procs=[16, 32],
    fig8_size_per_proc=2 * MB,
    fig8_transfer=1 * MiB,
    fig8_mds_counts=[1, 2],
    faults_nprocs=4,
    faults_per_proc=1 * MB,
    faults_work=40.0,
    faults_interval=10.0,
    faults_mtbfs=[20.0],
)

EXPECTED_TABLES = {
    "fig2": {"fig2", "fig2-portability"},
    "fig4": {"fig4a", "fig4b", "fig4c", "fig4d"},
    "fig5": {"fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f"},
    "fig7": {"fig7a", "fig7b"},
    "fig8": {"fig8a", "fig8b", "fig8c", "fig8d"},
    "ablations": {"ablate-threshold", "ablate-groups", "ablate-locks",
                  "ablate-federation", "ablate-index-merge"},
    "headline": {"headline"},
    "diagnose": {"diagnose-direct", "diagnose-direct-cache",
                 "diagnose-plfs", "diagnose-plfs-cache"},
    "faults": {"faults-eff", "faults-rec"},
}


GOLDEN = json.loads((Path(__file__).parent / "golden_micro.json").read_text())


@pytest.mark.parametrize("name", sorted(set(FIGURES) - {"headline"}))
def test_figure_runs_at_micro_scale(name, monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE_COLLECTIVES", "1")
    tables = FIGURES[name](MICRO)
    assert {t.id for t in tables} == EXPECTED_TABLES[name]
    for t in tables:
        assert t.rows, f"{t.id} produced no rows"
        assert all(len(r) == len(t.columns) for r in t.rows)
    # Rendering and JSON conversion must not choke on any cell type.
    text = render_tables(tables)
    assert all(t.id in text for t in tables)
    blob = tables_to_json(tables)
    assert set(blob) == EXPECTED_TABLES[name]
    for table_id, table in blob.items():
        assert json.loads(json.dumps(table, default=str)) == GOLDEN[table_id], \
            f"{table_id} drifted from golden_micro.json"
