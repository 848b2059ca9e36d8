"""Experiment harness: world assembly, scales, figures, reporting."""

from .compare import compare_files, compare_results, render_diffs
from .diagnostics import cache_report, resource_report
from .report import Table, render_table, render_tables, save_json
from .scales import PAPER, SMALL, Scale, get_scale
from .setup import World, build_world

__all__ = [
    "compare_files",
    "compare_results",
    "render_diffs",
    "cache_report",
    "resource_report",
    "Table",
    "render_table",
    "render_tables",
    "save_json",
    "PAPER",
    "SMALL",
    "Scale",
    "get_scale",
    "World",
    "build_world",
]
