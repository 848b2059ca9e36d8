"""Shared test fixtures: simulated worlds wired the way experiments use them."""

import pytest

from repro.harness.setup import World, build_world
from repro.mpi.trace import attach_tracer

# Re-exported for test modules that import from here.
make_world = build_world

__all__ = ["World", "make_world", "traced_world", "world"]


def traced_world(**kw) -> World:
    """A world whose jobs run under a strict collective-trace validator:
    non-congruent collectives or undelivered messages raise at drain."""
    w = build_world(**kw)
    attach_tracer(w.env, strict=True)
    return w


@pytest.fixture
def world() -> World:
    return build_world()
