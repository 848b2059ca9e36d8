"""Discrete-event simulation kernel (engine, resources, measurement)."""

from .engine import (AllOf, AnyOf, Engine, Event, Process, Timeout,
                     blocked_report, describe_event)
from .resources import FairShareServer, Mutex, Resource, Store
from .stats import JobMetrics, PhaseClock, Summary, summarize

__all__ = [
    "AllOf",
    "AnyOf",
    "Engine",
    "Event",
    "Process",
    "Timeout",
    "blocked_report",
    "describe_event",
    "FairShareServer",
    "Mutex",
    "Resource",
    "Store",
    "JobMetrics",
    "PhaseClock",
    "Summary",
    "summarize",
]
