"""repro.faults — deterministic fault injection and resilience.

The subsystem has two halves.  The *plan* half (:mod:`plan`,
:mod:`policies`) is dependency-light — seeded fault schedules and retry
policies that the storage and middleware layers import freely.  The
*execution* half (:mod:`injector`, :mod:`verify`, :mod:`experiment`)
imports the PLFS and workload stacks, so it is loaded lazily here: eager
imports would cycle (``pfs.volume`` imports ``faults.policies``, which
triggers this package).
"""

from .plan import (COMPONENT_KINDS, FAULT_KINDS, FailureClock, FaultEvent,
                   FaultPlan)
from .policies import RetryPolicy, retrying

__all__ = [
    "COMPONENT_KINDS", "FAULT_KINDS", "FailureClock", "FaultEvent",
    "FaultPlan", "RetryPolicy", "retrying",
    "FaultInjector", "AckedWrite", "RecoveryReport", "verify_recovery",
]

_LAZY = {
    "FaultInjector": "injector",
    "AckedWrite": "verify",
    "RecoveryReport": "verify",
    "verify_recovery": "verify",
}


def __getattr__(name):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{mod}", __name__), name)
