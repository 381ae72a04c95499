"""Testing utilities: deterministic fault injection for federated runs."""

from repro.testing.faults import (
    Fault,
    FaultInjector,
    FaultSchedule,
    FaultyWrapper,
    InjectedFaultError,
    VirtualClock,
)

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultSchedule",
    "FaultyWrapper",
    "InjectedFaultError",
    "VirtualClock",
]
