"""Discrete-time network simulator matching the CCAC-lite semantics."""

from .link import AdversaryPolicy, JitteryLink, LinkState
from .runner import SimResult, run_simulation
from .workloads import (
    Workload,
    constant_rate,
    periodic_rate,
    random_walk_rate,
    standard_workloads,
    step_rate,
)

__all__ = [
    "AdversaryPolicy",
    "JitteryLink",
    "LinkState",
    "SimResult",
    "run_simulation",
    "Workload",
    "constant_rate",
    "periodic_rate",
    "random_walk_rate",
    "standard_workloads",
    "step_rate",
]
