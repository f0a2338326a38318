"""CCAC-lite: the network model used as the CEGIS verifier's environment.

A faithful re-encoding of the lossless / infinite-buffer fragment of CCAC
(Arun et al., SIGCOMM '21) — the fragment the CCmatic paper's evaluation
exercises — expressed over :mod:`repro.smt`.
"""

from .config import ModelConfig
from .model import CcacModel
from .properties import (
    bounded_queue,
    cwnd_decreases,
    cwnd_increases,
    desired_property,
    high_utilization,
    negated_desired,
)
from .lossy import LossyCcacModel, LossyCexTrace, minimum_buffer
from .multiflow import TwoFlowCexTrace, TwoFlowModel
from .trace import CexTrace, RangeBound
from .environments import (
    ENVIRONMENT_VERSION,
    EnvironmentSpec,
    default_environments,
    environment,
    environment_from_json,
    lossless_environment,
    lossy_environment,
    multiflow_environment,
    parse_environment,
    registered_kinds,
)

__all__ = [
    "CcacModel",
    "CexTrace",
    "ENVIRONMENT_VERSION",
    "EnvironmentSpec",
    "ModelConfig",
    "LossyCcacModel",
    "LossyCexTrace",
    "RangeBound",
    "TwoFlowCexTrace",
    "TwoFlowModel",
    "default_environments",
    "environment",
    "environment_from_json",
    "lossless_environment",
    "lossy_environment",
    "multiflow_environment",
    "parse_environment",
    "registered_kinds",
    "bounded_queue",
    "cwnd_decreases",
    "cwnd_increases",
    "desired_property",
    "high_utilization",
    "minimum_buffer",
    "negated_desired",
]
