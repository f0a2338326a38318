"""Exact JSON serialization of CEGIS state (Fractions survive round-trips).

Checkpoints must reproduce solver-visible state *bit-for-bit*: a
counterexample trace that comes back as a float would change which
candidates the generator prunes.  Every rational is therefore encoded as
its exact ``Fraction`` string (``"3/2"``) and parsed back with
``Fraction(str)``.

Also home to :func:`query_fingerprint`: a stable SHA-256 digest of the
*semantic* content of a :class:`~repro.core.synthesizer.SynthesisQuery`
(search space, network model, pruning mode, generator backend).  Resuming
a checkpoint under a different fingerprint is a hard error — volatile
knobs (budgets, iteration caps, portfolio width) are deliberately excluded so a
run may be resumed with, say, a larger time budget.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Sequence

from ..ccac import ModelConfig
from ..ccac.environments import (
    EnvironmentSpec,
    default_environments,
    environment_from_json,
    lossless_environment,
)
from ..ccac.trace import CexTrace

__all__ = [
    "decode_candidate",
    "decode_config",
    "decode_environments",
    "decode_query",
    "decode_spec",
    "decode_trace",
    "encode_candidate",
    "encode_config",
    "encode_environments",
    "encode_query",
    "encode_spec",
    "encode_trace",
    "query_fingerprint",
]


def _frac(value) -> str:
    return str(Fraction(value))


def _fracs(values: Sequence) -> list[str]:
    return [_frac(v) for v in values]


def _unfrac(value: str) -> Fraction:
    return Fraction(value)


def _unfracs(values: Sequence[str]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


# -- candidates ---------------------------------------------------------------

def encode_candidate(candidate) -> dict:
    return {
        "alphas": _fracs(candidate.alphas),
        "betas": _fracs(candidate.betas),
        "gamma": _frac(candidate.gamma),
    }


def decode_candidate(data: dict):
    from ..core.template import CandidateCCA

    return CandidateCCA(
        alphas=_unfracs(data["alphas"]),
        betas=_unfracs(data["betas"]),
        gamma=_unfrac(data["gamma"]),
    )


# -- network model configuration ----------------------------------------------

_CONFIG_INT_FIELDS = ("T", "D", "jitter", "history")
_CONFIG_FRAC_FIELDS = (
    "C",
    "util_thresh",
    "delay_thresh",
    "initial_queue_max",
    "initial_cwnd_max",
    "cwnd_min",
)


def encode_config(cfg: ModelConfig) -> dict:
    data: dict = {name: getattr(cfg, name) for name in _CONFIG_INT_FIELDS}
    data.update({name: _frac(getattr(cfg, name)) for name in _CONFIG_FRAC_FIELDS})
    return data


def decode_config(data: dict) -> ModelConfig:
    kwargs: dict = {name: int(data[name]) for name in _CONFIG_INT_FIELDS}
    kwargs.update({name: _unfrac(data[name]) for name in _CONFIG_FRAC_FIELDS})
    return ModelConfig(**kwargs)


# -- environments -------------------------------------------------------------

def encode_environments(environments) -> list[dict]:
    """Canonical encoding of a query's environment list; an empty list
    names the paper's fragment and encodes as ``[lossless]``."""
    return [env.to_json() for env in environments or default_environments()]


def decode_environments(data) -> tuple[EnvironmentSpec, ...]:
    """Inverse of :func:`encode_environments`; a missing list (an old
    checkpoint or job) decodes to the paper's fragment."""
    if not data:
        return default_environments()
    return tuple(environment_from_json(item) for item in data)


# -- counterexample traces ----------------------------------------------------

def _encode_flat_trace(trace) -> dict:
    data = {
        "A": _fracs(trace.A),
        "S": _fracs(trace.S),
        "W": _fracs(trace.W),
        "cwnd": _fracs(trace.cwnd),
        "S_pre": _fracs(trace.S_pre),
        "cwnd_pre": _fracs(trace.cwnd_pre),
        "ack_offset": _frac(trace.ack_offset),
    }
    return data


def encode_trace(trace) -> dict:
    """Encode any counterexample trace (lossless, lossy, two-flow).

    Lossless is the format's unmarked case, unchanged from the original
    format; variants add a ``"kind"`` discriminator, and every trace
    from another environment carries its origin under ``"env"`` so
    checkpointed counterexamples keep pruning under the right semantics
    on resume.
    """
    env = trace.environment
    if env.kind == "multiflow":
        data: dict = {
            "kind": "twoflow",
            "W": _fracs(trace.W),
            "flows": [_encode_flat_trace(f) for f in trace.flows],
            "min_share": _frac(trace.min_share),
            "phi": _frac(trace.phi),
        }
    else:
        data = _encode_flat_trace(trace)
        if env.kind == "lossy":
            data["kind"] = "lossy"
            data["L"] = _fracs(trace.L)
            data["buffer"] = _frac(trace.buffer)
            data["loss_thresh"] = _frac(trace.loss_thresh)
    if env.kind != "lossless":
        data["env"] = env.to_json()
    return data


def decode_trace(data: dict, cfg: ModelConfig):
    """Inverse of :func:`encode_trace`; a trace without ``"env"`` is
    lossless."""
    environment = lossless_environment()
    if data.get("env") is not None:
        environment = environment_from_json(data["env"])
        cfg = environment.model_config(cfg)
    kind = data.get("kind")
    if kind == "twoflow":
        from ..ccac.multiflow import TwoFlowCexTrace

        return TwoFlowCexTrace(
            cfg=cfg,
            W=_unfracs(data["W"]),
            flows=tuple(decode_trace(f, cfg) for f in data["flows"]),
            environment=environment,
        )
    common = dict(
        cfg=cfg,
        A=_unfracs(data["A"]),
        S=_unfracs(data["S"]),
        W=_unfracs(data["W"]),
        cwnd=_unfracs(data["cwnd"]),
        S_pre=_unfracs(data["S_pre"]),
        cwnd_pre=_unfracs(data["cwnd_pre"]),
        ack_offset=_unfrac(data["ack_offset"]),
        environment=environment,
    )
    if kind == "lossy":
        from ..ccac.lossy import LossyCexTrace

        return LossyCexTrace(L=_unfracs(data["L"]), **common)
    return CexTrace(**common)


# -- template specs and queries -----------------------------------------------

def encode_spec(spec) -> dict:
    return {
        "history": spec.history,
        "use_cwnd_history": spec.use_cwnd_history,
        "coeff_domain": _fracs(spec.coeff_domain),
        "const_domain": None if spec.const_domain is None else _fracs(spec.const_domain),
    }


def decode_spec(data: dict):
    from ..core.template import TemplateSpec

    const = data.get("const_domain")
    return TemplateSpec(
        history=int(data["history"]),
        use_cwnd_history=bool(data["use_cwnd_history"]),
        coeff_domain=_unfracs(data["coeff_domain"]),
        const_domain=None if const is None else _unfracs(const),
    )


def encode_query(query) -> dict:
    """Full description of a query — enough to rebuild it for resume."""
    return {
        "spec": encode_spec(query.spec),
        "cfg": encode_config(query.cfg),
        "pruning": query.pruning.value,
        "worst_case_cex": query.worst_case_cex,
        "generator": query.generator,
        "find_all": query.find_all,
        "max_iterations": query.max_iterations,
        "time_budget": query.time_budget,
        "jobs": query.jobs,
        "environments": encode_environments(query.environments),
    }


def decode_query(data: dict):
    from ..cegis import PruningMode
    from ..core.synthesizer import SynthesisQuery

    return SynthesisQuery(
        spec=decode_spec(data["spec"]),
        cfg=decode_config(data["cfg"]),
        pruning=PruningMode(data["pruning"]),
        worst_case_cex=bool(data["worst_case_cex"]),
        generator=data["generator"],
        find_all=bool(data["find_all"]),
        max_iterations=int(data["max_iterations"]),
        time_budget=data["time_budget"],
        # volatile like the budgets: absent in old checkpoints, and a
        # resumed run may legally change it
        jobs=int(data.get("jobs", 1)),
        # absent in old checkpoints == the lossless default
        environments=decode_environments(data.get("environments")),
    )


#: fields of the encoded query that define its *identity*; budgets and
#: iteration caps are resumable knobs, not identity.  ``environments``
#: is identity: verifying against a different matrix is a different ∃∀
#: question.
_FINGERPRINT_FIELDS = (
    "spec",
    "cfg",
    "pruning",
    "worst_case_cex",
    "generator",
    "find_all",
    "environments",
)


def query_fingerprint(query) -> str:
    """Stable digest of the semantic content of a synthesis query."""
    encoded = encode_query(query)
    canonical = {name: encoded[name] for name in _FINGERPRINT_FIELDS}
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
