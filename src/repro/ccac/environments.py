"""First-class network environments: the CCAC matrix behind one protocol.

The paper's evaluation (§4) runs the lossless / infinite-buffer /
single-flow CCAC fragment; :mod:`repro.ccac.lossy` and
:mod:`repro.ccac.multiflow` encode the neighbouring cells of the matrix.
This module names those cells.  An :class:`EnvironmentSpec` is a small,
versioned, JSON-round-trippable value (exact ``Fraction`` parameters)
that knows how to

* build the environment's SMT model for a :class:`~repro.ccac.config.ModelConfig`,
* state the environment's desired property (and its negation),
* assert a candidate's template constraints against the model,
* extract counterexample traces tagged with their origin spec,
* replay a counterexample numerically for *sound* generator pruning.

Registered kinds:

``lossless``
    the paper's fragment (:class:`~repro.ccac.model.CcacModel`).
``lossy``
    finite drop-tail buffer with the loss-budget property leg
    (:class:`~repro.ccac.lossy.LossyCcacModel`); parameters ``buffer``
    (required, > 0) and ``loss_thresh`` (default 1, in ``C*D`` units).
``multiflow``
    two flows of the candidate sharing one link
    (:class:`~repro.ccac.multiflow.TwoFlowModel`); parameters
    ``min_share`` (default 0) and ``phi`` (default 1/4, the starvation
    threshold).
``jitter``
    lossless with the model's jitter bound overridden; parameter
    ``jitter`` (required, integer time units).
``thresholds``
    lossless with the desired-property thresholds overridden; parameters
    ``util_thresh`` and/or ``delay_thresh``.

**Pruning soundness.**  Counterexamples are tagged with their origin
environment, and the generators apply each one only under that
environment's semantics.  Lossless traces keep the paper's exact/range
pruning.  Lossy and two-flow traces prune by *exact replay*: the
candidate's cwnd trajectory is fully determined by the trace's recorded
ack observations, and if replaying the environment's send recurrence on
those cwnds reproduces the recorded arrivals exactly, the entire
recorded trace — with its loss counter / service split / waste — is an
admissible behaviour for the candidate, so the environment's desired
property on that trace decides feasibly and soundly.  A candidate whose
replay diverges is simply not pruned by that trace (conservative, never
unsound): a lossy counterexample can never eliminate behaviour that only
exists in the lossless cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from fractions import Fraction

from ..smt import And, Not, Or, RealVal, Term
from .config import ModelConfig
from .model import CcacModel
from .properties import cwnd_decreases, desired_property

__all__ = [
    "ENVIRONMENT_VERSION",
    "EnvironmentSpec",
    "default_environments",
    "environment",
    "environment_from_json",
    "lossless_environment",
    "lossy_environment",
    "multiflow_environment",
    "parse_environment",
    "registered_kinds",
]

#: schema version of the EnvironmentSpec JSON encoding (gate on decode)
ENVIRONMENT_VERSION = 1


# ---------------------------------------------------------------------------
# kind implementations


class _Kind:
    """One registered environment kind (stateless; parameters arrive as
    an exact-``Fraction`` mapping extracted from the spec)."""

    name: str = ""
    #: parameters that must be supplied
    required: tuple[str, ...] = ()
    #: parameters filled with canonical defaults when omitted
    defaults: dict[str, Fraction] = {}
    #: optional parameters with no default (present only when given)
    optional: tuple[str, ...] = ()

    def check(self, params: dict[str, Fraction]) -> None:
        pass

    def model_config(self, cfg: ModelConfig, params) -> ModelConfig:
        return cfg

    def build_model(self, cfg: ModelConfig, params, prefix: str):
        return CcacModel(cfg, prefix=prefix)

    def desired(self, net, params) -> Term:
        return desired_property(net)

    def candidate_constraints(self, net, candidate) -> list[Term]:
        return list(candidate.constraints_for(net))

    def wce_widths(self, net) -> list[tuple[Term, Term]]:
        """Per-step ``(waste_flat, width)`` pairs for the worst-case
        counterexample search: the range-pruning interval width is
        ``C*t - W_t - S_t`` wherever the waste grew."""
        return [
            (net.W[t].eq(net.W[t - 1]), net.tokens(t) - net.S[t])
            for t in range(1, net.cfg.T + 1)
        ]

    def extract_trace(self, spec: "EnvironmentSpec", model, net):
        from .trace import CexTrace

        return CexTrace.from_model(model, net, spec)

    def replay_satisfies(self, candidate, trace, pruning) -> bool:
        """``feasible => desired`` for this candidate on this trace."""
        from ..core.generator_enum import satisfies_spec

        return satisfies_spec(candidate, trace, trace.cfg, pruning)


class _Lossless(_Kind):
    name = "lossless"


class _Jitter(_Lossless):
    name = "jitter"
    required = ("jitter",)

    def check(self, params) -> None:
        j = params["jitter"]
        if j.denominator != 1 or j < 0:
            raise ValueError("jitter must be a non-negative integer")

    def model_config(self, cfg, params):
        return _dc_replace(cfg, jitter=int(params["jitter"]))


class _Thresholds(_Lossless):
    name = "thresholds"
    optional = ("util_thresh", "delay_thresh")

    def check(self, params) -> None:
        if not params:
            raise ValueError(
                "thresholds environment needs util_thresh and/or delay_thresh"
            )

    def model_config(self, cfg, params):
        overrides = {
            k: Fraction(v)
            for k, v in params.items()
            if k in ("util_thresh", "delay_thresh")
        }
        return _dc_replace(cfg, **overrides)


class _Lossy(_Kind):
    name = "lossy"
    required = ("buffer",)
    defaults = {"loss_thresh": Fraction(1)}

    def check(self, params) -> None:
        if params["buffer"] <= 0:
            raise ValueError("lossy buffer must be positive")
        if params["loss_thresh"] < 0:
            raise ValueError("loss_thresh must be non-negative")

    def build_model(self, cfg, params, prefix):
        from .lossy import LossyCcacModel

        return LossyCcacModel(cfg, buffer=params["buffer"], prefix=prefix)

    def desired(self, net, params) -> Term:
        cfg = net.cfg
        loss_ok = net.L[cfg.T] <= RealVal(
            params["loss_thresh"] * cfg.C * cfg.D
        )
        return And(
            desired_property(net), Or(loss_ok, cwnd_decreases(net))
        )

    def extract_trace(self, spec, model, net):
        from .lossy import LossyCexTrace

        return LossyCexTrace.from_model(model, net, spec)

    def replay_satisfies(self, candidate, trace, pruning) -> bool:
        # Exact replay regardless of the requested pruning mode (see the
        # module docstring's soundness argument); RANGE intervals are a
        # lossless-only construction.
        cwnd = candidate.replay_cwnd(trace, trace.cfg)
        if not _replays_exactly(
            trace, cwnd, lambda t: trace.S[t - 1] + trace.L[t - 1]
        ):
            return True
        return _dc_replace(trace, cwnd=tuple(cwnd)).desired_holds()


class _Multiflow(_Kind):
    name = "multiflow"
    defaults = {"min_share": Fraction(0), "phi": Fraction(1, 4)}

    def check(self, params) -> None:
        if not (0 <= params["min_share"] <= Fraction(1, 2)):
            raise ValueError("min_share must be in [0, 1/2]")
        if not (0 < params["phi"] <= 1):
            raise ValueError("phi must be in (0, 1]")

    def build_model(self, cfg, params, prefix):
        from .multiflow import TwoFlowModel

        return TwoFlowModel(cfg, min_share=params["min_share"], prefix=prefix)

    def desired(self, net, params) -> Term:
        return net.no_starvation(params["phi"])

    def candidate_constraints(self, net, candidate) -> list[Term]:
        cons: list[Term] = []
        for i in (0, 1):
            cons.extend(candidate.constraints_for(net.flow_view(i)))
        return cons

    def wce_widths(self, net) -> list[tuple[Term, Term]]:
        return [
            (net.W[t].eq(net.W[t - 1]), net.tokens(t) - net.total_S(t))
            for t in range(1, net.cfg.T + 1)
        ]

    def extract_trace(self, spec, model, net):
        from .multiflow import TwoFlowCexTrace

        return TwoFlowCexTrace.from_model(model, net, spec)

    def replay_satisfies(self, candidate, trace, pruning) -> bool:
        replayed = []
        for flow in trace.flows:
            cwnd = candidate.replay_cwnd(flow, trace.cfg)
            if not _replays_exactly(flow, cwnd, lambda t, f=flow: f.S[t - 1]):
                return True
            replayed.append(_dc_replace(flow, cwnd=tuple(cwnd)))
        return _dc_replace(trace, flows=tuple(replayed)).desired_holds()


def _replays_exactly(trace, cwnd, window_base) -> bool:
    """Exact replay of the eager sender: the candidate's initial window
    admits the recorded initial queue, and sending up to
    ``window_base(t) + cwnd[t]`` at each step ``t >= 1`` reproduces the
    recorded arrivals step for step."""
    if trace.S_pre and trace.A[0] > trace.S_pre[0] + cwnd[0]:
        return False
    sent = trace.A[0]
    for t in range(1, trace.cfg.T + 1):
        sent = max(sent, window_base(t) + cwnd[t])
        if sent != trace.A[t]:
            return False
    return True


_REGISTRY: dict[str, _Kind] = {
    kind.name: kind
    for kind in (_Lossless(), _Jitter(), _Thresholds(), _Lossy(), _Multiflow())
}


def registered_kinds() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


# ---------------------------------------------------------------------------
# the spec


@dataclass(frozen=True)
class EnvironmentSpec:
    """A named, versioned cell of the CCAC environment matrix.

    ``params`` is canonical: kind-level defaults are filled in and keys
    are sorted, so two specs describing the same environment are equal,
    hash equal, and serialize identically (fingerprint-stable).
    """

    kind: str
    params: tuple[tuple[str, Fraction], ...] = ()
    version: int = ENVIRONMENT_VERSION

    def __post_init__(self):
        if self.kind not in _REGISTRY:
            raise ValueError(
                f"unknown environment kind {self.kind!r} "
                f"(registered: {', '.join(registered_kinds())})"
            )
        impl = _REGISTRY[self.kind]
        given = dict(self.params)
        allowed = set(impl.required) | set(impl.defaults) | set(impl.optional)
        unknown = sorted(set(given) - allowed)
        if unknown:
            raise ValueError(
                f"environment {self.kind!r} does not take parameter(s) "
                f"{', '.join(unknown)}"
            )
        missing = sorted(set(impl.required) - set(given))
        if missing:
            raise ValueError(
                f"environment {self.kind!r} requires parameter(s) "
                f"{', '.join(missing)}"
            )
        canonical = dict(impl.defaults)
        canonical.update(given)
        canonical = {k: Fraction(v) for k, v in canonical.items()}
        impl.check(canonical)
        object.__setattr__(
            self, "params", tuple(sorted(canonical.items()))
        )

    # -- identity ----------------------------------------------------------

    @property
    def _impl(self) -> _Kind:
        return _REGISTRY[self.kind]

    def param(self, name: str) -> Fraction:
        return dict(self.params)[name]

    def key(self) -> str:
        """Canonical human-readable identity, e.g. ``lossy:buffer=2,loss_thresh=1``."""
        if not self.params:
            return self.kind
        args = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}:{args}"

    def describe(self) -> str:
        return self.key()

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": {k: str(v) for k, v in self.params},
            "version": self.version,
        }

    @classmethod
    def from_json(cls, data: dict) -> "EnvironmentSpec":
        version = int(data.get("version", 0))
        if version != ENVIRONMENT_VERSION:
            raise ValueError(
                f"unsupported environment version {version} "
                f"(this build speaks {ENVIRONMENT_VERSION})"
            )
        return cls(
            kind=str(data["kind"]),
            params=tuple(
                (str(k), Fraction(v))
                for k, v in dict(data.get("params", {})).items()
            ),
        )

    # -- the protocol ------------------------------------------------------

    def model_config(self, cfg: ModelConfig) -> ModelConfig:
        """The effective model configuration under this environment
        (jitter / threshold kinds override fields of ``cfg``)."""
        return self._impl.model_config(cfg, dict(self.params))

    def build_model(self, cfg: ModelConfig, prefix: str = "net"):
        """The environment's SMT model (``cfg`` must already be the
        effective config from :meth:`model_config`)."""
        return self._impl.build_model(cfg, dict(self.params), prefix)

    def desired(self, net) -> Term:
        return self._impl.desired(net, dict(self.params))

    def negated_desired(self, net) -> Term:
        return Not(self.desired(net))

    def candidate_constraints(self, net, candidate) -> list[Term]:
        return self._impl.candidate_constraints(net, candidate)

    def wce_widths(self, net) -> list[tuple[Term, Term]]:
        return self._impl.wce_widths(net)

    def extract_trace(self, model, net):
        """Build this environment's counterexample trace from a SAT
        model, tagged with this spec as its origin."""
        return self._impl.extract_trace(self, model, net)

    def replay_satisfies(self, candidate, trace, pruning) -> bool:
        """Numeric ``feasible => desired`` replay for generator pruning
        (applies *this* environment's send recurrence and property)."""
        return self._impl.replay_satisfies(candidate, trace, pruning)


# ---------------------------------------------------------------------------
# constructors


def environment(kind: str, **params) -> EnvironmentSpec:
    """Registry constructor: ``environment("lossy", buffer=2)``."""
    return EnvironmentSpec(
        kind=kind,
        params=tuple((k, Fraction(v)) for k, v in params.items()),
    )


def lossless_environment() -> EnvironmentSpec:
    return environment("lossless")


def lossy_environment(buffer, loss_thresh=Fraction(1)) -> EnvironmentSpec:
    return environment("lossy", buffer=buffer, loss_thresh=loss_thresh)


def multiflow_environment(
    min_share=Fraction(0), phi=Fraction(1, 4)
) -> EnvironmentSpec:
    return environment("multiflow", min_share=min_share, phi=phi)


def default_environments() -> tuple[EnvironmentSpec, ...]:
    """The environment set implied when a query names none: the paper's
    lossless fragment."""
    return (lossless_environment(),)


def environment_from_json(data: dict) -> EnvironmentSpec:
    return EnvironmentSpec.from_json(data)


def parse_environment(text: str) -> EnvironmentSpec:
    """Parse the CLI form ``NAME[:key=val,...]`` (values are exact
    fractions: ``lossy:buffer=2``, ``multiflow:min_share=1/4``)."""
    text = text.strip()
    if not text:
        raise ValueError("empty environment spec")
    kind, _, rest = text.partition(":")
    params: dict[str, Fraction] = {}
    if rest:
        for piece in rest.split(","):
            piece = piece.strip()
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            if not sep:
                raise ValueError(
                    f"malformed environment parameter {piece!r} "
                    f"(expected key=value)"
                )
            try:
                params[key.strip()] = Fraction(value.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(
                    f"environment parameter {key.strip()!r} has "
                    f"non-rational value {value.strip()!r}"
                ) from exc
    return environment(kind.strip(), **params)
