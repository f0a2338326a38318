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

**The replay kernel.**  :meth:`EnvironmentSpec.replay_mask` replays a
whole batch of candidates on one trace in exact Python ints.  The trace
is compiled once: every value the replay reads (acks with pre-history and
offset, pre-history cwnds, ``A``, ``S``, ``L``, range bounds,
``cwnd_min`` and the delay limit) is held as ``value * unit`` over one
common denominator ``unit`` (:class:`ScaledObservations` for what a cwnd
rule reads).  A candidate arrives already compiled to ints over its
space's coefficient denominator ``q`` (``int_rule``) and returns its cwnd
trajectory at ``unit * m``; the kind compares it with the trace values
lifted to the same scale, so each survivor costs int adds, multiplies
and compares only.  The property legs that depend on the trace alone
(utilization, loss, a flow's throughput, and the queue under exact
replay) are decided once per trace.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as _dc_replace
from fractions import Fraction
from math import lcm
from operator import mul

from ..cegis.interfaces import PruningMode
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

    def replay_mask(self, rules, trace, pruning) -> list[bool]:
        """``feasible => desired`` of each compiled rule on a lossless-
        family trace: eager sends from the trace's ``A_0``, feasibility
        by exact arrivals or range membership, the paper's property."""
        cfg = trace.cfg
        T = cfg.T
        limit = cfg.delay_thresh * cfg.C * cfg.D
        bounds = trace.range_bounds()[1:]
        unit = _common_denominator(
            *_observed(trace), *trace.A, limit,
            *(b.upper for b in bounds if b.upper is not None),
        )
        obs = ScaledObservations(trace, unit)
        sends = _Sends(trace, unit, trace.S[:-1], bounds, limit)
        util_ok = trace.S[T] - trace.S[0] >= cfg.util_thresh * cfg.C * T
        # exact feasibility pins the sends to the trace's arrivals
        queue_ok = all(trace.queue(t) <= limit for t in range(T + 1))
        exact = pruning is PruningMode.EXACT
        mask = []
        for rule in rules:
            m, cw = rule.cwnd(obs)
            lead = util_ok or cw[T] > cw[0]
            if lead and cw[T] < cw[0]:
                mask.append(True)  # desired whatever the sends
            elif exact:
                mask.append(not sends.replays(m, cw) or (lead and queue_ok))
            else:
                feasible, q_ok = sends.within_ranges(m, cw)
                mask.append(not feasible or (lead and q_ok))
        return mask


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

    def replay_mask(self, rules, trace, pruning) -> list[bool]:
        # Exact replay regardless of the requested pruning mode (see the
        # module docstring's soundness argument); RANGE intervals are a
        # lossless-only construction.  An exact replay keeps the trace's
        # arrivals and losses, so only the cwnd legs depend on the rule.
        cfg = trace.cfg
        T = cfg.T
        unit = _common_denominator(*_observed(trace), *trace.A, *trace.L)
        obs = ScaledObservations(trace, unit)
        base = [s + l for s, l in zip(trace.S[:-1], trace.L[:-1])]
        sends = _Sends(trace, unit, base)
        util_ok = trace.S[T] - trace.S[0] >= cfg.util_thresh * cfg.C * T
        limit = cfg.delay_thresh * cfg.C * cfg.D
        queue_ok = all(trace.queue(t) <= limit for t in range(T + 1))
        loss_ok = trace.L[T] <= trace.loss_thresh * cfg.C * cfg.D
        mask = []
        for rule in rules:
            m, cw = rule.cwnd(obs)
            if not sends.replays(m, cw):
                mask.append(True)
                continue
            inc, dec = cw[T] > cw[0], cw[T] < cw[0]
            mask.append(
                (util_ok or inc) and (queue_ok or dec) and (loss_ok or dec)
            )
        return mask


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

    def replay_mask(self, rules, trace, pruning) -> list[bool]:
        # exact replay of both flows under one rule (see _Lossy); a flow
        # that starves unless its window still grows decides the property
        cfg = trace.cfg
        T = cfg.T
        unit = _common_denominator(
            *(v for f in trace.flows for v in (*_observed(f), *f.A))
        )
        share = trace.phi * cfg.C * cfg.T / 2
        flows = [
            (
                ScaledObservations(f, unit),
                _Sends(f, unit, f.S[:-1]),
                f.S[T] - f.S[0] >= share,
            )
            for f in trace.flows
        ]
        mask = []
        for rule in rules:
            replayed, desired = True, True
            for obs, sends, thr_ok in flows:
                m, cw = rule.cwnd(obs)
                if not sends.replays(m, cw):
                    replayed = False
                    break
                if not (thr_ok or cw[T] > cw[0]):
                    desired = False
            mask.append(not replayed or desired)
        return mask


class ScaledObservations:
    """What a candidate's cwnd rule reads from one flow of a trace, as
    Python ints over the trace's common denominator: a value ``v`` is
    held as ``v * unit``.

    ``windows[t]`` is ``(ack(t-1), ..., ack(t-h))`` for ``t = 0..T``
    (negative times read the pre-history; acks include the offset),
    ``cwnd_pre[i-1]`` is ``cwnd(-i)`` and ``cwnd_min`` is the floor.
    """

    __slots__ = ("unit", "windows", "cwnd_pre", "cwnd_min", "_lifted", "_sums")

    def __init__(self, flow, unit: int):
        h = len(flow.S_pre)
        ack = _scaled(
            [flow.ack_at(j) for j in range(-h, flow.cfg.T + 1)], unit
        )
        self.unit = unit
        self.windows = [tuple(reversed(ack[t : t + h])) for t in range(len(ack) - h)]
        self.cwnd_pre = _scaled(flow.cwnd_pre, unit)
        self.cwnd_min = _scaled1(flow.cfg.cwnd_min, unit)
        self._lifted: dict[int, tuple] = {}
        self._sums: dict[tuple, list[int]] = {}

    def ack_sums(self, betas: tuple) -> list[int]:
        """``sum_i betas[i-1] * ack(t-i)`` for ``t = 0..T``, at scale
        ``unit`` times the betas' own scale.  Memoised per coefficient
        tuple: the rules of a space that differ only in their constant
        share it."""
        got = self._sums.get(betas)
        if got is None:
            got = self._sums[betas] = [sum(map(mul, betas, w)) for w in self.windows]
        return got

    def lifted(self, q: int) -> tuple[int, list[tuple]]:
        """``(m, steps)`` for a rule that reads its own cwnd history with
        coefficients over ``q``: its cwnd(t) is exact at ``unit *
        q**(t+1)``, so step ``t`` reads its inputs at ``u = unit * q**t``.
        ``steps[t]`` is ``(u, windows[t] * q**t, q**(T-t))``; the last
        factor lifts cwnd(t) to the common output scale ``unit * m``,
        ``m = q**(T+1)``."""
        got = self._lifted.get(q)
        if got is None:
            T = len(self.windows) - 1
            steps = []
            for t, w in enumerate(self.windows):
                k = q**t
                steps.append((self.unit * k, tuple(a * k for a in w), q ** (T - t)))
            got = self._lifted[q] = (q ** (T + 1), steps)
        return got


class _Sends:
    """The eager sender on one flow's recorded values: from the recorded
    ``A_0``, step ``t >= 1`` sends up to ``base[t-1] + cwnd(t)``.  The
    values are ints over ``unit``, lifted once per rule output scale
    ``m``.  ``bounds`` and ``limit`` (lossless range replay) are the
    per-step ``RangeBound`` for ``t >= 1`` and the queue limit."""

    def __init__(self, flow, unit: int, base, bounds=(), limit=0):
        A = _scaled(flow.A, unit)
        # the rule's initial window must admit the recorded initial queue
        self._need0 = A[0] - _scaled1(flow.S_pre[0], unit) if flow.S_pre else None
        self._values = (
            A, _scaled(base, unit),
            _scaled((b.lower for b in bounds), unit),
            [None if b.upper is None else _scaled1(b.upper, unit) for b in bounds],
            [s + _scaled1(limit, unit) for s in _scaled(flow.S, unit)],
        )
        self._memo: dict[int, tuple] = {}

    def _at(self, m: int) -> tuple:
        got = self._memo.get(m)
        if got is None:
            A, base, lo, hi, qlim = self._values
            got = self._memo[m] = (
                None if self._need0 is None else self._need0 * m,
                [a * m for a in A], [b * m for b in base],
                [x * m for x in lo],
                [None if x is None else x * m for x in hi],
                [x * m for x in qlim],
            )
        return got

    def replays(self, m: int, cw: list[int]) -> bool:
        """Does the rule (cwnd ``cw`` at ``unit * m``) reproduce the
        recorded arrivals exactly, step for step?"""
        need0, A, base = self._at(m)[:3]
        if need0 is not None and cw[0] < need0:
            return False
        sent = A[0]
        for b, c, a in zip(base, cw[1:], A[1:]):
            if b + c > sent:
                sent = b + c
            if sent != a:
                return False
        return True

    def within_ranges(self, m: int, cw: list[int]) -> tuple[bool, bool]:
        """``(feasible, queue_ok)``: do the rule's sends stay inside every
        step's range bound, and under the queue limit?"""
        need0, A, base, lo, hi, qlim = self._at(m)
        if need0 is not None and cw[0] < need0:
            return False, True
        sent = A[0]
        queue_ok = sent <= qlim[0]
        for b, c, low, up, q in zip(base, cw[1:], lo, hi, qlim[1:]):
            if b + c > sent:
                sent = b + c
            if sent < low or (up is not None and sent > up):
                return False, queue_ok
            if sent > q:
                queue_ok = False
        return True, queue_ok


def _observed(flow) -> list:
    """The values of one flow a cwnd rule reads (see
    :class:`ScaledObservations`), for its common denominator."""
    return [*flow.S_pre, *flow.S, flow.ack_offset, *flow.cwnd_pre, flow.cfg.cwnd_min]


def _common_denominator(*values) -> int:
    """The least common denominator of exact rational values."""
    return lcm(1, *(Fraction(v).denominator for v in values))


def _scaled1(value, unit: int) -> int:
    value = Fraction(value)
    return value.numerator * (unit // value.denominator)


def _scaled(values, unit: int) -> list[int]:
    return [_scaled1(v, unit) for v in values]


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

    def replay_mask(self, rules, trace, pruning) -> list[bool]:
        """Exact ``feasible => desired`` replay of each compiled rule
        (a candidate's ``int_rule``) on a trace, for generator pruning:
        *this* environment's send recurrence and property, in ints."""
        return self._impl.replay_mask(rules, trace, pruning)


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
