"""Two-flow CCAC model for fairness / starvation queries (paper §4.1).

The paper's "next steps" call out co-existence objectives and the open
starvation question ("Recent work showed that network delays can cause
competing flows to starve for many known CCAs...  It is unknown if a CCA
outside this class can avoid starvation").  This module provides the
model those queries need: two flows of the *same* candidate CCA sharing
one jittery token-bucket link.

Aggregate service follows exactly the single-flow constraints; the split
between flows is adversarial, softened by one explicit assumption knob:

    ``min_share``: a backlogged flow receives at least this fraction of
    each step's aggregate service.

``min_share = 0`` is the fully adversarial split (any scheduler,
including one that never serves a flow); CCAC leaves multi-flow service
discipline out of scope, so the knob *is* the environment assumption —
the fairness analogue of the §4.1 assumption-synthesis story, and the
test suite sweeps it.

The starvation property checked is the induction-friendly per-flow form:

    for each flow i:  throughput_i >= phi * fair_share  OR  cwnd_i grows
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..smt import And, Not, Or, Real, RealVal, Term, encode_max
from .config import ModelConfig
from .environments import EnvironmentSpec
from .model import CcacModel
from .trace import CexTrace


class TwoFlowModel:
    """Two window-limited senders sharing one CCAC link."""

    def __init__(self, cfg: ModelConfig, min_share: Fraction = Fraction(0), prefix: str = "mf"):
        if not (0 <= min_share <= Fraction(1, 2)):
            raise ValueError("min_share must be in [0, 1/2]")
        self.cfg = cfg
        self.min_share = Fraction(min_share)
        self.prefix = prefix
        ts = range(cfg.T + 1)
        h = cfg.history
        self.W = [Real(f"{prefix}_W_{t}") for t in ts]
        self.flows = []
        for i in (1, 2):
            flow = {
                "A": [Real(f"{prefix}{i}_A_{t}") for t in ts],
                "S": [Real(f"{prefix}{i}_S_{t}") for t in ts],
                "cwnd": [Real(f"{prefix}{i}_cwnd_{t}") for t in ts],
                "S_pre": [Real(f"{prefix}{i}_S_m{j}") for j in range(1, h + 1)],
                "cwnd_pre": [Real(f"{prefix}{i}_cwnd_m{j}") for j in range(1, h + 1)],
                "ack_offset": Real(f"{prefix}{i}_ackoff"),
            }
            self.flows.append(flow)

    # -- single-flow views so CandidateCCA.constraints_for can be reused ----

    def flow_view(self, i: int) -> "FlowView":
        return FlowView(self, i)

    def total_S(self, t: int) -> Term:
        return self.flows[0]["S"][t] + self.flows[1]["S"][t]

    def total_A(self, t: int) -> Term:
        return self.flows[0]["A"][t] + self.flows[1]["A"][t]

    def tokens(self, t: int) -> Term:
        return RealVal(self.cfg.C * t) - self.W[t]

    # ------------------------------------------------------------------

    def environment_constraints(self) -> list[Term]:
        cfg = self.cfg
        cons: list[Term] = [self.W[0].eq(0)]
        for flow in self.flows:
            cons.append(flow["S"][0].eq(0))
            cons.append(flow["A"][0] >= 0)
            cons.append(flow["A"][0] <= RealVal(cfg.initial_queue_max))
            cons.append(flow["A"][0] <= flow["S_pre"][0] + flow["cwnd"][0])
            cons.append(flow["ack_offset"] >= 0)
            prev = flow["S"][0]
            for j in range(1, cfg.history + 1):
                s = flow["S_pre"][j - 1]
                cons.append(s <= prev)
                cons.append(s >= RealVal(-cfg.C * j))
                prev = s
            for cw in flow["cwnd_pre"]:
                cons.append(cw >= RealVal(cfg.cwnd_min))
                cons.append(cw <= RealVal(cfg.initial_cwnd_max))
        for t in range(1, cfg.T + 1):
            cons.append(self.W[t] >= self.W[t - 1])
            # aggregate token bucket + jittered lower bound
            cons.append(self.total_S(t) <= self.tokens(t))
            if t >= cfg.jitter:
                back = t - cfg.jitter
                cons.append(
                    self.total_S(t) >= RealVal(cfg.C * back) - self.W[back]
                )
            # waste only when both senders jointly token-limited
            cons.append(
                Or(self.W[t].eq(self.W[t - 1]), self.total_A(t) <= self.tokens(t))
            )
            for flow in self.flows:
                cons.append(flow["A"][t] >= flow["A"][t - 1])
                cons.append(flow["S"][t] >= flow["S"][t - 1])
                cons.append(flow["S"][t] <= flow["A"][t])
            # minimum-share scheduling assumption: a backlogged flow gets
            # at least min_share of the step's aggregate service
            if self.min_share > 0:
                for flow in self.flows:
                    step_i = flow["S"][t] - flow["S"][t - 1]
                    step_tot = self.total_S(t) - self.total_S(t - 1)
                    backlogged = flow["A"][t - 1] - flow["S"][t - 1] > 0
                    cons.append(
                        Or(
                            Not(backlogged),
                            step_i >= RealVal(self.min_share) * step_tot,
                        )
                    )
        return cons

    def sender_constraints(self) -> list[Term]:
        cons: list[Term] = []
        for flow in self.flows:
            for t in range(1, self.cfg.T + 1):
                cons.append(
                    encode_max(
                        flow["A"][t],
                        [flow["A"][t - 1], flow["S"][t - 1] + flow["cwnd"][t]],
                    )
                )
        return cons

    def constraints(self) -> list[Term]:
        return self.environment_constraints() + self.sender_constraints()

    # -- properties ------------------------------------------------------

    def no_starvation(self, phi: Fraction) -> Term:
        """Per-flow: throughput at least phi * fair share, or the flow's
        cwnd is still growing (ramping up)."""
        cfg = self.cfg
        fair = cfg.C * cfg.T / 2
        parts = []
        for flow in self.flows:
            thr = flow["S"][cfg.T] - flow["S"][0]
            growing = flow["cwnd"][cfg.T] > flow["cwnd"][0]
            parts.append(Or(thr >= RealVal(Fraction(phi) * fair), growing))
        return And(*parts)


class FlowView:
    """Adapter exposing one flow of a :class:`TwoFlowModel` through the
    single-flow :class:`~repro.ccac.model.CcacModel` attribute interface,
    so template ``constraints_for`` works unchanged."""

    def __init__(self, parent: TwoFlowModel, index: int):
        flow = parent.flows[index]
        self.cfg = parent.cfg
        self.prefix = f"{parent.prefix}{index + 1}"
        self.A = flow["A"]
        self.S = flow["S"]
        self.W = parent.W
        self.cwnd = flow["cwnd"]
        self.S_pre = flow["S_pre"]
        self.cwnd_pre = flow["cwnd_pre"]
        self.ack_offset = flow["ack_offset"]

    def S_at(self, t: int) -> Term:
        if t >= 0:
            return self.S[t]
        return self.S_pre[-t - 1]

    def cwnd_at(self, t: int) -> Term:
        if t >= 0:
            return self.cwnd[t]
        return self.cwnd_pre[-t - 1]

    def ack_at(self, t: int) -> Term:
        return self.S_at(t) + self.ack_offset


@dataclass(frozen=True)
class TwoFlowCexTrace:
    """A starvation counterexample: two per-flow traces sharing one
    link's waste process; the assumption knobs they ran under
    (``min_share``, ``phi``) are parameters of its ``multiflow``
    environment."""

    cfg: ModelConfig
    W: tuple[Fraction, ...]
    flows: tuple[CexTrace, CexTrace]
    environment: EnvironmentSpec = field(compare=False, repr=False)

    @classmethod
    def from_model(
        cls, model, net: TwoFlowModel, environment: EnvironmentSpec
    ) -> "TwoFlowCexTrace":
        ts = range(net.cfg.T + 1)
        W = tuple(model.value(net.W[t]) for t in ts)
        flows = tuple(
            CexTrace(
                cfg=net.cfg,
                A=tuple(model.value(flow["A"][t]) for t in ts),
                S=tuple(model.value(flow["S"][t]) for t in ts),
                W=W,
                cwnd=tuple(model.value(flow["cwnd"][t]) for t in ts),
                S_pre=tuple(model.value(v) for v in flow["S_pre"]),
                cwnd_pre=tuple(model.value(v) for v in flow["cwnd_pre"]),
                ack_offset=model.value(flow["ack_offset"]),
            )
            for flow in net.flows
        )
        return cls(cfg=net.cfg, W=W, flows=flows, environment=environment)

    @property
    def min_share(self) -> Fraction:
        return self.environment.param("min_share")

    @property
    def phi(self) -> Fraction:
        return self.environment.param("phi")

    def total_S(self, t: int) -> Fraction:
        return self.flows[0].S[t] + self.flows[1].S[t]

    def total_A(self, t: int) -> Fraction:
        return self.flows[0].A[t] + self.flows[1].A[t]

    def throughputs(self) -> tuple[Fraction, Fraction]:
        T = self.cfg.T
        return tuple(f.S[T] - f.S[0] for f in self.flows)

    # -- independent numeric replay ------------------------------------

    def check_environment(self) -> list[str]:
        """Re-validate the two-flow network constraints numerically."""
        cfg = self.cfg
        errors: list[str] = []
        if self.W[0] != 0:
            errors.append(f"W_0 = {self.W[0]} != 0")
        for i, flow in enumerate(self.flows, start=1):
            if flow.S[0] != 0:
                errors.append(f"flow {i}: S_0 != 0")
            if not (0 <= flow.A[0] <= cfg.initial_queue_max):
                errors.append(f"flow {i}: A_0 outside initial queue box")
            if flow.S_pre and flow.A[0] > flow.S_pre[0] + flow.cwnd[0]:
                errors.append(f"flow {i}: initial queue exceeds initial window")
            prev = flow.S[0]
            for j, s in enumerate(flow.S_pre, start=1):
                if s > prev:
                    errors.append(f"flow {i}: pre-history S not monotone at -{j}")
                if s < -cfg.C * j:
                    errors.append(f"flow {i}: pre-history S below rate bound at -{j}")
                prev = s
            for cw in flow.cwnd_pre:
                if not (cfg.cwnd_min <= cw <= cfg.initial_cwnd_max):
                    errors.append(f"flow {i}: pre-history cwnd outside box")
        for t in range(1, cfg.T + 1):
            if self.W[t] < self.W[t - 1]:
                errors.append(f"W not monotone at {t}")
            tokens = cfg.C * t - self.W[t]
            if self.total_S(t) > tokens:
                errors.append(f"aggregate token bucket violated at {t}")
            if t >= cfg.jitter:
                back = t - cfg.jitter
                if self.total_S(t) < cfg.C * back - self.W[back]:
                    errors.append(f"aggregate lower service violated at {t}")
            if self.W[t] > self.W[t - 1] and self.total_A(t) > tokens:
                errors.append(f"waste condition violated at {t}")
            step_tot = self.total_S(t) - self.total_S(t - 1)
            for i, flow in enumerate(self.flows, start=1):
                if flow.A[t] < flow.A[t - 1]:
                    errors.append(f"flow {i}: A not monotone at {t}")
                if flow.S[t] < flow.S[t - 1]:
                    errors.append(f"flow {i}: S not monotone at {t}")
                if flow.S[t] > flow.A[t]:
                    errors.append(f"flow {i}: causality violated at {t}")
                expected = max(
                    flow.A[t - 1], flow.S[t - 1] + flow.cwnd[t]
                )
                if flow.A[t] != expected:
                    errors.append(f"flow {i}: sender not eager at {t}")
                if self.min_share > 0:
                    backlogged = flow.A[t - 1] - flow.S[t - 1] > 0
                    step_i = flow.S[t] - flow.S[t - 1]
                    if backlogged and step_i < self.min_share * step_tot:
                        errors.append(
                            f"flow {i}: min-share assumption violated at {t}"
                        )
        return errors

    def desired_holds(self) -> bool:
        """No-starvation, computed numerically: each flow reaches
        ``phi * fair_share`` throughput or its cwnd is still growing."""
        cfg = self.cfg
        T = cfg.T
        fair = cfg.C * cfg.T / 2
        for flow in self.flows:
            thr = flow.S[T] - flow.S[0]
            growing = flow.cwnd[T] > flow.cwnd[0]
            if thr < self.phi * fair and not growing:
                return False
        return True

    def __str__(self) -> str:
        thr = self.throughputs()
        parts = [
            f"two-flow trace (min_share={self.min_share}, phi={self.phi}) "
            f"throughputs=({float(thr[0]):.3f}, {float(thr[1]):.3f})"
        ]
        for i, flow in enumerate(self.flows, start=1):
            parts.append(f"flow {i}:")
            parts.append(str(flow))
        return "\n".join(parts)
