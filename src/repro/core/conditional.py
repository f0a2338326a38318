"""Conditional CCA templates (paper §4.1, "Environment and objectives").

The linear template suffices for lossless networks; the paper's proposed
extension is a guarded template

    if cond then cwnd <- expr1 else cwnd <- expr2

"where cond, expr1, and expr2 are decided by the generator (similar to
Equation ii).  This template expresses traditional CCAs, e.g., for AIMD,
cond is loss detected, expr1 is multiplicative decrease, and expr2 is
additive increments."

Our network is lossless, so the guard observes the *delay signal* instead
of loss: ``cond(t) = [queue-estimate(t) > threshold]`` where the queue
estimate is the window's excess over bytes acked in the last RTT
(``cwnd(t-1) - (ack(t-1) - ack(t-2))``, i.e. data in flight not being
cleared at link rate).  Each branch is a small linear rule over the same
observations:

    branch(t) = mu * cwnd(t-1) + nu * (ack(t-1) - ack(t-3)) + delta

so AIMD is ``cond -> mu=1/2, nu=0, delta=0``, ``!cond -> mu=1, nu=0,
delta=gamma`` and RoCC is both branches ``mu=0, nu=1, delta=1``.

The synthesis query is identical in shape to the linear one.  A
:class:`ConditionalCCA` owns the same two semantics a linear
:class:`~repro.core.template.CandidateCCA` does — the SMT encoding
(:meth:`~ConditionalCCA.constraints_for`) and the exact integer replay
(:meth:`~ConditionalCCA.int_rule`) — so the shared
:class:`~repro.core.verifier.CcacVerifier`,
:class:`~repro.core.generator_enum.EnumerativeGenerator` and
:func:`~repro.core.synthesizer.synthesize` (with ``generator="enum"``)
run it unchanged, in every environment of the matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from ..ccac import CcacModel
from ..smt import Ite, RealVal, Term, encode_max
from .template import (
    CandidateCCA,
    TemplateSpec,
    coefficient_denominator,
    scale_coefficients,
)

#: domains used by the conditional search spaces
MU_DOMAIN: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2),
)
DELTA_DOMAIN: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1))
NU_DOMAIN: tuple[Fraction, ...] = (Fraction(0), Fraction(1))
THRESHOLD_DOMAIN: tuple[Fraction, ...] = (
    Fraction(0), Fraction(1), Fraction(2), Fraction(4),
)


@dataclass(frozen=True)
class ConditionalCCA:
    """A filled conditional template.

    ``cwnd(t) = branch_hi(t)`` when the delay signal exceeds
    ``threshold`` (congestion), else ``branch_lo(t)``; each branch is
    ``mu * cwnd(t-1) + nu * acked-in-2-RTTs + delta``.
    """

    threshold: Fraction
    mu_congested: Fraction
    delta_congested: Fraction
    mu_clear: Fraction
    delta_clear: Fraction
    nu_congested: Fraction = Fraction(0)
    nu_clear: Fraction = Fraction(0)

    def key(self) -> tuple:
        return (
            self.threshold,
            self.mu_congested,
            self.delta_congested,
            self.mu_clear,
            self.delta_clear,
            self.nu_congested,
            self.nu_clear,
        )

    def pretty(self) -> str:
        def branch(mu, nu, delta):
            parts = []
            if mu:
                parts.append(f"{mu}*cwnd(t-1)")
            if nu:
                parts.append(f"{nu}*acked2rtt(t)")
            parts.append(str(delta))
            return " + ".join(parts)

        return (
            f"if queue_est(t) > {self.threshold}: "
            f"cwnd = {branch(self.mu_congested, self.nu_congested, self.delta_congested)} "
            f"else: cwnd = {branch(self.mu_clear, self.nu_clear, self.delta_clear)}"
        )

    def is_aimd_shaped(self) -> bool:
        """Multiplicative decrease under congestion, additive increase
        otherwise — the classic AIMD stability recipe."""
        return (
            self.mu_congested < 1
            and self.delta_congested <= 0
            and self.mu_clear == 1
            and self.delta_clear > 0
        )

    # -- numeric semantics ---------------------------------------------------

    def queue_estimate(
        self, cwnd_prev: Fraction, ack_prev: Fraction, ack_prev2: Fraction
    ) -> Fraction:
        """Delay signal: window not cleared by last RTT's acks."""
        return Fraction(cwnd_prev) - (Fraction(ack_prev) - Fraction(ack_prev2))

    def next_cwnd(
        self,
        cwnd_prev: Fraction,
        ack_prev: Fraction,
        ack_prev2: Fraction,
        ack_prev3: Fraction,
        cwnd_min: Fraction,
    ) -> Fraction:
        congested = self.queue_estimate(cwnd_prev, ack_prev, ack_prev2) > self.threshold
        acked2 = Fraction(ack_prev) - Fraction(ack_prev3)
        if congested:
            raw = (
                self.mu_congested * cwnd_prev
                + self.nu_congested * acked2
                + self.delta_congested
            )
        else:
            raw = self.mu_clear * cwnd_prev + self.nu_clear * acked2 + self.delta_clear
        return max(raw, Fraction(cwnd_min))

    def int_rule(self, q: int | None = None) -> "IntGuardedRule":
        """The rule with its threshold and branch coefficients as ints
        over the denominator ``q`` (by default the least one of its own
        values), for the generator's exact integer replay."""
        values = self.key()
        q = q or coefficient_denominator(values)
        thr, mu_c, d_c, mu_o, d_o, nu_c, nu_o = scale_coefficients(values, q)
        return IntGuardedRule(q, thr, (mu_c, nu_c, d_c), (mu_o, nu_o, d_o))

    # -- SMT semantics ---------------------------------------------------------

    def constraints_for(self, model: CcacModel) -> list[Term]:
        """Template equalities over a network model (concrete candidate,
        so everything is linear)."""
        cfg = model.cfg
        floor = RealVal(cfg.cwnd_min)
        cons: list[Term] = []
        for t in range(0, cfg.T + 1):
            qe = model.cwnd_at(t - 1) - (model.ack_at(t - 1) - model.ack_at(t - 2))
            congested = qe > RealVal(self.threshold)
            acked2 = model.ack_at(t - 1) - model.ack_at(t - 3)
            hi = (
                RealVal(self.mu_congested) * model.cwnd_at(t - 1)
                + RealVal(self.nu_congested) * acked2
                + RealVal(self.delta_congested)
            )
            lo = (
                RealVal(self.mu_clear) * model.cwnd_at(t - 1)
                + RealVal(self.nu_clear) * acked2
                + RealVal(self.delta_clear)
            )
            rule = Ite(congested, hi, lo)
            cons.append(encode_max(model.cwnd[t], [rule, floor]))
        return cons


class IntGuardedRule:
    """A :class:`ConditionalCCA` compiled for exact integer replay: the
    threshold and each branch's ``(mu, nu, delta)`` are ints over ``q``."""

    __slots__ = ("q", "threshold", "congested", "clear")

    def __init__(self, q: int, threshold: int, congested: tuple, clear: tuple):
        self.q, self.threshold = q, threshold
        self.congested, self.clear = congested, clear

    def cwnd(self, obs) -> tuple[int, list[int]]:
        """``(m, cwnd)``: the clamped guarded rule's cwnd(0..T) on a
        trace's :class:`~repro.ccac.environments.ScaledObservations`,
        each value held as ``value * obs.unit * m``.  The rule reads
        cwnd(t-1), so its scale grows by ``q`` per step."""
        q, thr = self.q, self.threshold
        m, steps = obs.lifted(q)
        prev = obs.cwnd_pre[0]  # cwnd(t-1) at the step's input scale u
        floor = obs.cwnd_min * q
        out = []
        for u, w, lift in steps:
            ack1, ack2, ack3 = w[0], w[1], w[2]
            # queue_est > threshold, both sides times u * q
            mu, nu, delta = (
                self.congested if q * (prev - ack1 + ack2) > thr * u else self.clear
            )
            c = mu * prev + nu * (ack1 - ack3) + delta * u
            if c < floor:
                c = floor
            out.append(c * lift)
            prev = c
            floor *= q
        return m, out


def aimd_candidate(
    threshold: Fraction = Fraction(2),
    beta: Fraction = Fraction(1, 2),
    alpha: Fraction = Fraction(1),
) -> ConditionalCCA:
    """The classic AIMD point of the space."""
    return ConditionalCCA(
        threshold=Fraction(threshold),
        mu_congested=Fraction(beta),
        delta_congested=Fraction(0),
        mu_clear=Fraction(1),
        delta_clear=Fraction(alpha),
    )


def rocc_conditional(increment: Fraction = Fraction(1)) -> ConditionalCCA:
    """RoCC expressed in the conditional template: both branches are the
    ack-difference rule (the guard is irrelevant)."""
    return ConditionalCCA(
        threshold=Fraction(0),
        mu_congested=Fraction(0),
        delta_congested=Fraction(increment),
        mu_clear=Fraction(0),
        delta_clear=Fraction(increment),
        nu_congested=Fraction(1),
        nu_clear=Fraction(1),
    )


@dataclass(frozen=True)
class ConditionalSpec:
    """Search space over :class:`ConditionalCCA` (paper §4.1's template)."""

    threshold_domain: tuple[Fraction, ...] = THRESHOLD_DOMAIN
    mu_domain: tuple[Fraction, ...] = MU_DOMAIN
    delta_domain: tuple[Fraction, ...] = DELTA_DOMAIN
    nu_domain: tuple[Fraction, ...] = NU_DOMAIN

    @property
    def denominator(self) -> int:
        """The coefficient denominator every candidate compiles over."""
        return coefficient_denominator((
            *self.threshold_domain, *self.mu_domain,
            *self.delta_domain, *self.nu_domain,
        ))

    @property
    def search_space_size(self) -> int:
        return (
            len(self.threshold_domain)
            * (len(self.mu_domain) * len(self.delta_domain) * len(self.nu_domain)) ** 2
        )

    def iterate_candidates(self) -> Iterator[ConditionalCCA]:
        for thr, mu_c, d_c, nu_c, mu_o, d_o, nu_o in itertools.product(
            self.threshold_domain,
            self.mu_domain,
            self.delta_domain,
            self.nu_domain,
            self.mu_domain,
            self.delta_domain,
            self.nu_domain,
        ):
            yield ConditionalCCA(thr, mu_c, d_c, mu_o, d_o, nu_c, nu_o)

    def int_rules(self) -> Iterator[IntGuardedRule]:
        """``c.int_rule(self.denominator)`` for every ``c`` of
        :meth:`iterate_candidates`, in the same order, built from the
        domains scaled once."""
        q = self.denominator
        thr_d, mu_d, delta_d, nu_d = (
            scale_coefficients(d, q)
            for d in (self.threshold_domain, self.mu_domain,
                      self.delta_domain, self.nu_domain)
        )
        for thr, mu_c, d_c, nu_c, mu_o, d_o, nu_o in itertools.product(
            thr_d, mu_d, delta_d, nu_d, mu_d, delta_d, nu_d
        ):
            yield IntGuardedRule(q, thr, (mu_c, nu_c, d_c), (mu_o, nu_o, d_o))

    def contains(self, cand: ConditionalCCA) -> bool:
        return (
            cand.threshold in self.threshold_domain
            and cand.mu_congested in self.mu_domain
            and cand.mu_clear in self.mu_domain
            and cand.delta_congested in self.delta_domain
            and cand.delta_clear in self.delta_domain
            and cand.nu_congested in self.nu_domain
            and cand.nu_clear in self.nu_domain
        )


#: every candidate type owns its SMT semantics (``constraints_for``) and
#: its numeric semantics (``int_rule``), so one verifier, generator
#: and CEGIS driver serve both template shapes
Candidate = Union[CandidateCCA, ConditionalCCA]
CandidateSpace = Union[TemplateSpec, ConditionalSpec]
