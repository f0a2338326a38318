"""The CCA template and its search spaces (paper Eq. ii).

    cwnd(t) = sum_{i=1..h} ( alpha_i * cwnd(t-i) + beta_i * ack(t-i) ) + gamma

``ack(t)`` is cumulative bytes acknowledged by time ``t`` (the model's
``S_t``); coefficients are drawn from a small discrete domain:

* **small**: ``{-1, 0, 1}`` — additive responses only;
* **large**: ``{i/2 : |i| <= 4}`` — includes multiplicative responses.

The *no-cwnd* spaces pin every ``alpha_i`` to 0 (5 free parameters with
``h = 4``); the *cwnd* spaces free all ``2h + 1`` parameters.  These are
exactly the four spaces of the paper's Table 1 (3^5, 9^5, 3^9, 9^9).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Iterator, Sequence

from ..ccac import CcacModel
from ..smt import RealVal, Sum, Term, encode_max

SMALL_DOMAIN: tuple[Fraction, ...] = (Fraction(-1), Fraction(0), Fraction(1))
LARGE_DOMAIN: tuple[Fraction, ...] = tuple(Fraction(i, 2) for i in range(-4, 5))


@dataclass(frozen=True)
class CandidateCCA:
    """A concrete filling of the template's holes."""

    alphas: tuple[Fraction, ...]
    betas: tuple[Fraction, ...]
    gamma: Fraction

    @property
    def history(self) -> int:
        return len(self.betas)

    def history_used(self) -> int:
        """RTTs of history the rule actually reads (paper's 2-vs-3-RTT
        classification of the 12 solutions)."""
        used = 0
        for i, (a, b) in enumerate(zip(self.alphas, self.betas), start=1):
            if a != 0 or b != 0:
                used = i
        return used

    def next_cwnd(
        self,
        cwnd_hist: Sequence[Fraction],
        ack_hist: Sequence[Fraction],
        cwnd_min: Fraction = Fraction(0),
    ) -> Fraction:
        """Numerically evaluate the rule (with the model's cwnd floor).

        ``cwnd_hist[i-1]`` is ``cwnd(t-i)`` and ``ack_hist[i-1]`` is
        ``ack(t-i)``; both must have length >= h.
        """
        total = Fraction(self.gamma)
        for i in range(self.history):
            total += self.alphas[i] * Fraction(cwnd_hist[i])
            total += self.betas[i] * Fraction(ack_hist[i])
        return max(total, Fraction(cwnd_min))

    def int_rule(self, q: int | None = None) -> "IntLinearRule":
        """The rule with its coefficients as ints over the denominator
        ``q`` (by default the least one of its own coefficients), for
        the generator's exact integer replay."""
        coeffs = (*self.alphas, *self.betas, self.gamma)
        q = q or coefficient_denominator(coeffs)
        ints = scale_coefficients(coeffs, q)
        h = self.history
        alphas = tuple(ints[:h]) if any(ints[:h]) else None
        return IntLinearRule(q, alphas, tuple(ints[h:-1]), ints[-1])

    def cwnd_term(self, model: CcacModel, t: int) -> Term:
        """The rule as a linear SMT term over the model's variables at t
        (negative indices read the model's pre-history variables)."""
        parts = []
        for i in range(1, self.history + 1):
            if self.alphas[i - 1] != 0:
                parts.append(RealVal(self.alphas[i - 1]) * model.cwnd_at(t - i))
            if self.betas[i - 1] != 0:
                parts.append(RealVal(self.betas[i - 1]) * model.ack_at(t - i))
        parts.append(RealVal(self.gamma))
        return Sum(parts)

    def constraints_for(self, model: CcacModel) -> list[Term]:
        """Template equalities for every in-trace timestep (t >= 0); the
        history the rule reads before t=0 comes from the model's
        adversarially chosen — but rate-consistent — pre-history.

        The window is floored at ``cfg.cwnd_min`` (one MSS), as every
        deployed CCA does: ``cwnd(t) = max(rule(t), cwnd_min)``.
        """
        h = model.cfg.history
        if h != self.history:
            raise ValueError(f"model history {h} != candidate history {self.history}")
        floor = RealVal(model.cfg.cwnd_min)
        return [
            encode_max(model.cwnd[t], [self.cwnd_term(model, t), floor])
            for t in range(0, model.cfg.T + 1)
        ]

    def pretty(self) -> str:
        """Human-readable rule, e.g. ``cwnd(t) = ack(t-1) - ack(t-3) + 1``."""

        def fmt_coeff(c: Fraction, atom: str, first: bool) -> str:
            sign = "-" if c < 0 else ("" if first else "+")
            mag = abs(c)
            body = atom if mag == 1 else f"{mag}*{atom}"
            return f"{sign} {body}" if not first else (f"-{body}" if sign == "-" else body)

        parts: list[str] = []
        for i in range(1, self.history + 1):
            a = self.alphas[i - 1]
            if a != 0:
                parts.append(fmt_coeff(a, f"cwnd(t-{i})", first=not parts))
            b = self.betas[i - 1]
            if b != 0:
                parts.append(fmt_coeff(b, f"ack(t-{i})", first=not parts))
        if self.gamma != 0 or not parts:
            g = self.gamma
            sign = "-" if g < 0 else ("" if not parts else "+")
            parts.append(f"{sign} {abs(g)}" if parts else str(g))
        return "cwnd(t) = " + " ".join(parts)

    def key(self) -> tuple:
        """Hashable identity used for blocking clauses and dedup."""
        return (self.alphas, self.betas, self.gamma)


def coefficient_denominator(values: Iterable[Fraction]) -> int:
    """The least common denominator of a candidate's or a space's
    coefficients."""
    return lcm(1, *(v.denominator for v in values))


def scale_coefficients(values: Sequence[Fraction], q: int) -> list[int]:
    """Each coefficient ``v`` as the int ``v * q``."""
    if any(q % v.denominator for v in values):
        raise ValueError(f"denominator {q} does not clear {values}")
    return [v.numerator * (q // v.denominator) for v in values]


class IntLinearRule:
    """A :class:`CandidateCCA` compiled for exact integer replay: its
    coefficients are ints over ``q`` (``alpha_i = alphas[i-1] / q``;
    ``alphas`` is None when the rule reads no cwnd history)."""

    __slots__ = ("q", "alphas", "betas", "gamma")

    def __init__(self, q: int, alphas, betas, gamma: int):
        self.q, self.alphas, self.betas, self.gamma = q, alphas, betas, gamma

    def cwnd(self, obs) -> tuple[int, list[int]]:
        """``(m, cwnd)``: the clamped rule's cwnd(0..T) on a trace's
        :class:`~repro.ccac.environments.ScaledObservations`, each value
        held as ``value * obs.unit * m``."""
        q, betas = self.q, self.betas
        floor = obs.cwnd_min * q
        if self.alphas is None:
            # sums of acks: every step is exact at unit * q
            g = self.gamma * obs.unit
            return q, [
                c if (c := g + s) > floor else floor for s in obs.ack_sums(betas)
            ]
        # cwnd(t) is exact at unit * q**(t+1): lift the history by q per step
        m, steps = obs.lifted(q)
        alphas, gamma = self.alphas, self.gamma
        hist = obs.cwnd_pre  # cwnd(t-i) at the step's input scale u
        out = []
        for u, w, lift in steps:
            c = gamma * u + sum(map(mul, alphas, hist)) + sum(map(mul, betas, w))
            if c < floor:
                c = floor
            out.append(c * lift)
            hist = [c, *(x * q for x in hist[:-1])]
            floor *= q
        return m, out


def rocc(history: int = 4) -> CandidateCCA:
    """The RoCC rule the paper rediscovers:
    ``cwnd(t) = ack(t-1) - ack(t-3) + 1``."""
    betas = [Fraction(0)] * history
    betas[0] = Fraction(1)
    betas[2] = Fraction(-1)
    return CandidateCCA(
        alphas=tuple([Fraction(0)] * history),
        betas=tuple(betas),
        gamma=Fraction(1),
    )


def paper_eq_iii(history: int = 4) -> CandidateCCA:
    """Paper Eq. iii: ``cwnd(t) = 3/2 ack(t-1) - 1/2 ack(t-2) - ack(t-3)``."""
    betas = [Fraction(0)] * history
    betas[0] = Fraction(3, 2)
    betas[1] = Fraction(-1, 2)
    betas[2] = Fraction(-1)
    return CandidateCCA(
        alphas=tuple([Fraction(0)] * history),
        betas=tuple(betas),
        gamma=Fraction(0),
    )


def constant_cwnd(value: Fraction | int, history: int = 4) -> CandidateCCA:
    """The trivial rule ``cwnd(t) = value`` (a known-bad candidate)."""
    zeros = tuple([Fraction(0)] * history)
    return CandidateCCA(alphas=zeros, betas=zeros, gamma=Fraction(value))


def named_cca(name: str) -> CandidateCCA | None:
    """The template CCA a command line or job names: ``rocc``, ``eq3``
    or ``const:<gamma>``.  None for any other name; a ``const:`` whose
    gamma is not a rational raises ValueError."""
    if name == "rocc":
        return rocc()
    if name == "eq3":
        return paper_eq_iii()
    if name.startswith("const:"):
        gamma = name.split(":", 1)[1]
        try:
            return constant_cwnd(Fraction(gamma))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"malformed CCA {name!r}: const:<gamma> needs a rational "
                f"gamma, got {gamma!r}"
            ) from None
    return None


@dataclass(frozen=True)
class TemplateSpec:
    """A search space over :class:`CandidateCCA` (one Table 1 row)."""

    history: int = 4
    use_cwnd_history: bool = False
    coeff_domain: tuple[Fraction, ...] = SMALL_DOMAIN
    const_domain: tuple[Fraction, ...] | None = None

    @property
    def gamma_domain(self) -> tuple[Fraction, ...]:
        return self.const_domain if self.const_domain is not None else self.coeff_domain

    @property
    def denominator(self) -> int:
        """The coefficient denominator every candidate compiles over."""
        return coefficient_denominator((*self.coeff_domain, *self.gamma_domain))

    @property
    def parameter_count(self) -> int:
        per_lag = 2 if self.use_cwnd_history else 1
        return per_lag * self.history + 1

    @property
    def search_space_size(self) -> int:
        per_lag = 2 if self.use_cwnd_history else 1
        return len(self.coeff_domain) ** (per_lag * self.history) * len(self.gamma_domain)

    def contains(self, cand: CandidateCCA) -> bool:
        """Is the candidate inside this search space?"""
        if cand.history != self.history:
            return False
        if not self.use_cwnd_history and any(a != 0 for a in cand.alphas):
            return False
        if self.use_cwnd_history and any(a not in self.coeff_domain for a in cand.alphas):
            return False
        return (
            all(b in self.coeff_domain for b in cand.betas)
            and cand.gamma in self.gamma_domain
        )

    def make(self, values: Sequence[Fraction]) -> CandidateCCA:
        """Candidate from a flat parameter vector
        (alphas if used, then betas, then gamma)."""
        values = [Fraction(v) for v in values]
        if len(values) != self.parameter_count:
            raise ValueError(f"expected {self.parameter_count} parameters")
        if self.use_cwnd_history:
            alphas = tuple(values[: self.history])
            betas = tuple(values[self.history : 2 * self.history])
            gamma = values[-1]
        else:
            alphas = tuple([Fraction(0)] * self.history)
            betas = tuple(values[: self.history])
            gamma = values[-1]
        return CandidateCCA(alphas, betas, gamma)

    def iterate_candidates(self) -> Iterator[CandidateCCA]:
        """Enumerate the whole space (brute force / enumerative generator):
        the coefficient slots in domain order, gamma fastest."""
        h = self.history
        zeros = (Fraction(0),) * h
        gammas = tuple(map(Fraction, self.gamma_domain))
        domain = tuple(map(Fraction, self.coeff_domain))
        for coeffs in itertools.product(domain, repeat=self.parameter_count - 1):
            alphas, betas = (
                (coeffs[:h], coeffs[h:]) if self.use_cwnd_history else (zeros, coeffs)
            )
            for gamma in gammas:
                yield CandidateCCA(alphas, betas, gamma)

    def int_rules(self) -> Iterator["IntLinearRule"]:
        """``c.int_rule(self.denominator)`` for every ``c`` of
        :meth:`iterate_candidates`, in the same order, built from the
        domains scaled once."""
        q, h = self.denominator, self.history
        gammas = scale_coefficients(self.gamma_domain, q)
        domain = scale_coefficients(self.coeff_domain, q)
        for coeffs in itertools.product(domain, repeat=self.parameter_count - 1):
            if self.use_cwnd_history:
                alphas, betas = coeffs[:h], coeffs[h:]
                alphas = alphas if any(alphas) else None
            else:
                alphas, betas = None, coeffs
            for gamma in gammas:
                yield IntLinearRule(q, alphas, betas, gamma)

    def random_candidate(self, rng: random.Random) -> CandidateCCA:
        per_lag = 2 if self.use_cwnd_history else 1
        coeffs = [rng.choice(self.coeff_domain) for _ in range(per_lag * self.history)]
        coeffs.append(rng.choice(self.gamma_domain))
        return self.make(coeffs)


def table1_spaces(history: int = 4) -> dict[str, TemplateSpec]:
    """The four search spaces of the paper's Table 1."""
    return {
        "no_cwnd_small": TemplateSpec(history, False, SMALL_DOMAIN),
        "no_cwnd_large": TemplateSpec(history, False, LARGE_DOMAIN),
        "cwnd_small": TemplateSpec(history, True, SMALL_DOMAIN),
        "cwnd_large": TemplateSpec(history, True, LARGE_DOMAIN),
    }
