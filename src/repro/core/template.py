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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

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

    def replay_cwnd(self, trace, cfg) -> list[Fraction]:
        """The rule's cwnd trajectory on a trace's ack observations: the
        trace supplies the pre-history cwnds, the clamped rule fills
        ``t >= 0``."""
        cwnd: list[Fraction] = []
        for t in range(cfg.T + 1):
            total = Fraction(self.gamma)
            for i in range(1, self.history + 1):
                back = t - i
                if self.alphas[i - 1] != 0:
                    hist = cwnd[back] if back >= 0 else trace.cwnd_at(back)
                    total += self.alphas[i - 1] * hist
                if self.betas[i - 1] != 0:
                    total += self.betas[i - 1] * trace.ack_at(back)
            cwnd.append(max(total, cfg.cwnd_min))
        return cwnd

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
        """Enumerate the whole space (brute force / enumerative generator)."""
        per_lag = 2 if self.use_cwnd_history else 1
        coeff_slots = per_lag * self.history
        for coeffs in itertools.product(self.coeff_domain, repeat=coeff_slots):
            for gamma in self.gamma_domain:
                yield self.make(list(coeffs) + [gamma])

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
