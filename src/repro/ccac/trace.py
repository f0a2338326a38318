"""Counterexample traces and the range-pruning bounds derived from them.

A :class:`CexTrace` is a concrete execution of the network model: rational
values for ``A_t, S_t, W_t, cwnd_t``.  Besides pretty-printing, it computes
the CCmatic *range pruning* intervals (paper §3.1.2):

    the cumulative bytes sent by any CCA consistent with this network
    behaviour lie in ``[S_t, +inf)`` when ``W_t == W_{t-1}`` and in
    ``[S_t, C*t - W_t]`` otherwise.

Any candidate whose sends stay inside these intervals at every step is
*feasible* for this network behaviour, so if the trace violated the desired
property, the whole range of candidates is eliminated at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from ..smt import Model
from .config import ModelConfig
from .environments import EnvironmentSpec, lossless_environment
from .model import CcacModel


@dataclass(frozen=True)
class RangeBound:
    """Feasible interval for cumulative sends ``A_t`` at one timestep."""

    lower: Fraction
    upper: Optional[Fraction]  # None = unbounded (W stayed flat)

    @property
    def width(self) -> Optional[Fraction]:
        if self.upper is None:
            return None
        return self.upper - self.lower


@dataclass(frozen=True)
class CexTrace:
    """A concrete counterexample produced by the verifier."""

    cfg: ModelConfig
    A: tuple[Fraction, ...]
    S: tuple[Fraction, ...]
    W: tuple[Fraction, ...]
    cwnd: tuple[Fraction, ...]
    # pre-history: index i-1 holds the value at time -i
    S_pre: tuple[Fraction, ...] = ()
    cwnd_pre: tuple[Fraction, ...] = ()
    # bytes acked before the window started (shift-invariance witness)
    ack_offset: Fraction = Fraction(0)
    # origin environment: the matrix cell whose verifier produced the
    # trace, and whose semantics the generators prune under.  Not part
    # of trace identity: two equal behaviours are equal regardless of
    # which matrix cell surfaced them.
    environment: EnvironmentSpec = field(
        default_factory=lossless_environment, compare=False, repr=False
    )

    @classmethod
    def from_model(
        cls, model: Model, net: CcacModel,
        environment: EnvironmentSpec = lossless_environment(),
    ) -> "CexTrace":
        ts = range(net.cfg.T + 1)
        return cls(
            cfg=net.cfg,
            A=tuple(model.value(net.A[t]) for t in ts),
            S=tuple(model.value(net.S[t]) for t in ts),
            W=tuple(model.value(net.W[t]) for t in ts),
            cwnd=tuple(model.value(net.cwnd[t]) for t in ts),
            S_pre=tuple(model.value(v) for v in net.S_pre),
            cwnd_pre=tuple(model.value(v) for v in net.cwnd_pre),
            ack_offset=model.value(net.ack_offset),
            environment=environment,
        )

    def ack_at(self, t: int) -> Fraction:
        """Cumulative acks as the CCA observed them: ``S(t) + offset``."""
        return self.S_at(t) + self.ack_offset

    def S_at(self, t: int) -> Fraction:
        """Ack counter at time ``t`` (negative t reads pre-history)."""
        if t >= 0:
            return self.S[t]
        return self.S_pre[-t - 1]

    def cwnd_at(self, t: int) -> Fraction:
        """cwnd at time ``t`` (negative t reads pre-history)."""
        if t >= 0:
            return self.cwnd[t]
        return self.cwnd_pre[-t - 1]

    # ------------------------------------------------------------------

    def queue(self, t: int) -> Fraction:
        return self.A[t] - self.S[t]

    def utilization(self) -> Fraction:
        """Fraction of link capacity delivered over the whole trace."""
        return (self.S[self.cfg.T] - self.S[0]) / (self.cfg.C * self.cfg.T)

    def max_queue(self) -> Fraction:
        return max(self.queue(t) for t in range(self.cfg.T + 1))

    def range_bounds(self) -> tuple[RangeBound, ...]:
        """Per-step feasible intervals for ``A_t`` (range pruning)."""
        bounds = []
        for t in range(self.cfg.T + 1):
            lower = self.S[t]
            if t >= 1 and self.W[t] == self.W[t - 1]:
                upper: Optional[Fraction] = None
            else:
                upper = self.cfg.C * t - self.W[t]
            if t == 0:
                # A_0 is the adversarial initial queue, not CCA-controlled.
                bounds.append(RangeBound(lower=self.A[0], upper=self.A[0]))
            else:
                bounds.append(RangeBound(lower=lower, upper=upper))
        return tuple(bounds)

    def min_finite_range_width(self) -> Optional[Fraction]:
        """``min_t (u_t - l_t)`` over steps with finite upper bounds
        (the quantity the worst-case-counterexample search maximizes)."""
        widths = [b.width for b in self.range_bounds()[1:] if b.width is not None]
        if not widths:
            return None
        return min(widths)

    # ------------------------------------------------------------------

    def check_environment(self) -> list[str]:
        """Re-validate the network constraints numerically; returns a list
        of violation descriptions (empty when the trace is consistent).
        Used by tests to guard against encoding drift."""
        cfg = self.cfg
        errors: list[str] = []
        if self.S[0] != 0:
            errors.append(f"S_0 = {self.S[0]} != 0")
        if self.W[0] != 0:
            errors.append(f"W_0 = {self.W[0]} != 0")
        if not (0 <= self.A[0] <= cfg.initial_queue_max):
            errors.append(f"A_0 = {self.A[0]} outside initial queue box")
        if self.S_pre and self.A[0] > self.S_pre[0] + self.cwnd[0]:
            errors.append("initial queue exceeds initial window")
        prev = self.S[0]
        for i, s in enumerate(self.S_pre, start=1):
            if s > prev:
                errors.append(f"pre-history S not monotone at -{i}")
            if s < -cfg.C * i:
                errors.append(f"pre-history S below service-rate bound at -{i}")
            prev = s
        for t in range(1, cfg.T + 1):
            if self.A[t] < self.A[t - 1]:
                errors.append(f"A not monotone at {t}")
            if self.S[t] < self.S[t - 1]:
                errors.append(f"S not monotone at {t}")
            if self.W[t] < self.W[t - 1]:
                errors.append(f"W not monotone at {t}")
            if self.S[t] > cfg.C * t - self.W[t]:
                errors.append(f"token bucket violated at {t}")
            if t >= cfg.jitter:
                back = t - cfg.jitter
                if self.S[t] < cfg.C * back - self.W[back]:
                    errors.append(f"lower service violated at {t}")
            if self.S[t] > self.A[t]:
                errors.append(f"causality violated at {t}")
            if self.W[t] > self.W[t - 1] and self.A[t] > cfg.C * t - self.W[t]:
                errors.append(f"waste condition violated at {t}")
            expected = self._sender_expected(t)
            if self.A[t] != expected:
                errors.append(f"sender not eager at {t}: {self.A[t]} != {expected}")
        return errors

    def _sender_expected(self, t: int) -> Fraction:
        """What the eager window-limited sender must have sent at ``t``
        (environment subclasses override the recurrence)."""
        return max(self.A[t - 1], self.S[t - 1] + self.cwnd[t])

    def desired_holds(self) -> bool:
        """The environment's desired property, computed numerically."""
        cfg = self.cfg
        T = cfg.T
        util_ok = self.S[T] - self.S[0] >= cfg.util_thresh * cfg.C * cfg.T
        limit = cfg.delay_thresh * cfg.C * cfg.D
        queue_ok = all(self.queue(t) <= limit for t in range(T + 1))
        increased = self.cwnd[T] > self.cwnd[0]
        decreased = self.cwnd[T] < self.cwnd[0]
        return (util_ok or increased) and (queue_ok or decreased)

    def __str__(self) -> str:
        cfg = self.cfg
        header = f"t    A        S        W        cwnd     queue"
        rows = [header]
        for t in range(cfg.T + 1):
            rows.append(
                f"{t:<4} {float(self.A[t]):<8.3f} {float(self.S[t]):<8.3f} "
                f"{float(self.W[t]):<8.3f} {float(self.cwnd[t]):<8.3f} "
                f"{float(self.queue(t)):<8.3f}"
            )
        rows.append(
            f"utilization={float(self.utilization()):.3f} "
            f"max_queue={float(self.max_queue()):.3f}"
        )
        return "\n".join(rows)
