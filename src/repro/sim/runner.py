"""Drive a CCA against a :class:`~repro.sim.link.JitteryLink`.

Implements the same eager window-limited sender as the formal model:
``A_t = max(A_{t-1}, S_{t-1} + cwnd_t)``.  Produces per-tick series and
summary metrics (utilization, queue percentiles) used by the examples and
the empirical-vs-formal cross-checks in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..ccas.base import CongestionControl
from .link import JitteryLink, JitterLike, PolicyLike


@dataclass
class SimResult:
    """Outcome of one simulation run."""

    cca_name: str
    ticks: int
    capacity: Fraction
    A: list[Fraction] = field(default_factory=list)
    S: list[Fraction] = field(default_factory=list)
    W: list[Fraction] = field(default_factory=list)
    cwnd: list[Fraction] = field(default_factory=list)
    # cumulative link capacity per tick (equals capacity*t on fixed links)
    cap_cum: list[Fraction] = field(default_factory=list)

    def utilization(self, warmup: int = 0) -> Fraction:
        """Delivered fraction of available capacity after ``warmup``."""
        span = self.ticks - warmup
        if span <= 0:
            return Fraction(0)
        delivered = self.S[self.ticks] - self.S[warmup]
        if self.cap_cum:
            available = self.cap_cum[self.ticks] - self.cap_cum[warmup]
        else:
            available = self.capacity * span
        if available == 0:
            return Fraction(0)
        return delivered / available

    def queue_series(self) -> list[Fraction]:
        return [a - s for a, s in zip(self.A, self.S)]

    def max_queue(self, warmup: int = 0) -> Fraction:
        return max(self.queue_series()[warmup:])

    def mean_queue(self, warmup: int = 0) -> Fraction:
        qs = self.queue_series()[warmup:]
        return sum(qs, Fraction(0)) / len(qs)


def run_simulation(
    cca: CongestionControl,
    ticks: int = 100,
    capacity: Fraction = Fraction(1),
    jitter: JitterLike = 1,
    policy: PolicyLike = "ideal",
    seed: int = 0,
    initial_queue: Fraction = Fraction(0),
) -> SimResult:
    """Run ``cca`` for ``ticks`` RTTs over a jittery link.

    ``capacity``, ``jitter``, and ``policy`` each accept either a fixed
    value or a per-tick callable (see :mod:`repro.sim.workloads` and
    :mod:`repro.falsify.schedule`)."""
    cca.reset()
    link = JitteryLink(capacity=capacity, jitter=jitter, policy=policy, seed=seed)
    result = SimResult(cca_name=cca.name, ticks=ticks, capacity=link.C)
    A = Fraction(initial_queue)
    link.A_hist[0] = A
    cwnd = cca.initial_cwnd()
    result.A.append(A)
    result.S.append(Fraction(0))
    result.W.append(Fraction(0))
    result.cwnd.append(cwnd)
    S_prev = Fraction(0)
    result.cap_cum.append(Fraction(0))
    for t in range(1, ticks + 1):
        # eager window-limited sender
        A = max(A, S_prev + cwnd)
        state = link.step(A)
        # smoothed RTT proxy: 1 (propagation) + queue-drain time
        queue = state.A - state.S
        rate = link.rate_at(t)
        rtt_estimate = Fraction(1) + (queue / rate if rate > 0 else Fraction(0))
        cwnd = cca.on_rtt(t, state.S, rtt_estimate)
        result.A.append(state.A)
        result.S.append(state.S)
        result.W.append(state.W)
        result.cwnd.append(cwnd)
        result.cap_cum.append(link.capacity_cum(t))
        S_prev = state.S
    return result
