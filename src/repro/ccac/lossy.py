"""Lossy / finite-buffer CCAC model (paper §4.1, "Environment and objectives").

The evaluation in §4 uses lossless networks with infinite buffers; the
paper's next step is lossy environments, where "a simple CCA template may
not suffice".  This module adds CCAC's finite-buffer loss semantics:

* a drop-tail buffer of ``buffer`` bytes at the bottleneck;
* a cumulative loss counter ``L_t`` (monotone, never exceeding sends);
* bytes in the queue are bounded: ``(A_t - L_t) - S_t <= buffer`` —
  arrivals beyond the buffer *must* be dropped;
* losses happen only when the buffer is actually full:
  ``L_t > L_{t-1}  =>  (A_t - L_t) - S_t >= buffer``;
* service applies to non-dropped bytes: ``S_t <= A_t - L_t``;
* the window constraint counts only non-dropped in-flight data; losses
  detected by the previous RTT free window space, so the eager sender is
  ``A_t = max(A_{t-1}, S_{t-1} + L_{t-1} + cwnd_t)``.  (Using ``L_{t-1}``
  rather than ``L_t`` is essential: the current step's drops are an
  effect of this step's sends, and closing that loop would let the
  constraint system manufacture infinite send/drop fixpoints or, worse,
  make small-buffer systems infeasible and every CCA vacuously correct.)

The desired property gains a third leg: losses are retransmitted work, so
"(losses bounded OR cwnd decreases)" joins the utilization and delay
conjuncts.  Without it a tiny buffer would *trivially* verify every CCA —
the buffer physically enforces the delay bound while unpenalized drops
absorb the rest — which is exactly the kind of vacuous-verifier pitfall
§5 warns about when porting environments.

With these semantics the verifier answers the paper's question directly:
which lossless-synthesized rules survive a finite buffer?  (RoCC needs
the buffer to cover its steady queue of ~BDP+increment; below that it
drops every RTT and fails the loss budget.)

Lossy queries run through :class:`~repro.core.verifier.CcacVerifier`
with a ``lossy`` :class:`~repro.ccac.environments.EnvironmentSpec`, so
they get independent validation, query caching, session reuse and
UNSAT certification exactly like the lossless path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..smt import Real, RealVal, Term, encode_max
from .config import ModelConfig
from .environments import EnvironmentSpec, lossy_environment
from .model import CcacModel
from .trace import CexTrace


class LossyCcacModel(CcacModel):
    """CCAC-lite with a finite drop-tail buffer.

    Inherits all lossless variables/constraints and adds the loss
    counter; the sender constraint is overridden to account for lost
    bytes freeing window space.
    """

    def __init__(self, cfg: ModelConfig, buffer: Fraction, prefix: str = "ln"):
        super().__init__(cfg, prefix)
        if buffer <= 0:
            raise ValueError("buffer must be positive (use CcacModel for infinite)")
        self.buffer = Fraction(buffer)
        self.L = [Real(f"{prefix}_L_{t}") for t in range(cfg.T + 1)]

    def delivered(self, t: int) -> Term:
        """Arrivals that were not dropped."""
        return self.A[t] - self.L[t]

    def loss_constraints(self) -> list[Term]:
        from ..smt import Or

        cfg = self.cfg
        buf = RealVal(self.buffer)
        cons: list[Term] = [self.L[0].eq(0)]
        for t in range(1, cfg.T + 1):
            cons.append(self.L[t] >= self.L[t - 1])
            cons.append(self.L[t] <= self.A[t])
            # queue never exceeds the buffer
            cons.append(self.delivered(t) - self.S[t] <= buf)
            # drops only when the buffer is full
            cons.append(
                Or(
                    self.L[t].eq(self.L[t - 1]),
                    self.delivered(t) - self.S[t] >= buf,
                )
            )
        return cons

    def environment_constraints(self) -> list[Term]:
        cons = super().environment_constraints()
        # service applies to non-dropped data: S_t <= A_t - L_t tightens
        # the lossless S_t <= A_t
        for t in range(1, self.cfg.T + 1):
            cons.append(self.S[t] <= self.delivered(t))
        return cons + self.loss_constraints()

    def sender_constraints(self) -> list[Term]:
        cons: list[Term] = []
        for t in range(1, self.cfg.T + 1):
            cons.append(
                encode_max(
                    self.A[t],
                    [self.A[t - 1], self.S[t - 1] + self.L[t - 1] + self.cwnd[t]],
                )
            )
        return cons


@dataclass(frozen=True)
class LossyCexTrace(CexTrace):
    """A counterexample of the finite-buffer model: the lossless trace
    fields plus the loss counter; the buffer and loss threshold it ran
    under are parameters of its ``lossy`` environment."""

    L: tuple[Fraction, ...] = ()

    @classmethod
    def from_model(
        cls, model, net: LossyCcacModel, environment: EnvironmentSpec
    ) -> "LossyCexTrace":
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
            L=tuple(model.value(net.L[t]) for t in ts),
            environment=environment,
        )

    @property
    def buffer(self) -> Fraction:
        return self.environment.param("buffer")

    @property
    def loss_thresh(self) -> Fraction:
        return self.environment.param("loss_thresh")

    def delivered(self, t: int) -> Fraction:
        return self.A[t] - self.L[t]

    def _sender_expected(self, t: int) -> Fraction:
        # losses detected in the previous RTT free window space
        return max(
            self.A[t - 1], self.S[t - 1] + self.L[t - 1] + self.cwnd[t]
        )

    def check_environment(self) -> list[str]:
        errors = super().check_environment()
        if self.L[0] != 0:
            errors.append(f"L_0 = {self.L[0]} != 0")
        for t in range(1, self.cfg.T + 1):
            if self.L[t] < self.L[t - 1]:
                errors.append(f"L not monotone at {t}")
            if self.L[t] > self.A[t]:
                errors.append(f"losses exceed sends at {t}")
            if self.S[t] > self.delivered(t):
                errors.append(f"service exceeds non-dropped data at {t}")
            if self.delivered(t) - self.S[t] > self.buffer:
                errors.append(f"queue exceeds the buffer at {t}")
            if (
                self.L[t] > self.L[t - 1]
                and self.delivered(t) - self.S[t] < self.buffer
            ):
                errors.append(f"drop without a full buffer at {t}")
        return errors

    def desired_holds(self) -> bool:
        cfg = self.cfg
        T = cfg.T
        loss_ok = self.L[T] <= self.loss_thresh * cfg.C * cfg.D
        decreased = self.cwnd[T] < self.cwnd[0]
        return super().desired_holds() and (loss_ok or decreased)

    def __str__(self) -> str:
        loss = " ".join(f"{float(v):.3f}" for v in self.L)
        return (
            super().__str__()
            + f"\nloss L = [{loss}] buffer={float(self.buffer):.3f}"
        )


def minimum_buffer(
    candidate,
    cfg: ModelConfig,
    lo: Fraction = Fraction(1, 4),
    hi: Fraction = Fraction(16),
    precision: Fraction = Fraction(1, 4),
) -> Optional[Fraction]:
    """Smallest buffer (to ``precision``) at which the candidate still
    verifies; None if even ``hi`` is insufficient.  Buffer sizing — the
    classic network-provisioning question — answered formally."""
    from ..core.verifier import CcacVerifier

    def verified(buffer) -> bool:
        env = lossy_environment(buffer=buffer)
        return CcacVerifier(cfg, environments=[env]).verify(candidate)

    if not verified(hi):
        return None
    if verified(lo):
        return lo
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if verified(mid):
            hi = mid
        else:
            lo = mid
    return hi
