"""Adaptive-bitrate (ABR) verification on the CCAC environment (paper §5).

The paper reports: "We were able to reuse CCAC's environment model and
encode video quality/stall in terms of playback buffer to build a verifier
for ABR."  This module is that construction:

* the **network** is the same jittery token-bucket service envelope as the
  CCA model — the client is always backlogged (it downloads as fast as the
  link allows), so cumulative downloaded bytes ``S_t`` satisfy
  ``C*(t-j) <= S_t <= C*t`` with per-tick rate at most ``C``;
* the **video** is a sequence of chunks, one unit of playback each, at two
  quality levels with sizes ``size_low < size_high`` (bytes);
* chunk ``k`` must be fully downloaded by its playback deadline
  ``startup_delay + k``; violating that is a **stall**;
* the **ABR rule** under analysis is the classic buffer-threshold policy:
  pick high quality for chunk ``k`` iff the downloader is at least
  ``theta`` bytes ahead of the playback schedule when the chunk is
  requested.

The verifier asks: does some admissible service trace make the rule stall
(or fall below a target average quality)?  UNSAT = the rule is provably
stall-free on every network the envelope allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..smt import And, Ite, Not, Or, Real, RealVal, Solver, Term, sat, unsat


@dataclass(frozen=True)
class AbrConfig:
    """Parameters of the ABR verification model.

    ``n_chunks`` chunks play back-to-back, one per tick, starting after
    ``startup_delay`` ticks of pre-buffering.  The trace is long enough to
    cover the last deadline.
    """

    n_chunks: int = 6
    startup_delay: int = 2
    size_low: Fraction = Fraction(1, 2)
    size_high: Fraction = Fraction(3, 2)
    C: Fraction = Fraction(1)
    jitter: int = 1

    @property
    def T(self) -> int:
        return self.startup_delay + self.n_chunks

    def __post_init__(self):
        if self.size_low >= self.size_high:
            raise ValueError("size_low must be below size_high")
        if self.size_low > self.C:
            raise ValueError("low quality must be sustainable at link rate")


@dataclass(frozen=True)
class AbrPolicy:
    """Buffer-threshold rule: request high quality for a chunk iff the
    download is at least ``theta`` bytes ahead of the playback need."""

    theta: Fraction

    def describe(self) -> str:
        return f"high quality iff download lead >= {self.theta} bytes"


@dataclass
class AbrTrace:
    """Counterexample: concrete service trace + chosen qualities."""

    S: list[Fraction]
    qualities: list[int]  # 0 = low, 1 = high per chunk
    stalled_chunk: Optional[int]
    avg_quality: Fraction


class AbrModel:
    """SMT encoding of the ABR client on the jittery service envelope."""

    def __init__(self, cfg: AbrConfig, policy: AbrPolicy, prefix: str = "abr"):
        self.cfg = cfg
        self.policy = policy
        self.prefix = prefix
        T = cfg.T
        self.S = [Real(f"{prefix}_S_{t}") for t in range(T + 1)]
        # cumulative bytes needed to finish chunks 0..k
        self.need = [Real(f"{prefix}_need_{k}") for k in range(cfg.n_chunks)]

    def request_tick(self, k: int) -> int:
        """Tick at which chunk ``k``'s quality is decided: its download
        cannot start before the previous chunk's deadline window opens."""
        return min(k, self.cfg.T)

    def deadline(self, k: int) -> int:
        return self.cfg.startup_delay + k + 1 - 1  # plays during this tick

    def environment_constraints(self) -> list[Term]:
        """The backlogged-client service envelope."""
        cfg = self.cfg
        cons: list[Term] = [self.S[0].eq(0)]
        for t in range(1, cfg.T + 1):
            cons.append(self.S[t] >= self.S[t - 1])
            cons.append(self.S[t] - self.S[t - 1] <= RealVal(cfg.C))
            cons.append(self.S[t] <= RealVal(cfg.C * t))
            back = t - cfg.jitter
            if back >= 0:
                cons.append(self.S[t] >= RealVal(cfg.C * back))
        return cons

    def policy_constraints(self) -> list[Term]:
        """Chunk sizes as chosen by the threshold rule."""
        cfg = self.cfg
        theta = RealVal(self.policy.theta)
        cons: list[Term] = []
        prev_need: Term = RealVal(0)
        for k in range(cfg.n_chunks):
            t_req = self.request_tick(k)
            lead = self.S[t_req] - prev_need
            size = Ite(
                lead >= theta, RealVal(cfg.size_high), RealVal(cfg.size_low)
            )
            cons.append(self.need[k].eq(prev_need + size))
            prev_need = self.need[k]
        return cons

    def no_stall(self) -> Term:
        """Every chunk downloaded by its playback deadline."""
        return And(
            *[
                self.need[k] <= self.S[self.deadline(k)]
                for k in range(self.cfg.n_chunks)
            ]
        )

    def quality_at_least(self, min_high_chunks: int) -> Term:
        """At least ``min_high_chunks`` chunks at high quality.

        Encoded through the total bytes needed: total = n*low + k*(high-low)
        for k high-quality chunks, so a count threshold is one linear atom.
        """
        cfg = self.cfg
        total_min = (
            cfg.n_chunks * cfg.size_low
            + min_high_chunks * (cfg.size_high - cfg.size_low)
        )
        return self.need[cfg.n_chunks - 1] >= RealVal(total_min)


class AbrVerifier:
    """Prove or refute stall-freedom (and quality floors) of a policy."""

    def __init__(self, cfg: AbrConfig):
        self.cfg = cfg

    def find_counterexample(
        self, policy: AbrPolicy, min_high_chunks: int = 0
    ) -> Optional[AbrTrace]:
        """A service trace where the policy stalls or misses the quality
        floor; None when the policy is provably correct."""
        model = AbrModel(self.cfg, policy)
        solver = Solver()
        solver.add(*model.environment_constraints())
        solver.add(*model.policy_constraints())
        desired = model.no_stall()
        if min_high_chunks > 0:
            desired = And(desired, model.quality_at_least(min_high_chunks))
        solver.add(Not(desired))
        if solver.check() is not sat:
            return None
        m = solver.model()
        S = [m.value(s) for s in model.S]
        needs = [m.value(n) for n in model.need]
        qualities = []
        prev = Fraction(0)
        for k in range(self.cfg.n_chunks):
            size = needs[k] - prev
            qualities.append(1 if size == self.cfg.size_high else 0)
            prev = needs[k]
        stalled = None
        for k in range(self.cfg.n_chunks):
            if needs[k] > S[model.deadline(k)]:
                stalled = k
                break
        avg_q = Fraction(sum(qualities), len(qualities))
        return AbrTrace(S=S, qualities=qualities, stalled_chunk=stalled, avg_quality=avg_q)

    def verify(self, policy: AbrPolicy, min_high_chunks: int = 0) -> bool:
        return self.find_counterexample(policy, min_high_chunks) is None


def synthesize_threshold(
    cfg: AbrConfig,
    lo: Fraction = Fraction(0),
    hi: Fraction = Fraction(8),
    precision: Fraction = Fraction(1, 8),
    min_high_chunks: int = 0,
) -> Optional[AbrPolicy]:
    """Smallest provably stall-free threshold (binary search; smaller
    theta = more aggressive quality choices).  None when even ``hi``
    stalls on some trace."""
    verifier = AbrVerifier(cfg)
    if not verifier.verify(AbrPolicy(hi), min_high_chunks):
        return None
    if verifier.verify(AbrPolicy(lo), min_high_chunks):
        return AbrPolicy(lo)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if verifier.verify(AbrPolicy(mid), min_high_chunks):
            hi = mid
        else:
            lo = mid
    return AbrPolicy(hi)
