"""Enumerative finite-domain generator (fast path + test oracle).

Because the coefficient domains are finite, the generator's constraint
problem is a finite CSP; this implementation keeps the explicit set of
surviving candidates and filters it with exact rational simulation of the
specification on each counterexample.  It is mathematically equivalent to
:class:`repro.core.generator_smt.SmtGenerator` (the tests check the two
against each other) and much faster for the spaces that fit in memory
(3^5, 9^5, 3^9); the 9^9 space only fits the symbolic generator.

The simulation semantics mirror the SMT encoding exactly:

* cwnd follows the candidate's own clamped rule (its ``replay_cwnd``)
  on the trace's observations,
* sends follow the eager window-limited recurrence,
* feasibility is exact-trace or range membership per the pruning mode,
* the specification is ``feasible => desired``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from ..ccac import CexTrace, ModelConfig
from ..cegis import PruningMode
from .conditional import Candidate, CandidateSpace


def simulate_on_trace(
    candidate: Candidate, trace: CexTrace, cfg: ModelConfig
) -> tuple[list[Fraction], list[Fraction]]:
    """Candidate's (cwnd, A) trajectories on a trace's observations."""
    cwnd = candidate.replay_cwnd(trace, cfg)
    A: list[Fraction] = [trace.A[0]]
    for t in range(1, cfg.T + 1):
        A.append(max(A[t - 1], trace.S[t - 1] + cwnd[t]))
    return cwnd, A


def satisfies_spec(
    candidate: Candidate,
    trace: CexTrace,
    cfg: ModelConfig,
    pruning: PruningMode,
) -> bool:
    """Evaluate ``sigma(candidate, trace) = feasible => desired`` exactly
    on a lossless-family trace (the lossless environment's replay; see
    :meth:`~repro.ccac.environments.EnvironmentSpec.replay_satisfies`).
    The trace's own config wins over ``cfg``: a jitter/threshold
    environment overrides fields of the query config."""
    cfg = trace.cfg
    cwnd, A = simulate_on_trace(candidate, trace, cfg)
    T = cfg.T

    feasible = trace.A[0] <= trace.S_pre[0] + cwnd[0]
    if feasible:
        if pruning is PruningMode.EXACT:
            feasible = all(A[t] == trace.A[t] for t in range(1, T + 1))
        else:
            for t, bound in enumerate(trace.range_bounds()):
                if t == 0:
                    continue
                if A[t] < bound.lower or (bound.upper is not None and A[t] > bound.upper):
                    feasible = False
                    break
    if not feasible:
        return True

    util_ok = trace.S[T] - trace.S[0] >= cfg.util_thresh * cfg.C * cfg.T
    limit = cfg.delay_thresh * cfg.C * cfg.D
    queue_ok = all(A[t] - trace.S[t] <= limit for t in range(T + 1))
    increased = cwnd[T] > cwnd[0]
    decreased = cwnd[T] < cwnd[0]
    return (util_ok or increased) and (queue_ok or decreased)


class EnumerativeGenerator:
    """Explicit-survivor-set generator over a finite candidate space
    (a linear :class:`~repro.core.template.TemplateSpec` or a guarded
    :class:`~repro.core.conditional.ConditionalSpec`)."""

    # guard against accidentally materializing the 9^9 space
    MAX_SPACE = 2_000_000

    def __init__(
        self,
        spec: CandidateSpace,
        cfg: ModelConfig,
        pruning: PruningMode = PruningMode.RANGE,
    ):
        if spec.search_space_size > self.MAX_SPACE:
            raise ValueError(
                f"search space {spec.search_space_size} too large to enumerate; "
                "use SmtGenerator"
            )
        self.spec = spec
        self.cfg = cfg
        self.pruning = pruning
        self._survivors: list[Candidate] = list(spec.iterate_candidates())
        self._traces: list[CexTrace] = []

    @property
    def survivor_count(self) -> int:
        return len(self._survivors)

    def propose(self) -> Optional[Candidate]:
        if not self._survivors:
            return None
        return self._survivors[0]

    def propose_batch(self, k: int) -> list[Candidate]:
        """Up to ``k`` distinct survivors (for portfolio verification);
        none are blocked by being proposed."""
        return list(self._survivors[:k])

    def add_counterexample(self, trace: CexTrace) -> None:
        """Keep the survivors that satisfy the spec on this trace, under
        its origin environment's semantics (so a lossy trace can never
        unsoundly prune lossless-only behaviour)."""
        self._traces.append(trace)
        replay = trace.environment.replay_satisfies
        self._survivors = [
            c for c in self._survivors if replay(c, trace, self.pruning)
        ]

    def block(self, candidate: Candidate) -> None:
        key = candidate.key()
        self._survivors = [c for c in self._survivors if c.key() != key]
