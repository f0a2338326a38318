"""Enumerative finite-domain generator (fast path + test oracle).

Because the coefficient domains are finite, the generator's constraint
problem is a finite CSP; this implementation keeps the explicit set of
surviving candidates and filters it with an exact replay of the
specification on each counterexample.  It is mathematically equivalent to
:class:`repro.core.generator_smt.SmtGenerator` (the tests check the two
against each other) and much faster for the spaces that fit in memory
(3^5, 9^5, 3^9); the 9^9 space only fits the symbolic generator.

The replay semantics mirror the SMT encoding exactly:

* cwnd follows the candidate's own clamped rule on the trace's
  observations,
* sends follow the eager window-limited recurrence,
* feasibility is exact-trace or range membership per the pruning mode,
* the specification is ``feasible => desired``.

It runs in Python ints, with no ``Fraction`` per survivor: each
candidate compiles once to ints over its space's coefficient denominator
(``int_rule``), and each counterexample is compiled once by its origin
environment (:meth:`~repro.ccac.environments.EnvironmentSpec.replay_mask`),
which then replays every survivor with int adds, multiplies and compares.
"""

from __future__ import annotations

from itertools import compress
from typing import Optional

from ..ccac import CexTrace, ModelConfig
from ..cegis import PruningMode
from .conditional import Candidate, CandidateSpace


def satisfies_spec(
    candidate: Candidate,
    trace: CexTrace,
    cfg: ModelConfig,
    pruning: PruningMode,
) -> bool:
    """``sigma(candidate, trace) = feasible => desired``, exactly, under
    the trace's origin environment (a batch of one through
    :meth:`~repro.ccac.environments.EnvironmentSpec.replay_mask`).  The
    trace's own config wins over ``cfg``: a jitter/threshold environment
    overrides fields of the query config."""
    return trace.environment.replay_mask([candidate.int_rule()], trace, pruning)[0]


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
        # each survivor compiled once, kept in step with _survivors
        self._rules = list(spec.int_rules())
        self._traces: list[CexTrace] = []

    @property
    def survivor_count(self) -> int:
        return len(self._survivors)

    def propose(self, deadline: Optional[float] = None) -> Optional[Candidate]:
        # a proposal reads a list; there is nothing for ``deadline`` to cut
        if not self._survivors:
            return None
        return self._survivors[0]

    def propose_batch(
        self, k: int, deadline: Optional[float] = None
    ) -> list[Candidate]:
        """Up to ``k`` distinct survivors (for portfolio verification);
        none are blocked by being proposed."""
        return list(self._survivors[:k])

    def add_counterexample(self, trace: CexTrace) -> None:
        """Keep the survivors that satisfy the spec on this trace, under
        its origin environment's semantics (so a lossy trace can never
        unsoundly prune lossless-only behaviour)."""
        self._traces.append(trace)
        self._keep(trace.environment.replay_mask(self._rules, trace, self.pruning))

    def block(self, candidate: Candidate) -> None:
        key = candidate.key()
        self._keep([c.key() != key for c in self._survivors])

    def _keep(self, mask: list[bool]) -> None:
        self._survivors = list(compress(self._survivors, mask))
        self._rules = list(compress(self._rules, mask))
