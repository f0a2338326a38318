"""CCmatic's synthesis driver: wires template, generator, verifier, CEGIS.

This is the public entry point of the reproduction.  A
:class:`SynthesisQuery` describes the ∃∀ question ("does there exist a CCA
in this template space such that for all CCAC traces the desired property
holds"); :func:`synthesize` runs the CEGIS loop and returns provably
correct CCAs, and :func:`brute_force` provides the paper's comparison
baseline (call the verifier on every candidate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal, Optional

from ..ccac import ModelConfig
from ..ccac.environments import EnvironmentSpec, default_environments
from ..cegis import (
    CegisCheckpoint,
    CegisLoop,
    CegisOptions,
    CegisOutcome,
    Generator,
    PruningMode,
    StopReason,
    Verifier,
)
from .conditional import Candidate, CandidateSpace
from .generator_enum import EnumerativeGenerator
from .generator_smt import SmtGenerator
from .template import CandidateCCA, TemplateSpec
from .verifier import CcacVerifier

GeneratorBackend = Literal["smt", "enum"]


@dataclass
class SynthesisQuery:
    """One ∃∀ synthesis question (a Table 1 cell is one of these plus an
    optimization configuration).  ``spec`` is a linear
    :class:`~repro.core.template.TemplateSpec` or a guarded
    :class:`~repro.core.conditional.ConditionalSpec`; the symbolic
    generator encodes the linear template only, so a conditional space
    needs ``generator="enum"``."""

    spec: CandidateSpace
    cfg: ModelConfig = field(default_factory=ModelConfig)
    pruning: PruningMode = PruningMode.RANGE
    worst_case_cex: bool = True
    generator: GeneratorBackend = "smt"
    find_all: bool = False
    max_iterations: int = 100_000
    time_budget: Optional[float] = None
    #: portfolio width: >1 verifies batches of candidates concurrently
    #: (see :class:`repro.engine.PortfolioVerifier`)
    jobs: int = 1
    #: environment matrix to verify against (see
    #: :mod:`repro.ccac.environments`), held as a non-empty tuple; the
    #: default is the paper's lossless fragment.  With several
    #: environments a candidate is a solution only when *every*
    #: environment's verifier says UNSAT; any environment's
    #: counterexample prunes the shared generator under its own
    #: semantics.
    environments: tuple[EnvironmentSpec, ...] = default_environments()

    def __post_init__(self):
        self.environments = tuple(self.environments or default_environments())


@dataclass
class SynthesisResult:
    """Solutions plus the bookkeeping Table 1 reports."""

    query: SynthesisQuery
    solutions: list[Candidate]
    iterations: int
    counterexamples: int
    generator_time: float
    verifier_time: float
    wall_time: float
    #: why the run stopped (see :class:`repro.cegis.StopReason`)
    stop_reason: Optional[StopReason] = None
    #: verified verdicts carrying an independently checked UNSAT proof
    #: (see :mod:`repro.trust`; nonzero only under certify runs)
    certified_verdicts: int = 0
    #: True when restored from a checkpoint rather than started fresh
    resumed: bool = False
    #: recorded degradation events (see the degradation ladder of
    #: :class:`~repro.engine.portfolio.PortfolioVerifier`)
    degradations: list = field(default_factory=list)
    #: adversarial falsification evaluations spent on the solutions
    #: (see :mod:`repro.falsify`; added up by ``run_synthesis`` under
    #: ``falsify``)
    falsification_attempts: int = 0
    #: solutions that survived their falsification budget
    falsification_survivals: int = 0

    @property
    def exhausted(self) -> bool:
        """The generator proved no further solutions exist."""
        return self.stop_reason is StopReason.EXHAUSTED

    @property
    def timed_out(self) -> bool:
        """The time budget ran out, or the run only ended degraded."""
        return self.stop_reason in (StopReason.BUDGET, StopReason.DEGRADED)

    @property
    def found(self) -> bool:
        return bool(self.solutions)

    @property
    def first(self) -> Optional[Candidate]:
        return self.solutions[0] if self.solutions else None


def make_generator(query: SynthesisQuery) -> Generator:
    """Instantiate the configured generator backend.

    Both backends satisfy :class:`repro.cegis.Generator` (and its
    :class:`~repro.cegis.BatchGenerator` extension) — the protocols in
    :mod:`repro.cegis.interfaces` are the contract; nothing here
    re-declares it.
    """
    if query.generator == "enum":
        return EnumerativeGenerator(query.spec, query.cfg, query.pruning)
    return SmtGenerator(query.spec, query.cfg, query.pruning)


def synthesize(
    query: SynthesisQuery,
    *,
    verifier: Optional[Verifier] = None,
    checkpoint: Optional[CegisCheckpoint] = None,
) -> SynthesisResult:
    """Run the CEGIS loop for a query.

    ``verifier`` substitutes the default (any
    :class:`repro.cegis.Verifier`; the fault-tolerant runtime passes a
    pooled one for out-of-process runs); ``checkpoint`` enables
    per-iteration crash-safe state persistence (see
    :mod:`repro.runtime.checkpoint`).  With ``query.jobs > 1`` and no
    explicit verifier, a :class:`repro.engine.PortfolioVerifier` races
    batches of candidates on a worker pool of ``jobs`` lanes, started
    here and stopped before returning.
    """
    if verifier is None and query.jobs > 1:
        from ..engine import PortfolioVerifier, verifier_pool
        from ..runtime.workers import WorkerLimits

        limits = WorkerLimits()
        with verifier_pool(query.jobs, limits) as pool:
            return synthesize(
                query,
                verifier=PortfolioVerifier(
                    query.cfg, pool, limits=limits,
                    environments=query.environments,
                ),
                checkpoint=checkpoint,
            )
    start = time.perf_counter()
    generator = make_generator(query)
    if verifier is None:
        verifier = CcacVerifier(query.cfg, environments=query.environments)
    options = CegisOptions(
        worst_case_cex=query.worst_case_cex,
        find_all=query.find_all,
        max_iterations=query.max_iterations,
        time_budget=query.time_budget,
        jobs=query.jobs,
    )
    outcome: CegisOutcome = CegisLoop(
        generator, verifier, options, checkpoint=checkpoint
    ).run()
    return SynthesisResult(
        query=query,
        solutions=outcome.solutions,
        iterations=outcome.stats.iterations,
        counterexamples=outcome.stats.counterexamples,
        generator_time=outcome.stats.generator_time,
        verifier_time=outcome.stats.verifier_time,
        wall_time=time.perf_counter() - start,
        stop_reason=outcome.stop_reason,
        resumed=outcome.resumed,
        certified_verdicts=outcome.stats.certified_verdicts,
        degradations=list(getattr(verifier, "degradations", ())),
    )


def enumerate_all(query: SynthesisQuery) -> SynthesisResult:
    """All solutions in the space (the paper's exhaustive-set claim)."""
    import dataclasses

    q = dataclasses.replace(query, find_all=True)
    return synthesize(q)


def brute_force(
    spec: TemplateSpec,
    cfg: Optional[ModelConfig] = None,
    stop_at_first: bool = True,
    max_candidates: Optional[int] = None,
) -> SynthesisResult:
    """The paper's brute-force comparison: call the verifier on every
    candidate in the space (no generator at all).

    Stops with ``SOLUTION`` at the first solution under
    ``stop_at_first``, with ``MAX_ITERATIONS`` when ``max_candidates``
    cuts the space short, and with ``EXHAUSTED`` only after every
    candidate was tried."""
    cfg = cfg or ModelConfig()
    verifier = CcacVerifier(cfg)
    start = time.perf_counter()
    solutions: list[CandidateCCA] = []
    tried = 0
    reason = StopReason.EXHAUSTED
    for cand in spec.iterate_candidates():
        if max_candidates is not None and tried >= max_candidates:
            reason = StopReason.MAX_ITERATIONS
            break
        tried += 1
        if verifier.find_counterexample(cand).verified:
            solutions.append(cand)
            if stop_at_first:
                reason = StopReason.SOLUTION
                break
    query = SynthesisQuery(spec=spec, cfg=cfg, generator="enum")
    return SynthesisResult(
        query=query,
        solutions=solutions,
        iterations=tried,
        counterexamples=tried - len(solutions),
        generator_time=0.0,
        verifier_time=verifier.total_time,
        wall_time=time.perf_counter() - start,
        stop_reason=reason,
    )
