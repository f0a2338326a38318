"""Interfaces and result types of the generic CEGIS loop (paper Fig. 1).

The loop is domain-agnostic: a *generator* proposes candidates from a
search space and accumulates counterexamples; a *verifier* either certifies
a candidate or produces a counterexample that breaks it.  CCmatic
instantiates these with the CCA template and the CCAC model, but the same
interfaces host the toy domains used in tests and the ABR extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Generic, Optional, Protocol, TypeVar, get_type_hints

Candidate = TypeVar("Candidate")
Counterexample = TypeVar("Counterexample")


class StopReason(Enum):
    """Why a CEGIS run ended — every exit is one of these, explicitly.

    Before this enum existed, hitting ``max_iterations`` exited the loop
    indistinguishably from a clean finish; callers must never have to
    guess whether an empty solution list is a proof or a timeout.
    """

    #: stopped after finding the requested solution(s)
    SOLUTION = "solution"
    #: the generator proved the (remaining) space has no solutions
    EXHAUSTED = "exhausted"
    #: the time budget ran out (loop deadline or verifier give-up)
    BUDGET = "budget"
    #: the iteration cap was reached without a conclusive answer
    MAX_ITERATIONS = "max_iterations"
    #: the run only terminated because the runtime weakened the search
    #: (see the degradation ladder of
    #: :class:`~repro.engine.portfolio.PortfolioVerifier`); the verdict
    #: is honest but produced under recorded degradations
    DEGRADED = "degraded"


class PruningMode(Enum):
    """How much each counterexample eliminates (paper §3.1.2).

    EXACT:  the baseline — a counterexample eliminates only candidates
            that reproduce the trace's exact behaviour.
    RANGE:  range pruning — a counterexample eliminates every candidate
            whose behaviour falls in the interval of behaviours the trace
            is consistent with.
    """

    EXACT = "exact"
    RANGE = "range"


class Generator(Protocol[Candidate, Counterexample]):
    """The ∃-player: proposes candidates consistent with all
    counterexamples seen so far.

    These protocols (and :class:`Verifier`/:class:`BatchGenerator`/
    :class:`BatchVerifier` below) are the single source of truth for the
    generator/verifier contract; implementations and drivers
    (:mod:`repro.core.synthesizer`, :mod:`repro.engine`) type against
    them rather than re-declaring their own signatures.
    """

    def propose(self, deadline=None) -> Optional[Candidate]:
        """Next candidate, or None when the space is exhausted (the query
        has no solution beyond the ones already blocked).

        ``deadline`` is the CEGIS loop's, as in
        :meth:`Verifier.find_counterexample`.  A generator that gives up
        on it returns None; the loop tells that from exhaustion by the
        expired deadline and stops with :attr:`StopReason.BUDGET`."""
        ...

    def add_counterexample(self, cex: Counterexample) -> None:
        """Record that ``cex`` breaks some candidates; future proposals
        must satisfy the specification on it."""
        ...

    def block(self, candidate: Candidate) -> None:
        """Exclude one specific candidate (used to enumerate all
        solutions)."""
        ...


class BatchGenerator(Generator[Candidate, Counterexample], Protocol):
    """A generator that can propose several *distinct* candidates at
    once (for portfolio verification)."""

    def propose_batch(self, k: int, deadline=None) -> list[Candidate]:
        """Up to ``k`` distinct candidates, all consistent with every
        counterexample seen so far.  An empty list means the space is
        exhausted.  Proposing a batch must not permanently block any of
        the returned candidates — only :meth:`Generator.block` does
        that."""
        ...


class Verifier(Protocol[Candidate, Counterexample]):
    """The ∀-player: certifies candidates or breaks them.

    A verifier may also define ``prime(deadline=None)``: the CEGIS loop
    calls it once before the first iteration, so the verifier can pay
    once for what speeds up every later call."""

    def find_counterexample(
        self, candidate: Candidate, worst_case: bool = False, deadline=None
    ):
        """Returns an object with ``verified: bool``,
        ``counterexample: Optional[Counterexample]`` and, when verified,
        ``certified: bool`` (whether the verdict carries a checked proof).

        ``deadline`` is a ``time.perf_counter()`` timestamp or None; the
        CEGIS loop passes the end of its time budget through it so one
        long verifier call cannot overshoot
        :attr:`CegisOptions.time_budget`.  A verifier that gives up on
        the budget must return ``verified=False`` with
        ``counterexample=None`` (ideally also ``unknown=True``)."""
        ...


@dataclass
class BatchVerdict(Generic[Candidate]):
    """Outcome of one portfolio verification round.

    ``winner`` indexes into the submitted batch; ``result`` is the
    winner's verification result (or a degraded unknown when no worker
    was conclusive).  Candidates other than the winner were cancelled
    mid-check and remain un-judged.
    """

    #: batch index of the first conclusive worker (None: none were)
    winner: Optional[int]
    #: the winning result (``verified``/``counterexample`` shaped)
    result: object
    #: number of workers launched this round
    launched: int = 0
    #: number of workers cancelled after the winner finished
    cancelled: int = 0


class BatchVerifier(Verifier[Candidate, Counterexample], Protocol):
    """A verifier that can race a batch of candidates concurrently."""

    def verify_batch(
        self, candidates: list, worst_case: bool = False, deadline=None
    ) -> BatchVerdict:
        """Evaluate ``candidates`` concurrently; first conclusive
        verdict (counterexample found, or candidate verified) wins and
        the remaining checks are cancelled."""
        ...


class CegisCheckpoint(Protocol):
    """Duck-typed checkpoint store the loop saves to / resumes from.

    The loop stays domain-agnostic: candidates and counterexamples are
    handed to the store as-is, and the store owns serialization (see
    :class:`repro.runtime.checkpoint.CheckpointStore` for the atomic
    JSON implementation with fingerprint verification).
    """

    def load(self):
        """Previously saved state or None.  The returned object carries
        ``stats`` (dict of counter fields), ``solutions``,
        ``counterexamples``, ``blocked`` (decoded lists, in insertion
        order) and ``stop_reason`` (None while the run was still in
        flight)."""
        ...

    def save(self, *, stats, solutions, counterexamples, blocked,
             stop_reason: Optional[str] = None) -> None:
        """Persist the loop state atomically (called once per iteration
        and once more with the final ``stop_reason``)."""
        ...


@dataclass
class CegisOptions:
    """Knobs of one CEGIS run.

    ``time_budget`` is enforced as a deadline threaded into the
    verifier, not just a top-of-loop check.
    """

    worst_case_cex: bool = False
    find_all: bool = False
    max_iterations: int = 100_000
    time_budget: Optional[float] = None
    #: portfolio width: >1 enables batched propose + parallel verify
    #: rounds when the generator/verifier support it (see
    #: :class:`BatchGenerator` / :class:`BatchVerifier`)
    jobs: int = 1


@dataclass
class CegisStats:
    """Bookkeeping the paper's Table 1 reports (# Itr, time)."""

    iterations: int = 0
    counterexamples: int = 0
    #: proposing plus pruning (``add_counterexample``)
    generator_time: float = 0.0
    verifier_time: float = 0.0
    verifier_calls: int = 0
    #: portfolio checks cancelled after a round's winner finished
    cancelled_checks: int = 0
    #: verified verdicts whose UNSAT proof was independently checked
    #: (see :mod:`repro.trust`; nonzero only under ``certify`` runs)
    certified_verdicts: int = 0

    @property
    def total_time(self) -> float:
        return self.generator_time + self.verifier_time

    @classmethod
    def from_dict(cls, saved: dict) -> "CegisStats":
        """The stats a checkpoint saved: a missing counter reads 0, a
        key that is no field is ignored, and each value is cast to its
        field's type."""
        hints = get_type_hints(cls)
        return cls(**{
            f.name: hints[f.name](saved.get(f.name, 0)) for f in fields(cls)
        })


@dataclass
class CegisOutcome(Generic[Candidate]):
    """Result of a CEGIS run."""

    solutions: list = field(default_factory=list)
    stats: CegisStats = field(default_factory=CegisStats)
    #: why the run ended (always set by CegisLoop.run)
    stop_reason: Optional[StopReason] = None
    #: whether the run was restored from a checkpoint
    resumed: bool = False

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
    def first(self):
        return self.solutions[0] if self.solutions else None
