"""The CEGIS loop itself (paper Fig. 1).

    generator proposes A*  ->  verifier searches for trace breaking A*
        counterexample found -> add to X, iterate
        none found           -> A* is a solution (provably correct)
        generator UNSAT      -> no solution exists in the search space

Terminating after the first solution reproduces Table 1; ``find_all``
keeps blocking found solutions until the generator is exhausted, which
reproduces the paper's solution-space exploration ("We ask CCmatic to
produce all possible solutions, implying that there are no other
solutions in our search space").

Every run is traced through :mod:`repro.obs`: per-iteration
``cegis.generate``/``cegis.verify`` spans, a ``cegis.prune`` span per
counterexample (pruning counts as generator time), ``cegis.propose`` /
``cegis.counterexample`` / ``cegis.solution`` events, and a final
``cegis.done`` event carrying the :class:`CegisStats` totals and the
explicit :class:`StopReason`.  A console sink (``--log-level info``)
renders the solution/counterexample events as ``[cegis] iter N:``
lines.  Before the first iteration a verifier that has a
``prime(deadline)`` method is primed once
(:meth:`repro.core.verifier.CcacVerifier.prime`), inside a
``cegis.verify`` span whose time counts as verifier time.

``CegisOptions.time_budget`` is enforced as a *deadline*: besides the
top-of-loop check, it is threaded into every verifier call as the
``deadline`` keyword (``time.perf_counter()`` timestamp), as into every
proposal (see :class:`~repro.cegis.interfaces.Generator`), so a single
long verifier call or proposal can no longer overshoot the budget
unboundedly.
A run stopped this way records an explicit ``cegis.budget_exhausted``
event.

**Crash safety.** When constructed with a ``checkpoint`` (any object with
the :class:`~repro.cegis.interfaces.CegisCheckpoint` shape), the loop
persists its full state — counterexamples, blocked candidates, solutions,
stat counters — after every iteration and restores it on the next run:
replayed counterexamples rebuild the generator deterministically, so a
run SIGKILL'd mid-iteration continues exactly where the last atomic save
left it.  A resumed run gets a fresh wall-clock budget (the elapsed time
of the dead process is gone with it); iteration counts continue from the
restored value.
"""

from __future__ import annotations

import time
from typing import Optional

from ..obs import DEBUG, tracer
from .interfaces import (
    CegisCheckpoint,
    CegisOptions,
    CegisOutcome,
    CegisStats,
    Generator,
    StopReason,
    Verifier,
)


class CegisLoop:
    """Drives one synthesis query to completion."""

    def __init__(
        self,
        generator: Generator,
        verifier: Verifier,
        options: Optional[CegisOptions] = None,
        checkpoint: Optional[CegisCheckpoint] = None,
    ):
        self.generator = generator
        self.verifier = verifier
        self.options = options or CegisOptions()
        self.checkpoint = checkpoint
        # portfolio rounds need batch support on BOTH sides (see
        # BatchGenerator / BatchVerifier in .interfaces); otherwise a
        # jobs>1 request silently falls back to sequential rounds
        self._batched = (
            self.options.jobs > 1
            and hasattr(generator, "propose_batch")
            and hasattr(verifier, "verify_batch")
        )
        # full histories, tracked only when checkpointing
        self._cex_log: list = []
        self._blocked_log: list = []

    def run(self) -> CegisOutcome:
        tr = tracer()
        with tr.span("cegis.run", worst_case=self.options.worst_case_cex,
                     find_all=self.options.find_all):
            return self._run(tr)

    def _run(self, tr) -> CegisOutcome:
        opts = self.options
        outcome: CegisOutcome = CegisOutcome()
        restored = self._restore(tr, outcome)
        stats = outcome.stats
        if restored is not None and restored.stop_reason is not None:
            # resuming an already-finished run is idempotent: report the
            # recorded verdict instead of searching past it
            outcome.stop_reason = StopReason(restored.stop_reason)
            self._done(tr, outcome)
            return outcome
        start = time.perf_counter()
        deadline = None if opts.time_budget is None else start + opts.time_budget
        self._prime(tr, deadline, stats)
        while stats.iterations < opts.max_iterations:
            if deadline is not None and time.perf_counter() > deadline:
                self._budget_exhausted(tr, outcome, where="loop")
                break
            stats.iterations += 1

            batch_size = self.options.jobs if self._batched else 1
            with tr.span("cegis.generate", level=DEBUG, iter=stats.iterations) as span:
                t0 = time.perf_counter()
                if batch_size > 1:
                    candidates = list(
                        self.generator.propose_batch(batch_size, deadline=deadline)
                    )
                else:
                    candidate = self.generator.propose(deadline=deadline)
                    candidates = [] if candidate is None else [candidate]
                dt = time.perf_counter() - t0
                span.set_duration(dt)
            stats.generator_time += dt
            if not candidates:
                if deadline is not None and time.perf_counter() > deadline:
                    # the generator gave up on the budget: nothing is proved
                    self._budget_exhausted(tr, outcome, where="generator")
                    break
                outcome.stop_reason = StopReason.EXHAUSTED
                tr.event("cegis.exhausted", iter=stats.iterations)
                break
            for c in candidates:
                tr.event("cegis.propose", level=DEBUG, iter=stats.iterations,
                         candidate=str(c))

            with tr.span("cegis.verify", level=DEBUG, iter=stats.iterations,
                         batch=len(candidates)) as span:
                t0 = time.perf_counter()
                candidate, result = self._verify(candidates, deadline, stats)
                dt = time.perf_counter() - t0
                span.set_duration(dt)
            stats.verifier_time += dt

            if result.verified:
                outcome.solutions.append(candidate)
                if result.certified:
                    stats.certified_verdicts += 1
                tr.event(
                    "cegis.solution",
                    iter=stats.iterations,
                    candidate=str(candidate),
                    msg=f"[cegis] iter {stats.iterations}: solution {candidate}",
                )
                if not opts.find_all:
                    outcome.stop_reason = StopReason.SOLUTION
                    break
                self.generator.block(candidate)
                if self.checkpoint is not None:
                    self._blocked_log.append(candidate)
            else:
                cex = result.counterexample
                if cex is None:
                    # verifier gave up (conflict or wall-clock budget);
                    # a degraded result means the runtime weakened the
                    # search to get here — report that, not "budget",
                    # unless the deadline has passed anyway
                    expired = deadline is not None and time.perf_counter() > deadline
                    degraded = not expired and bool(getattr(result, "degraded", False))
                    self._budget_exhausted(
                        tr, outcome, where="verifier",
                        reason=StopReason.DEGRADED if degraded else StopReason.BUDGET,
                    )
                    break
                stats.counterexamples += 1
                env = getattr(cex, "environment", None)
                env_key = env.key() if env is not None else None
                tr.event(
                    "cegis.counterexample",
                    iter=stats.iterations,
                    candidate=str(candidate),
                    environment=env_key,
                    msg=(
                        f"[cegis] iter {stats.iterations}: counterexample "
                        f"for {candidate}"
                        + (f" [{env_key}]" if env_key else "")
                    ),
                )
                with tr.span("cegis.prune", level=DEBUG, iter=stats.iterations) as span:
                    t0 = time.perf_counter()
                    self.generator.add_counterexample(cex)
                    dt = time.perf_counter() - t0
                    span.set_duration(dt)
                stats.generator_time += dt
                if self.checkpoint is not None:
                    self._cex_log.append(cex)
            self._save(outcome)
        if outcome.stop_reason is None:
            outcome.stop_reason = StopReason.MAX_ITERATIONS
        self._save(outcome, final=True)
        self._done(tr, outcome)
        return outcome

    def _prime(self, tr, deadline, stats) -> None:
        """Let a verifier with a ``prime(deadline)`` method prepare for
        the run's many calls (see
        :meth:`repro.core.verifier.CcacVerifier.prime`); the time counts
        as verifier time, under a ``cegis.verify`` span of its own."""
        prime = getattr(self.verifier, "prime", None)
        if prime is None:
            return
        with tr.span("cegis.verify", level=DEBUG, iter=stats.iterations,
                     prime=True) as span:
            t0 = time.perf_counter()
            prime(deadline=deadline)
            dt = time.perf_counter() - t0
            span.set_duration(dt)
        stats.verifier_time += dt

    def _verify(self, candidates, deadline, stats):
        """One verification round: portfolio race when batched, a single
        ``find_counterexample`` call otherwise.

        Returns ``(candidate, result)`` where ``candidate`` is the one
        the result judges.  In a batched round the losers were cancelled
        and stay un-judged — they remain proposable by the generator.
        """
        if self._batched:
            verdict = self.verifier.verify_batch(
                candidates,
                worst_case=self.options.worst_case_cex,
                deadline=deadline,
            )
            stats.verifier_calls += max(verdict.launched, 1)
            stats.cancelled_checks += verdict.cancelled
            idx = 0 if verdict.winner is None else verdict.winner
            return candidates[idx], verdict.result
        candidate = candidates[0]
        result = self.verifier.find_counterexample(
            candidate, worst_case=self.options.worst_case_cex,
            deadline=deadline,
        )
        stats.verifier_calls += 1
        return candidate, result

    # -- checkpointing --------------------------------------------------------

    def _restore(self, tr, outcome: CegisOutcome):
        """Replay checkpointed state into the generator; returns the state
        (or None when starting fresh)."""
        if self.checkpoint is None:
            return None
        state = self.checkpoint.load()  # fingerprint-verified by the store
        if state is None:
            return None
        for cex in state.counterexamples:
            self.generator.add_counterexample(cex)
        for candidate in state.blocked:
            self.generator.block(candidate)
        self._cex_log = list(state.counterexamples)
        self._blocked_log = list(state.blocked)
        outcome.solutions = list(state.solutions)
        outcome.resumed = True
        stats = outcome.stats = CegisStats.from_dict(state.stats)
        tr.event(
            "cegis.resume",
            iterations=stats.iterations,
            counterexamples=len(state.counterexamples),
            blocked=len(state.blocked),
            solutions=len(outcome.solutions),
            complete=state.stop_reason is not None,
            msg=(
                f"[cegis] resumed from checkpoint: iter {stats.iterations}, "
                f"{len(state.counterexamples)} counterexamples, "
                f"{len(outcome.solutions)} solutions"
            ),
        )
        return state

    def _save(self, outcome: CegisOutcome, final: bool = False) -> None:
        if self.checkpoint is None:
            return
        reason = outcome.stop_reason
        self.checkpoint.save(
            stats=outcome.stats,
            solutions=list(outcome.solutions),
            counterexamples=list(self._cex_log),
            blocked=list(self._blocked_log),
            stop_reason=reason.value if (final and reason is not None) else None,
        )

    # -- termination ----------------------------------------------------------

    @staticmethod
    def _done(tr, outcome: CegisOutcome) -> None:
        stats = outcome.stats
        tr.event(
            "cegis.done",
            iterations=stats.iterations,
            counterexamples=stats.counterexamples,
            solutions=len(outcome.solutions),
            generator_time=stats.generator_time,
            verifier_time=stats.verifier_time,
            exhausted=outcome.exhausted,
            timed_out=outcome.timed_out,
            stop_reason=outcome.stop_reason.value if outcome.stop_reason else None,
            resumed=outcome.resumed,
        )

    @staticmethod
    def _budget_exhausted(
        tr,
        outcome: CegisOutcome,
        where: str,
        reason: StopReason = StopReason.BUDGET,
    ) -> None:
        outcome.stop_reason = reason
        stats: CegisStats = outcome.stats
        tr.event(
            "cegis.budget_exhausted",
            iter=stats.iterations,
            where=where,
            stop_reason=reason.value,
            msg=f"[cegis] iter {stats.iterations}: time budget exhausted ({where})",
        )
