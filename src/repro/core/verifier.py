"""The CEGIS verifier: CCAC as an SMT query per candidate CCA.

Given a concrete candidate, the verifier asks whether some feasible network
trace violates the desired property:

    SAT( environment /\\ sender /\\ template(candidate) /\\ not desired )

SAT yields a counterexample trace; UNSAT *proves* the candidate achieves
the property on every trace the model allows.  One verifier serves every
candidate type: ``template(candidate)`` is the candidate's own
``constraints_for`` (the linear :class:`~repro.core.template.CandidateCCA`
or the guarded :class:`~repro.core.conditional.ConditionalCCA`).

**Environment matrix**: the verifier runs over a list of
:class:`~repro.ccac.environments.EnvironmentSpec` values — one SMT model,
one solver session (rebuilt per distinct candidate), and one verdict per
environment.  A candidate is *verified* only when **every** environment
answers UNSAT; the first environment to answer SAT short-circuits the
loop and yields a counterexample tagged with its origin environment, so
the generator can prune under that environment's semantics.  The
default matrix is the paper's fragment: a single lossless environment.

It also implements the paper's **worst-case counterexample** optimization:
instead of any counterexample, find one that maximizes
``min_t (u_t - l_t)`` — the narrowest width of the range-pruning intervals
— "we maximize using binary search" (§3.1.2).  Wider intervals let each
counterexample eliminate more candidates in the generator.  Each
environment supplies its own interval widths (two-flow models measure
aggregate service against the shared token bucket).

**Independent validation** (always on): because the reproduction
substitutes z3 with the from-scratch :mod:`repro.smt` solver, every SAT
model is re-checked by :mod:`repro.runtime.validate` — an exact-arithmetic
evaluator sharing no code with the solver — against all asserted
constraints, and every extracted trace is replayed against its origin
environment's constraints and the candidate's template semantics.  A
refuted result raises :class:`~repro.runtime.errors.SoundnessError`;
soundness failures are never converted to ``unknown``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..ccac import ModelConfig
from ..ccac.environments import EnvironmentSpec, default_environments
from ..obs import DEBUG, tracer
from ..runtime.validate import validate_counterexample, validate_model
from ..smt import CheckOptions, Or, Real, RealVal, SolverSession, Term, sat, unknown
from ..smt.optimize import maximize
from .conditional import Candidate


@dataclass
class VerificationResult:
    """Outcome of one verifier call."""

    candidate: Candidate
    verified: bool
    counterexample: Optional[object]
    wall_time: float
    solver_checks: int
    unknown: bool = False
    #: True when the runtime weakened the search to produce this result
    #: (see :mod:`repro.runtime.degrade` / :mod:`repro.runtime.workers`)
    degraded: bool = False
    #: True when the verified UNSAT verdict carries an independently
    #: checked proof (see :mod:`repro.trust`); ``certificate`` holds the
    #: picklable :class:`~repro.trust.certify.CertificateSummary` (one
    #: per environment for multi-environment verifiers)
    certified: bool = False
    certificate: Optional[object] = None

    @property
    def environment(self) -> Optional[EnvironmentSpec]:
        """Origin environment of ``counterexample``; None when there is
        no counterexample."""
        return getattr(self.counterexample, "environment", None)


class _EnvState:
    """Lazily built per-environment solver state."""

    __slots__ = ("env", "cfg", "prefix", "net", "base", "candidate", "session")

    def __init__(self, env: EnvironmentSpec, cfg: ModelConfig, prefix: str):
        self.env = env
        self.cfg = cfg
        self.prefix = prefix
        self.net = None
        self.base: Optional[tuple[Term, ...]] = None
        #: the candidate whose template constraints ``session`` holds
        self.candidate: Optional[Candidate] = None
        self.session: Optional[SolverSession] = None


class CcacVerifier:
    """The per-candidate CCAC verifier.

    Each environment keeps one :class:`~repro.smt.SolverSession` built
    over the candidate-independent encoding (environment + negated
    desired property) *and* the current candidate's template
    constraints, both asserted unguarded at the root as in a fresh
    solver.  The session is reused while the same candidate
    (by value) comes back — assumption probes, repeated WCE searches —
    and dropped and rebuilt when the candidate changes.  Per-call
    extras (``extra_constraints`` and the worst-case objective) always
    go into a pushed scope, so a reused session only ever holds base +
    candidate between calls.

    ``cache`` (``QueryCacheProtocol``-shaped, e.g.
    :class:`repro.engine.cache.QueryCache`): conclusive subquery verdicts
    are content-addressed and reused, which pays off under worst-case
    binary search and across portfolio workers sharing a ``cache_dir``.

    ``environments`` selects the cells of the CCAC matrix to verify
    against (in order); the default is the paper's lossless fragment.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        wce_precision: Fraction = Fraction(1, 8),
        cache=None,
        certify: bool = False,
        environments: Sequence[EnvironmentSpec] = default_environments(),
    ):
        self.cfg = cfg
        self.wce_precision = wce_precision
        self.cache = cache
        self.certify = certify
        self.environments = tuple(environments)
        if not self.environments:
            raise ValueError("a verifier needs at least one environment")
        self.calls = 0
        self.certified = 0
        self.total_time = 0.0
        self._states: Optional[list[_EnvState]] = None

    # -- per-environment state -----------------------------------------

    def _env_states(self) -> list[_EnvState]:
        if self._states is None:
            envs = self.environments
            states = []
            for i, env in enumerate(envs):
                prefix = "v" if len(envs) == 1 else f"v{i}"
                states.append(
                    _EnvState(env, env.model_config(self.cfg), prefix)
                )
            self._states = states
        return self._states

    def network(self, index: int = 0):
        """The environment model object (e.g. for building assumption
        terms over its variables); built lazily like the solver state."""
        state = self._env_states()[index]
        self._ensure_net(state)
        return state.net

    def _ensure_net(self, state: _EnvState):
        """The candidate-independent encoding, built once per environment.

        Terms are immutable and interned, so the same environment terms
        are shared by every per-candidate session; because the compile
        memo (:mod:`repro.smt.compile`) keys on term identity, the
        shared-environment compile work is done once, not per candidate.
        """
        if state.net is None:
            state.net = state.env.build_model(state.cfg, prefix=state.prefix)
            base = list(state.net.constraints())
            base.append(state.env.negated_desired(state.net))
            state.base = tuple(base)
        return state.net, state.base

    @contextmanager
    def _candidate_scope(
        self,
        candidate: Candidate,
        state: _EnvState,
        extra_constraints: Sequence[Term] = (),
        worst_case: bool = False,
    ):
        """Yields ``(session, net)`` with the environment's session for
        ``candidate``, inside a scope for whatever the call adds
        (``extra_constraints``, the worst-case objective).

        The session is reused when the candidate repeats and rebuilt
        when it changes (base and candidate asserted as separate
        batches, so the base compile is memo-amortized).  A plain check
        adds nothing and opens no scope: an empty push would force the
        Tseitin encoding that a cache hit otherwise skips.
        """
        net, base = self._ensure_net(state)
        if state.candidate != candidate:
            session = SolverSession(
                base, cache=self.cache, produce_proofs=self.certify
            )
            session.add(*state.env.candidate_constraints(net, candidate))
            state.session, state.candidate = session, candidate
        session = state.session
        adds = bool(extra_constraints) or worst_case
        with session.scope(*extra_constraints) if adds else nullcontext():
            yield session, net

    def _extract_trace(
        self, solver, state: _EnvState, model, candidate: Candidate
    ):
        """Build the counterexample trace, independently validating both
        the SAT model and the extracted trace first."""
        validate_model(solver.assertions(), model, context="verifier cex")
        trace = state.env.extract_trace(model, state.net)
        validate_counterexample(trace, candidate=candidate)
        return trace

    def find_counterexample(
        self,
        candidate: Candidate,
        worst_case: bool = False,
        max_conflicts: Optional[int] = None,
        deadline: Optional[float] = None,
        extra_constraints: Sequence[Term] = (),
    ) -> VerificationResult:
        """Search every environment for a property-violating trace
        (optionally worst-case).

        ``deadline`` (a ``time.perf_counter()`` timestamp) bounds the
        wall-clock the underlying SMT search may consume; an expired
        deadline yields an inconclusive result (``unknown=True``), never
        a false "verified".  ``extra_constraints`` are asserted in a
        scope over the candidate's session (assumption-synthesis probes
        use this to restrict the adversary without rebuilding the
        encoding).

        The first environment to answer SAT returns immediately with a
        counterexample tagged with that environment; *verified* requires
        every environment to answer UNSAT.
        """
        start = time.perf_counter()
        self.calls += 1
        opts = CheckOptions(max_conflicts=max_conflicts, deadline=deadline)
        tr = tracer()
        states = self._env_states()
        with tr.span(
            "verifier.find_cex", level=DEBUG,
            candidate=str(candidate), worst_case=worst_case,
            environments=len(states),
        ) as span:
            total_checks = 0
            any_unknown = False
            summaries: list[object] = []
            outcome_trace = None
            for state in states:
                with self._candidate_scope(
                    candidate, state, extra_constraints, worst_case
                ) as (session, net):
                    # a reused session's stats are cumulative; report
                    # this call's delta
                    base_checks = session.solver.stats.checks
                    inconclusive = False
                    if worst_case:
                        model, inconclusive = self._solve_worst_case(
                            session, net, state, opts
                        )
                    else:
                        outcome = session.check(opts)
                        if outcome is unknown:
                            model, inconclusive = None, True
                        elif outcome is sat:
                            model = session.model()
                        else:
                            model = None
                    if model is not None:
                        outcome_trace = self._extract_trace(
                            session, state, model, candidate
                        )
                    summary = None
                    if (
                        self.certify
                        and model is None
                        and not inconclusive
                    ):
                        # snapshot + check the proof while the call's
                        # scope is still active (pop would disable its
                        # guard)
                        summary, inconclusive = self._certify_unsat(
                            session, worst_case, opts
                        )
                    if summary is not None:
                        summaries.append(summary)
                    total_checks += session.solver.stats.checks - base_checks
                any_unknown = any_unknown or inconclusive
                if outcome_trace is not None:
                    break
            elapsed = time.perf_counter() - start
            self.total_time += elapsed
            found = outcome_trace is not None
            verified = not found and not any_unknown
            all_certified = (
                self.certify and verified and len(summaries) == len(states)
            )
            span.set(
                verified=verified,
                unknown=not found and any_unknown,
                solver_checks=total_checks,
                certified=all_certified,
                environment=(
                    outcome_trace.environment.key() if found else None
                ),
            )
        certificate: Optional[object] = None
        if all_certified:
            certificate = (
                summaries[0] if len(summaries) == 1 else tuple(summaries)
            )
        return VerificationResult(
            candidate=candidate,
            verified=verified,
            counterexample=outcome_trace,
            wall_time=elapsed,
            solver_checks=total_checks,
            unknown=not found and any_unknown,
            certified=all_certified,
            certificate=certificate,
        )

    def _certify_unsat(self, solver, worst_case: bool, opts: CheckOptions):
        """Independently check the proof of the current UNSAT verdict.

        Returns ``(summary, inconclusive)``.  In worst-case mode the
        binary search ends by popping its probe frames, so the solver's
        last verdict is not the final UNSAT — one extra plain check
        re-derives it under the active frames (with the proof still
        accumulating); if budgets expire there the result degrades to an
        honest ``unknown`` rather than an uncertified "verified".

        A proof that fails to check raises
        :class:`~repro.runtime.errors.SoundnessError` — like independent
        model validation, certification gaps are never degraded.
        """
        from ..trust.certify import certify_certificate
        from ..smt import unsat

        if worst_case and solver.check(opts) is not unsat:
            return None, True
        cert = solver.certificate()
        summary = certify_certificate(cert)
        self.certified += 1
        return summary, False

    def _solve_worst_case(
        self, solver, net, state: _EnvState, opts: CheckOptions
    ):
        """Maximize ``min_t (u_t - l_t)`` over counterexample traces.

        The environment supplies its per-step interval widths (the
        lossless/lossy width is ``(C*t - W_t) - S_t`` at steps where the
        waste grew; the two-flow width measures aggregate service).  A
        fresh objective variable ``m`` is tied below every finite width
        and maximized by binary search.

        Returns ``(model, inconclusive)``: ``(None, False)`` proves no
        counterexample exists, ``(None, True)`` means the search budget
        ran out before the initial probe was decided.
        """
        cfg = state.cfg
        m = Real(f"{net.prefix}_wce_m")
        solver.add(m >= 0)
        hi = Fraction(cfg.C * cfg.T + cfg.initial_queue_max)
        solver.add(m <= RealVal(hi))
        for flat, width in state.env.wce_widths(net):
            solver.add(Or(flat, width >= m))
        opt = maximize(
            solver,
            m,
            lo=Fraction(0),
            hi=hi,
            precision=self.wce_precision,
            options=opts,
        )
        if not opt.feasible or opt.model is None:
            return None, opt.unknown
        return opt.model, False

    def verify(self, candidate: Candidate) -> bool:
        """Convenience wrapper: True iff the candidate is proved correct."""
        return self.find_counterexample(candidate).verified
