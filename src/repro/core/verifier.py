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
one solver (rebuilt per distinct candidate), and one verdict per
environment.  A candidate is *verified* only when **every** environment
answers UNSAT; the first environment to answer SAT short-circuits the
loop and yields a counterexample tagged with its origin environment, so
the generator can prune under that environment's semantics.  The
default matrix is the paper's fragment: a single lossless environment.

It also implements the paper's **worst-case counterexample** optimization:
instead of any counterexample, find one that maximizes
``min_t (u_t - l_t)`` — the narrowest width of the range-pruning intervals
(§3.1.2).  The paper maximizes by binary search; here
:func:`repro.smt.optimize.maximize` computes the exact optimum with a
primal Simplex phase per Boolean region.  Wider intervals let each
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
from ..smt import CheckOptions, Or, Real, RealVal, Solver, Term, sat, unknown
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
    #: (see the degradation ladder of
    #: :class:`~repro.engine.portfolio.PortfolioVerifier`)
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

    __slots__ = (
        "env", "cfg", "prefix", "net", "base", "primer", "candidate", "solver",
    )

    def __init__(self, env: EnvironmentSpec, cfg: ModelConfig, prefix: str):
        self.env = env
        self.cfg = cfg
        self.prefix = prefix
        self.net = None
        self.base: Optional[tuple[Term, ...]] = None
        #: a solver over ``base`` alone whose search every candidate's
        #: solver starts from (:meth:`CcacVerifier.prime`); None: unprimed
        self.primer: Optional[Solver] = None
        #: the candidate whose template constraints ``solver`` holds
        self.candidate: Optional[Candidate] = None
        self.solver: Optional[Solver] = None


class CcacVerifier:
    """The per-candidate CCAC verifier.

    Each environment keeps one :class:`~repro.smt.Solver` built over
    the candidate-independent encoding (environment + negated desired
    property) *and* the current candidate's template constraints, both
    asserted unguarded at the root as in a fresh solver.  The solver is
    reused while the same candidate (by value) comes back — assumption
    probes, repeated WCE searches — and dropped and rebuilt when the
    candidate changes.  Per-call extras (``extra_constraints`` and the
    worst-case objective) always go into a :meth:`~repro.smt.Solver.scope`,
    so a reused solver only ever holds base + candidate between calls.

    :meth:`prime` (called once by the CEGIS loop) solves each
    environment's candidate-free query once, and every later solver
    starts its searches from the heuristics and Simplex tableau that
    search left (:meth:`~repro.smt.Solver.adopt`).  A solver depends
    only on the primer and the candidate, never on the calls before it,
    so a run's counterexamples do not depend on its history.

    ``cache`` (``QueryCacheProtocol``-shaped, e.g.
    :class:`repro.engine.cache.QueryCache`): conclusive subquery verdicts
    are content-addressed and reused, which pays off on repeated
    worst-case searches and across portfolio workers sharing a
    ``cache_dir``.

    ``environments`` selects the cells of the CCAC matrix to verify
    against (in order); the default is the paper's lossless fragment.
    """

    def __init__(
        self,
        cfg: ModelConfig,
        cache=None,
        certify: bool = False,
        environments: Sequence[EnvironmentSpec] = default_environments(),
    ):
        self.cfg = cfg
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
        are shared by every per-candidate solver; because the compile
        memo (:mod:`repro.smt.compile`) keys on term identity, the
        shared-environment compile work is done once, not per candidate.
        """
        if state.base is None:
            # ``base`` is stored last and whole: a call interrupted here
            # (a cancelled pooled task) leaves it None, never half-built
            net = state.env.build_model(state.cfg, prefix=state.prefix)
            state.net = net
            state.base = (*net.constraints(), state.env.negated_desired(net))
        return state.net, state.base

    def prime(self, deadline: Optional[float] = None) -> None:
        """Solve each environment's candidate-free query once, with no
        query cache, so later candidates' solvers start their searches
        from the variable activity, saved phases and Simplex tableau
        that search left (:meth:`repro.smt.Solver.adopt`).

        A search that ends unknown (``deadline``, a
        ``time.perf_counter()`` timestamp) or unsat leaves the
        environment unprimed, which is just as sound; a later call
        tries again.  It pays off over many candidates, so the CEGIS
        loop calls it and a single verification call does not.
        """
        unprimed = [s for s in self._env_states() if s.primer is None]
        if not unprimed:
            return
        start = time.perf_counter()
        opts = CheckOptions(deadline=deadline)
        with tracer().span(
            "verifier.prime", level=DEBUG, environments=len(unprimed)
        ) as span:
            for state in unprimed:
                _net, base = self._ensure_net(state)
                primer = Solver(produce_proofs=self.certify)
                primer.add(*base)
                if primer.check(opts) is sat:
                    state.primer = primer  # stored only once solved
            span.set(primed=sum(s.primer is not None for s in unprimed))
        self.total_time += time.perf_counter() - start

    def drop_solvers(self) -> None:
        """Forget every candidate's solver, keeping each environment's
        network, base and primer.

        For a call that ended abnormally (a cancelled pooled task, a
        solver crash): its candidate solver may be stuck mid-scope, or
        paired with the wrong candidate if the call was interrupted
        while replacing it, so it must not be reused.  What is kept is
        only ever stored whole (interned terms, a base tuple, a primer
        stored after its solve) and never written again.
        """
        for state in self._env_states():
            state.candidate = None  # first: no later call reuses the solver
            state.solver = None

    @contextmanager
    def _candidate_scope(
        self,
        candidate: Candidate,
        state: _EnvState,
        extra_constraints: Sequence[Term] = (),
        worst_case: bool = False,
    ):
        """Yields ``(solver, net)`` with the environment's solver for
        ``candidate``, inside a scope for whatever the call adds
        (``extra_constraints``, the worst-case objective).

        The solver is reused when the candidate repeats and rebuilt
        when it changes (base and candidate asserted as separate
        batches, so the base compile is memo-amortized, and a primed
        environment's solver adopts its primer in between).  A plain
        check adds nothing and opens no scope: an empty push would force
        the Tseitin encoding that a cache hit otherwise skips.
        """
        net, base = self._ensure_net(state)
        if state.candidate != candidate:
            solver = Solver(cache=self.cache, produce_proofs=self.certify)
            solver.add(*base)
            if state.primer is not None:
                solver.adopt(state.primer)
            else:
                solver.decide_by_theory()
            solver.add(*state.env.candidate_constraints(net, candidate))
            state.solver, state.candidate = solver, candidate
        solver = state.solver
        adds = bool(extra_constraints) or worst_case
        with solver.scope(*extra_constraints) if adds else nullcontext():
            yield solver, net

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
        scope over the candidate's solver (assumption-synthesis probes
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
                ) as (solver, net):
                    # a reused solver's count is cumulative; report this
                    # call's delta
                    base_checks = solver.checks
                    inconclusive = False
                    if worst_case:
                        model, inconclusive = self._solve_worst_case(
                            solver, net, state, opts
                        )
                    else:
                        outcome = solver.check(opts)
                        if outcome is unknown:
                            model, inconclusive = None, True
                        elif outcome is sat:
                            model = solver.model()
                        else:
                            model = None
                    if model is not None:
                        outcome_trace = self._extract_trace(
                            solver, state, model, candidate
                        )
                    if self.certify and model is None and not inconclusive:
                        # snapshot + check the proof while the call's
                        # scope is still active (pop would disable its
                        # guard)
                        summaries.append(self._certify_unsat(solver))
                    total_checks += solver.checks - base_checks
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

    def _certify_unsat(self, solver):
        """Independently check the proof of the current UNSAT verdict
        and return its summary.

        In worst-case mode the UNSAT verdict is the search's first probe,
        a plain check under the call's frames, so the solver's last
        verdict is the one to certify.  A proof that fails to check
        raises :class:`~repro.runtime.errors.SoundnessError` — like
        independent model validation, certification gaps are never
        degraded.
        """
        from ..trust.certify import certify_certificate

        summary = certify_certificate(solver.certificate())
        self.certified += 1
        return summary

    def _solve_worst_case(
        self, solver, net, state: _EnvState, opts: CheckOptions
    ):
        """Maximize ``min_t (u_t - l_t)`` over counterexample traces.

        The environment supplies its per-step interval widths (the
        lossless/lossy width is ``(C*t - W_t) - S_t`` at steps where the
        waste grew; the two-flow width measures aggregate service).  A
        fresh objective variable ``m`` is tied below every finite width
        and maximized exactly (the paper bisects; see
        :mod:`repro.smt.optimize`).

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
        opt = maximize(solver, m, options=opts)
        return opt.model, opt.unknown

    def verify(self, candidate: Candidate) -> bool:
        """Convenience wrapper: True iff the candidate is proved correct."""
        return self.find_counterexample(candidate).verified
