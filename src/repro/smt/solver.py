"""The user-facing SMT solver: a z3-flavoured API over CDCL(T).

Example::

    from repro.smt import Real, Solver, sat

    x, y = Real("x"), Real("y")
    s = Solver()
    s.add(x + y <= 4, x >= 1, y >= 2)
    assert s.check() == sat
    m = s.model()
    m.value(x)  # Fraction

``push``/``pop`` are implemented with guard literals: every assertion made
inside a frame is guarded by that frame's activation literal, checks pass
the active guards as assumptions, and ``pop`` permanently disables the
guard.  This keeps the CDCL core fully incremental (learned clauses are
never invalidated).  :meth:`Solver.scope` wraps one push/pop around a
query's extra assertions::

    s = Solver(cache=QueryCache(".qcache"))
    s.add(*base)
    for candidate in candidates:
        with s.scope(*candidate_constraints):
            if s.check() is sat:
                cex = s.model()

With a **content-addressed query cache** attached (any object with
``lookup(key)``/``store(key, result, model)``; see
:class:`repro.engine.cache.QueryCache`), :meth:`Solver.check` keys on the
canonical hash (:func:`repro.smt.terms.canonical_hash`) of the active
assertion set in its *post-compile* form (:meth:`Solver.compiled_assertions`),
so queries that differ only in assertion order, term construction order,
folded structure, or atom spelling are answered without a solve.
``unknown`` results are never cached (they describe a budget, not the
formula).

:meth:`Solver.adopt` starts a solver's later searches where another
solver's search over the same assertions ended (its variable activity,
saved phases and Simplex tableau), so many queries that extend one base
can share what one solve of that base found out about how to search::

    primer = Solver()
    primer.add(*base)
    primer.check()
    for candidate in candidates:
        s = Solver()
        s.add(*base)
        s.adopt(primer)
        s.add(*candidate_constraints)
        s.check()
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional, Protocol

from ..obs import DEBUG, metrics, tracer
from ..trust.proof import NeutralAtom, ProofError, ProofLog, UnsatCertificate
from .cnf import TseitinEncoder
from .compile import compile_query
from .errors import UnknownResultError
from .linarith import LinExpr
from .preprocess import preprocess
from .sat import SatSolver
from .terms import Sort, Term, canonical_hash, evaluate, interned_count, substitute
from .theory import LraTheory


class Result(Enum):
    """Outcome of a :meth:`Solver.check` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        raise TypeError("compare against repro.smt.sat/unsat explicitly")


sat = Result.SAT
unsat = Result.UNSAT
unknown = Result.UNKNOWN


@dataclass(frozen=True)
class CheckOptions:
    """Options of one satisfiability check.

    This frozen dataclass is the one way to configure a check — it
    replaces the kwarg pile that ``Solver.check`` had started to grow.
    Pass it to :meth:`Solver.check`::

        s.check(CheckOptions(max_conflicts=10_000))

    ``deadline`` is a ``time.perf_counter()`` timestamp; the search
    aborts with :data:`unknown` once it has passed (checked at each
    conflict, like ``max_conflicts``).  Proof logging is armed at
    construction (``Solver(produce_proofs=True)``), not per check.
    """

    #: give up (-> unknown) after this many conflicts; None = unbounded
    max_conflicts: Optional[int] = None
    #: give up (-> unknown) past this ``time.perf_counter()`` timestamp
    deadline: Optional[float] = None

    def with_deadline(self, deadline: Optional[float]) -> "CheckOptions":
        """A copy with ``deadline`` replaced (options are immutable)."""
        return replace(self, deadline=deadline)


def _require_options(options, where: str) -> CheckOptions:
    """Check configuration is a :class:`CheckOptions` value, full stop.

    The 1.x compatibility shims (positional-int ``max_conflicts`` and the
    ``max_conflicts=``/``deadline=`` keywords, deprecated throughout the
    1.x series) were removed in 2.0; anything that is not a
    ``CheckOptions`` gets a :class:`TypeError` pointing at the
    replacement.
    """
    if options is None:
        return CheckOptions()
    if not isinstance(options, CheckOptions):
        raise TypeError(
            f"{where} takes a CheckOptions value "
            f"(got {type(options).__name__}); the 1.x positional/keyword "
            f"forms were removed in 2.0 — pass "
            f"CheckOptions(max_conflicts=..., deadline=...) instead"
        )
    return options


class Model:
    """A satisfying assignment; evaluates arbitrary terms.

    Variables that the solver never saw evaluate to 0 / False, matching
    the convention of other SMT solvers for don't-care variables.

    ``objective`` names the variable that :func:`repro.smt.optimize.maximize`
    armed for the check that produced this model, and ``optimum`` is the
    real part of its exact optimum (both None when none was armed or it
    is unbounded).  They travel with the model through a query cache,
    so a cached probe bounds the next one exactly as the solved probe did.
    """

    def __init__(
        self,
        bool_values: dict[Term, bool],
        real_values: dict[Term, Fraction],
        objective: Optional[str] = None,
        optimum: Optional[Fraction] = None,
    ):
        self._bools = bool_values
        self._reals = real_values
        self.objective = objective
        self.optimum = optimum

    def value(self, term: Term):
        """Evaluate ``term`` (bool -> bool, real -> Fraction)."""
        if term.is_var():
            if term.sort is Sort.BOOL:
                return self._bools.get(term, False)
            return self._reals.get(term, Fraction(0))

        class _Env:
            def __init__(self, model: "Model"):
                self.model = model

            def __getitem__(self, var: Term):
                return self.model.value(var)

        return evaluate(term, _Env(self))

    def assignment(self) -> tuple[dict[Term, bool], dict[Term, Fraction]]:
        """The raw variable assignment as ``(bools, reals)`` dict copies.

        This is the interface for *independent* model validation
        (:mod:`repro.runtime.validate`): external checkers re-evaluate the
        asserted formulas against these values without going through
        :meth:`value`, so a bug in the solver's own evaluation path cannot
        mask itself.
        """
        return dict(self._bools), dict(self._reals)

    def __repr__(self) -> str:
        parts = [f"{t.name}={v}" for t, v in list(self._reals.items())[:8]]
        return f"Model({', '.join(parts)}{'...' if len(self._reals) > 8 else ''})"


class QueryCacheProtocol(Protocol):
    """What a solver needs from a query cache (implemented by
    :class:`repro.engine.cache.QueryCache`)."""

    def lookup(self, key: str):
        """``(Result, Optional[Model])`` for a previously stored query,
        or None on miss."""
        ...

    def store(self, key: str, result: Result, model: Optional[Model]) -> None:
        """Record a conclusive (sat/unsat) verdict for ``key``."""
        ...


class Solver:
    """Incremental DPLL(T) solver for QF-LRA + booleans.

    Assertions go through the staged compile pipeline
    (:mod:`repro.smt.compile`) before hitting the CNF encoder.
    ``compile_pipeline=False`` builds the *differential reference*
    instead: it encodes raw preprocessed terms and exists only so the
    fuzzer (``scripts/smt_fuzz.py``) and the engine bench's ``compile``
    section can check the pipeline against an encoding that shares no
    rewriting code with it.  :meth:`assertions` always returns the raw
    formulas as asserted; :meth:`compiled_assertions` returns what was
    encoded.

    ``cache`` (a :class:`QueryCacheProtocol`) answers repeated queries
    without a solve; ``produce_proofs`` logs a checkable proof of every
    UNSAT verdict (:meth:`certificate`) and never takes a cached one.
    """

    def __init__(
        self,
        *,
        compile_pipeline: bool = True,
        produce_proofs: bool = False,
        cache: Optional[QueryCacheProtocol] = None,
    ):
        self.theory = LraTheory()
        self._core = SatSolver(self.theory)
        self.encoder = TseitinEncoder(self._core, self.theory)
        #: ``(formula, frame guard)`` pairs added but not yet encoded;
        #: see :attr:`sat_core`
        self._unencoded: list[tuple[Term, Optional[int]]] = []
        self._frames: list[int] = []  # guard SAT vars, one per push
        self._assertions: list[list[Term]] = [[]]
        self._last_result: Optional[Result] = None
        self._model: Optional[Model] = None
        self.cache = cache
        #: checks that reached the SAT core (cache hits are not solves)
        self.checks = 0
        self._pipeline = compile_pipeline
        #: eliminated var -> resolved defining term (never references
        #: another eliminated var), for model reconstruction
        self._elim: dict[Term, Term] = {}
        self._elim_stack: list[dict[Term, Term]] = []
        #: variables already present in the encoding; later delta
        #: compiles must not eliminate them (soundness: ``add(x <= 2)``
        #: then ``add(x == 3)`` has to constrain the *same* x).  Never
        #: shrinks on pop — the encoder's literal cache outlives frames.
        self._frozen: set[Term] = set()
        #: the formulas actually handed to the CNF encoder (compiled, or
        #: preprocessed in reference mode), one list per frame — cache
        #: keys hash these and certificates name them, not the raw
        #: assertions
        self._encoded: list[list[Term]] = [[]]
        self._disabled_guards: list[int] = []
        self._proof: Optional[ProofLog] = None
        if produce_proofs:
            self._proof = ProofLog()
            self._core.proof = self._proof
            self.encoder.record_defs = True

    @property
    def sat_core(self) -> SatSolver:
        """The CDCL core, with every added formula encoded into it.

        :meth:`add` compiles at once but defers the Tseitin encoding to
        the first use of the core (``check``, ``push``, ``pop`` or a
        reader of this attribute), so a query a cache answers from its
        compiled form is never encoded.  The encoding order, and with it
        every SAT variable number, is the order of the ``add`` calls.
        """
        if self._unencoded:
            pending, self._unencoded = self._unencoded, []
            for f, guard in pending:
                self.encoder.assert_formula(f, guard)
        return self._core

    # -- assertions -----------------------------------------------------------

    def add(self, *formulas: Term) -> None:
        """Assert one or more boolean terms."""
        guard = self._frames[-1] if self._frames else None
        self._last_result = None
        if not self._pipeline:
            for f in formulas:
                self._assertions[-1].append(f)
                p = preprocess(f)
                self._encoded[-1].append(p)
                self._unencoded.append((p, guard))
            return
        # Delta compile: earlier eliminations are substituted into the
        # incoming formulas first, so a query never mentions a variable
        # that no longer exists in the encoding.
        inputs = tuple(
            substitute(f, self._elim) if self._elim else f for f in formulas
        )
        compiled = compile_query(inputs, frozen=self._frozen)
        self._assertions[-1].extend(formulas)
        self._encoded[-1].extend(compiled.formulas)
        self._unencoded.extend((f, guard) for f in compiled.formulas)
        self._frozen.update(compiled.variables)
        if compiled.eliminated:
            new = dict(compiled.eliminated)
            for v in list(self._elim):
                self._elim[v] = substitute(self._elim[v], new)
            self._elim.update(new)

    def assertions(self) -> list[Term]:
        """All currently active assertions (across frames), as asserted."""
        return [f for frame in self._assertions for f in frame]

    def compiled_assertions(self) -> list[Term]:
        """The active *compiled* formulas — the post-pipeline form that
        was actually encoded (equals :meth:`assertions` in reference
        mode).  This is what cache keys hash."""
        if not self._pipeline:
            return self.assertions()
        return [f for frame in self._encoded for f in frame]

    def push(self) -> None:
        """Open a new assertion frame."""
        self._frames.append(self.sat_core.new_var())
        self._assertions.append([])
        self._encoded.append([])
        self._elim_stack.append(dict(self._elim))

    def pop(self) -> None:
        """Discard the most recent frame and its assertions.

        The frame's guard is permanently disabled by a root-level unit,
        which keeps every learned clause valid; the clauses that unit
        satisfies (the popped frame's encoding, and any learned clause
        that depends on it) are then garbage-collected from the clause
        database while the still-valid learned clauses are retained (see
        :meth:`repro.smt.sat.SatSolver.simplify`).
        """
        if not self._frames:
            raise IndexError("pop without matching push")
        guard = self._frames.pop()
        self._assertions.pop()
        self._encoded.pop()
        self._disabled_guards.append(guard)
        if self._elim_stack:
            self._elim = self._elim_stack.pop()
        self.sat_core.add_clause([-guard])
        self.sat_core.simplify()
        self._last_result = None

    @contextmanager
    def scope(self, *formulas: Term):
        """One query's worth of extra assertions, popped on exit::

            with s.scope(extra1, extra2):
                s.check()
        """
        self.push()
        try:
            if formulas:
                self.add(*formulas)
            yield self
        finally:
            self.pop()

    # -- priming --------------------------------------------------------------

    def adopt(self, primer: "Solver") -> None:
        """Start this solver's later searches where ``primer``'s ended.

        ``primer`` must have been given the same ``add`` calls as this
        solver (and then searched), so both encode them into the same
        SAT and Simplex variables: the numbering follows the order of
        the ``add`` calls.  This solver takes ``primer``'s variable
        activity, saved phases and ``var_inc``
        (:meth:`repro.smt.sat.SatSolver.adopt_heuristics`) and a copy of
        its Simplex tableau and assignment
        (:meth:`repro.smt.simplex.Simplex.adopt_tableau`).  Its clauses,
        root trail and proof log stay its own, so it derives nothing
        from ``primer``'s search: only where its own searches start
        changes.  The assertions are encoded here.
        """
        if self._frames:
            raise ValueError("adopt needs a solver at the root (no open frame)")
        if primer._encoded[0] != self._encoded[0] or primer._frames:
            raise ValueError("adopt only from a solver over the same assertions")
        self.sat_core.adopt_heuristics(primer.sat_core)
        self.theory.simplex.adopt_tableau(primer.theory.simplex)

    def decide_by_theory(self) -> None:
        """Decide each theory atom the way the current Simplex assignment
        already satisfies it, instead of by its saved phase
        (:attr:`repro.smt.sat.SatSolver.theory_phases`).  A proving search
        then asserts fewer bounds that the Simplex point violates, so it
        pivots and conflicts less; a solver whose SAT model is the product
        keeps saved phases.  Setting it encodes nothing."""
        self._core.theory_phases = True

    # -- solving --------------------------------------------------------------

    #: emit an ``smt.progress`` event every this many conflicts while tracing
    PROGRESS_EVERY = 512

    def check(self, options: Optional[CheckOptions] = None) -> Result:
        """Decide satisfiability of the current assertion stack.

        Configuration goes through a single :class:`CheckOptions` value::

            s.check()                                     # defaults
            s.check(CheckOptions(max_conflicts=10_000))   # budgeted

        The 1.x ``max_conflicts``/``deadline`` keyword and positional-int
        forms were removed in 2.0.

        With a cache attached, a hit returns the stored verdict (and, for
        sat, the stored model) without encoding or solving anything;
        conclusive misses are stored back.
        """
        opts = _require_options(options, "Solver.check")
        if self.cache is None:
            return self._solve(opts)
        # Key on the compiled form: semantically identical queries that
        # differ pre-simplification share an entry.
        key = canonical_hash(self.compiled_assertions())
        # Proof mode never takes a cached verdict: a stored UNSAT carries
        # no certificate, and certification is the point.
        hit = None if self.proof_mode else self.cache.lookup(key)
        if hit is not None:
            metrics().counter("engine.cache.hits").inc()
            self._last_result, self._model = hit
            return self._last_result
        metrics().counter("engine.cache.misses").inc()
        result = self._solve(opts)
        if result is not unknown:
            self.cache.store(key, result, self._model)
        return result

    def _solve(self, opts: CheckOptions) -> Result:
        core = self.sat_core
        base_conflicts = core.conflicts
        base_decisions = core.decisions
        base_propagations = core.propagations
        base_restarts = core.restarts
        base_pivots = self.theory.simplex.pivots

        tr = tracer()
        span = None
        on_progress = None
        if tr.enabled:
            span = tr.span(
                "smt.check",
                level=DEBUG,
                vars=core.nvars,
                clauses=len(core.clauses),
            )
            span.__enter__()
            last_reported = [base_conflicts]

            def on_progress(conflicts: int) -> None:
                if conflicts - last_reported[0] >= self.PROGRESS_EVERY:
                    last_reported[0] = conflicts
                    tr.event(
                        "smt.progress",
                        level=DEBUG,
                        conflicts=conflicts - base_conflicts,
                        restarts=core.restarts - base_restarts,
                        learned=len(core.learned),
                    )

        start = time.perf_counter()
        try:
            outcome = core.solve(
                assumptions=list(self._frames),
                max_conflicts=opts.max_conflicts,
                on_progress=on_progress,
                deadline=opts.deadline,
            )
        except BaseException as exc:
            if span is not None:
                span.__exit__(type(exc), exc, exc.__traceback__)
                span = None
            raise
        finally:
            elapsed = time.perf_counter() - start
            self.checks += 1
            deltas = {
                "conflicts": core.conflicts - base_conflicts,
                "decisions": core.decisions - base_decisions,
                "propagations": core.propagations - base_propagations,
                "restarts": core.restarts - base_restarts,
                "pivots": self.theory.simplex.pivots - base_pivots,
            }
            reg = metrics()
            reg.counter("smt.checks").inc()
            for name, delta in deltas.items():
                reg.counter(f"smt.{name}").inc(delta)
            reg.gauge("smt.clauses").set(len(core.clauses))
            reg.gauge("smt.terms.interned").set(interned_count())
            reg.histogram("smt.check_time").observe(elapsed)

        if outcome is None:
            self._last_result = unknown
            self._model = None
        elif outcome:
            self._last_result = sat
            self._model = self._build_model()
        else:
            self._last_result = unsat
            self._model = None
        metrics().counter(f"smt.result.{self._last_result.value}").inc()
        if span is not None:
            span.set(result=self._last_result.value, **deltas)
            span.__exit__(None, None, None)
        return self._last_result

    def _build_model(self) -> Model:
        bools = {
            term: self.sat_core.model_value(var)
            for term, var in self.encoder._bool_vars.items()
        }
        reals = {
            term: self.theory.model_value(term)
            for term in self.theory.var_of_term
        }
        # Reconstruct variables the compile pipeline eliminated, so the
        # model satisfies the *raw* assertions too (runtime.validate
        # replays those).  Definitions are resolved — they reference only
        # surviving variables — so one linear evaluation each suffices.
        for var, defn in self._elim.items():
            expr = LinExpr.from_term(defn)
            value = expr.const
            for v, c in expr.coeffs.items():
                value += c * reals.get(v, Fraction(0))
            reals[var] = value
        objective = self.theory.objective
        if objective is None or self.theory.optimum is None:
            return Model(bools, reals)
        rn, _, q = self.theory.optimum
        return Model(bools, reals, objective.name, Fraction(rn, q))

    def model(self) -> Model:
        """The model of the last successful :meth:`check`."""
        if self._model is None:
            raise UnknownResultError("no model available (last check not sat)")
        return self._model

    # -- certification ---------------------------------------------------------

    @property
    def proof_mode(self) -> bool:
        """Whether this solver is logging a checkable proof."""
        return self._proof is not None

    def certificate(self) -> UnsatCertificate:
        """The checkable proof of the last :data:`unsat` verdict.

        Snapshot this *before* mutating the solver further (``pop`` in
        particular disables the frame the assumptions refer to).  Feed
        the result to :func:`repro.trust.check_certificate` /
        :func:`repro.trust.certify_certificate`.
        """
        if self._proof is None:
            raise ProofError(
                "solver is not in proof mode; construct it with "
                "Solver(produce_proofs=True)"
            )
        if self._last_result is not unsat:
            raise ProofError(
                f"no UNSAT verdict to certify (last check: "
                f"{self._last_result.value if self._last_result is not None else 'none'})"
            )
        enc = self.encoder
        atoms = {
            var: NeutralAtom(
                coeffs=tuple((t.name, c) for t, c in atom.expr),
                bound=atom.bound,
                strict=atom.strict,
            )
            for atom, var in enc._atom_vars.items()
        }
        bool_vars = {var: term.name for term, var in enc._bool_vars.items()}
        frames = [(None, tuple(self._encoded[0]))]
        frames.extend(
            (guard, tuple(encoded))
            for guard, encoded in zip(self._frames, self._encoded[1:])
        )
        return UnsatCertificate(
            steps=tuple(self._proof.steps),
            nvars=self.sat_core.nvars,
            atoms=atoms,
            bool_vars=bool_vars,
            defs=dict(enc._defs),
            true_var=enc._true_lit,
            frames=tuple(frames),
            disabled_guards=frozenset(self._disabled_guards),
            assumptions=tuple(self._frames),
            info={"checks": self.checks},
        )


def check_formulas(
    formulas: Iterable[Term], options: Optional[CheckOptions] = None
) -> Result:
    """One-shot satisfiability check of a conjunction of formulas."""
    s = Solver()
    s.add(*formulas)
    return s.check(options)
