"""Long-lived incremental solver sessions (the public incremental API).

A :class:`SolverSession` owns one :class:`~repro.smt.solver.Solver` for
the lifetime of many related queries.  Instead of rebuilding the full
encoding per query — the dominant cost of the CEGIS verifier, which used
to construct a fresh solver per candidate — a session asserts the shared
*base* constraints once and push/pops only the query-specific deltas::

    session = SolverSession(base=ccac_constraints)
    for candidate in candidates:
        with session.scope(*candidate_constraints):
            if session.check() is sat:
                cex = session.model()

Everything the base encoding paid for is amortized across queries: the
CNF conversion, the theory atom registration, and — because push/pop is
implemented with guard literals — the learned clauses, which survive
every pop (see :meth:`repro.smt.sat.SatSolver.simplify` and DESIGN.md,
"Clause retention across pops").

Sessions optionally consult a **content-addressed query cache** (any
object with ``lookup(key)``/``store(key, result, model)``; see
:class:`repro.engine.cache.QueryCache`).  The key is the canonical hash
(:func:`repro.smt.terms.canonical_hash`) of the active assertion set in
its *post-compile* form (:meth:`repro.smt.solver.Solver.compiled_assertions`),
so queries that differ only in assertion order, term construction order,
folded structure, or atom spelling are answered without a solve.
``unknown`` results are never cached (they describe a budget, not the
formula).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol

from ..obs import metrics
from .solver import CheckOptions, Model, Result, Solver, _require_options, sat, unknown
from .terms import Term, canonical_hash


class QueryCacheProtocol(Protocol):
    """What a session needs from a cache (implemented by
    :class:`repro.engine.cache.QueryCache`)."""

    def lookup(self, key: str):
        """``(Result, Optional[Model])`` for a previously stored query,
        or None on miss."""
        ...

    def store(self, key: str, result: Result, model: Optional[Model]) -> None:
        """Record a conclusive (sat/unsat) verdict for ``key``."""
        ...


@dataclass
class SessionStats:
    """Bookkeeping over the life of one session."""

    checks: int = 0
    solved: int = 0  # checks that reached the underlying solver
    cache_hits: int = 0
    cache_misses: int = 0
    scopes: int = 0

    def as_dict(self) -> dict:
        return {
            "checks": self.checks,
            "solved": self.solved,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "scopes": self.scopes,
        }


class SolverSession:
    """Incremental solving over a shared base encoding.

    This is the one public incremental entry point: callers that used to
    hold a raw :class:`Solver` across push/pop cycles should hold a
    session instead.  The raw solver remains available as
    :attr:`solver` for diagnostics (stats, assertions), but mutating it
    directly bypasses the cache accounting.
    """

    def __init__(
        self,
        base: Iterable[Term] = (),
        *,
        cache: Optional[QueryCacheProtocol] = None,
        produce_proofs: bool = False,
    ):
        self.solver = Solver(produce_proofs=produce_proofs)
        self.cache = cache
        self.stats = SessionStats()
        self._cached: Optional[tuple[Result, Optional[Model]]] = None
        base = list(base)
        if base:
            self.solver.add(*base)

    # -- assertion stack (delegates to the underlying solver) ---------------

    def add(self, *formulas: Term) -> None:
        """Assert formulas into the current frame."""
        self._cached = None
        self.solver.add(*formulas)

    def assertions(self) -> list[Term]:
        """All currently active assertions (base + open scopes)."""
        return self.solver.assertions()

    def push(self) -> None:
        """Open a new assertion frame."""
        self._cached = None
        self.solver.push()

    def pop(self) -> None:
        """Discard the most recent frame (learned clauses are retained)."""
        self._cached = None
        self.solver.pop()

    @contextmanager
    def scope(self, *formulas: Term):
        """One query's worth of extra assertions, popped on exit::

            with session.scope(extra1, extra2):
                session.check()
        """
        self.stats.scopes += 1
        self.push()
        try:
            if formulas:
                self.add(*formulas)
            yield self
        finally:
            self.pop()

    # -- solving -------------------------------------------------------------

    def check(self, options: Optional[CheckOptions] = None) -> Result:
        """Decide the active assertion set, consulting the cache first.

        A cache hit returns the stored verdict (and, for sat, the stored
        model) without touching the solver; conclusive misses are stored
        back.  ``unknown`` is never cached.
        """
        opts = _require_options(options, "SolverSession.check")
        self.stats.checks += 1
        key = None
        if self.cache is not None:
            # Key on the compiled form: semantically identical queries
            # that differ pre-simplification share an entry.
            key = canonical_hash(self.solver.compiled_assertions())
            # Proof mode never takes a cached verdict: a stored UNSAT
            # carries no certificate, and certification is the point.
            hit = None if self.solver.proof_mode else self.cache.lookup(key)
            if hit is not None:
                self.stats.cache_hits += 1
                metrics().counter("engine.cache.hits").inc()
                self._cached = hit
                return hit[0]
            self.stats.cache_misses += 1
            metrics().counter("engine.cache.misses").inc()
        self._cached = None
        self.stats.solved += 1
        result = self.solver.check(opts)
        if key is not None and result is not unknown:
            self.cache.store(
                key, result, self.solver.model() if result is sat else None
            )
        return result

    def certificate(self):
        """Checkable proof of the last UNSAT verdict (proof mode only);
        see :meth:`repro.smt.solver.Solver.certificate`."""
        return self.solver.certificate()

    def model(self) -> Model:
        """The model of the last sat :meth:`check` (cached or solved)."""
        if self._cached is not None:
            result, model = self._cached
            if model is None:
                from .errors import UnknownResultError

                raise UnknownResultError(
                    f"no model available (cached verdict was {result.value})"
                )
            return model
        return self.solver.model()
