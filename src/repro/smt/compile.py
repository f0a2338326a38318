"""The staged compile pipeline: assertion set → :class:`CompiledQuery`.

Every query used to go from raw CCAC terms straight into Tseitin CNF.
This module is the single audited path that sits in front of the encoder
for the Solver, QueryCache, and CcacVerifier:

1. **fold** — bottom-up constant folding, duplicate / complementary
   literal elimination, absorption (:func:`repro.smt.rewrite.simplify`).
2. **ite** — real-sorted ITE lifting with *deterministic* auxiliary
   names (:func:`repro.smt.rewrite.lift_real_ites`), so compiled forms
   are reproducible across processes.
3. **inline** — definition inlining: a top-level conjunct ``v == e``
   with ``v`` a real variable and ``e`` linear in other variables
   substitutes ``e`` for ``v`` everywhere and records ``v`` in the
   reconstruction map.  This removes the equality chains the CCAC model
   and the template's linearized products are full of.
4. **bounds** — interval propagation over single-variable atoms: keeps
   only the tightest lower/upper bound per variable, detects interval
   conflicts (→ ``False``), and fixes variables whose interval collapses
   to a point (``lo == hi``), eliminating them like stage 3.
5. **atoms** — equality elimination plus linear-atom canonicalization
   (:func:`repro.smt.rewrite.canonicalize_atoms`): every spelling of a
   half-space becomes one interned atom term, so the encoder allocates
   one SAT variable and one Simplex row for all of them.
6. **refine** — post-canonicalization fixpoint of two cheap entailment
   passes that need canonical atom spellings to fire:

   * *unit literal propagation* — a top-level literal conjunct ``L``
     (an atom, a bool variable, or a negation of either) rewrites every
     *other* conjunct under ``L -> true`` (``L ∧ φ  ≡  L ∧ φ[L→⊤]``),
     collapsing disjuncts the model already decided;
   * *interval entailment* — single-variable atoms *nested inside*
     other conjuncts that the global interval map already decides fold
     to ``true``/``false`` (e.g. a ``cwnd_t <= 0`` disjunct under a
     ``cwnd_t >= 1/10`` floor), which in turn exposes new units,
     points, and definitions for another iteration.

Every stage always runs.  Stages 1–4 iterate to a fixpoint (bounded by
:data:`MAX_ROUNDS`); stage 5 runs once, and stage 6 iterates to its own
fixpoint under the same bound.

Soundness of variable elimination
---------------------------------
Stages 3/4 preserve *equivalence up to the eliminated variables*: for
every model of the compiled query, extending it with the recorded
definitions (:meth:`CompiledQuery.reconstruct`) yields a model of the
original query, and every model of the original restricts to a model of
the compiled one.  Two rules keep this airtight in incremental use:

* **Frozen variables** (``frozen=`` argument): a variable that an
  earlier compile already put into the solver's encoding must *not* be
  eliminated — a later ``add(x == 3)`` must constrain the existing
  ``x``, not substitute it away.  For frozen variables only constant
  values are propagated, and the defining conjunct is kept (pinned) so
  the solver still sees the constraint.
* **Resolved definitions**: the reconstruction map is kept resolved —
  a definition never references another eliminated variable — so model
  reconstruction is a single linear evaluation per variable, in any
  order.

Cache keys move post-simplification: :attr:`CompiledQuery.key` hashes
the compiled formulas, so queries that differ only in folded structure,
atom spelling, or eliminated definitions hit the same cache entry.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from ..obs import DEBUG, metrics, tracer
from . import rewrite
from .cnf import TseitinEncoder
from .errors import NonLinearError, SortError
from .linarith import LinAtom, LinExpr, normalize_atom
from .preprocess import eliminate_eq
from .terms import (
    FALSE,
    TRUE,
    Kind,
    RealVal,
    Sort,
    Term,
    canonical_hash,
    substitute,
)

__all__ = [
    "CompileStats",
    "CompiledQuery",
    "Cnf",
    "compile_query",
]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class CompileStats:
    """Before/after accounting of one compile (exported to obs)."""

    nodes_before: int = 0
    nodes_after: int = 0
    atoms_before: int = 0
    atoms_after: int = 0
    vars_eliminated: int = 0
    rounds: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Cnf:
    """Standalone clausal form of a compiled query (for inspection and
    benchmarking — the live solver encodes into its own SAT core).

    ``atoms`` maps theory SAT variables to their canonical
    :class:`~repro.smt.linarith.LinAtom`.
    """

    num_vars: int
    clauses: tuple
    atoms: Mapping[int, LinAtom]


class _SatSink:
    """Minimal stand-in for :class:`~repro.smt.sat.SatSolver` that just
    records clauses (duck-typed against :class:`TseitinEncoder`)."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self):
        self.num_vars = 0
        self.clauses: list[tuple[int, ...]] = []

    def new_var(self, theory_atom: bool = False) -> int:
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, lits) -> None:
        self.clauses.append(tuple(lits))


class _TheorySink:
    """Records atom registrations instead of building a Simplex tableau."""

    __slots__ = ("atoms",)

    def __init__(self):
        self.atoms: dict[int, LinAtom] = {}

    def register_atom(self, atom: LinAtom, var: int) -> None:
        self.atoms[var] = atom


class CompiledQuery:
    """The IR a query becomes: simplified conjuncts, the variable
    reconstruction map, and (lazily) its cache key, atom table and CNF.

    ``formulas`` is the simplified, canonicalized conjunct tuple — the
    exact terms a solver asserts.  ``eliminated`` is a tuple of
    ``(variable, defining linear term)`` pairs; definitions reference
    only surviving variables (see the module docstring), so
    :meth:`reconstruct` extends any model of ``formulas`` back to a model
    of the original assertion set.
    """

    __slots__ = ("formulas", "eliminated", "variables", "stats", "_key", "_cnf", "_atoms")

    def __init__(
        self,
        formulas: tuple[Term, ...],
        eliminated: tuple[tuple[Term, Term], ...],
        variables: frozenset,
        stats: CompileStats,
    ):
        self.formulas = formulas
        self.eliminated = eliminated
        #: every variable ``formulas`` mention (what a solver freezes)
        self.variables = variables
        self.stats = stats
        self._key: Optional[str] = None
        self._cnf: Optional[Cnf] = None
        self._atoms: Optional[dict[LinAtom, Term]] = None

    @property
    def key(self) -> str:
        """Content hash of the *post-simplification* form — the cache key."""
        if self._key is None:
            self._key = canonical_hash(self.formulas)
        return self._key

    def is_false(self) -> bool:
        """True when the pipeline already refuted the query."""
        return any(f is FALSE for f in self.formulas)

    def atom_table(self) -> dict[LinAtom, Term]:
        """Distinct theory atoms (canonical upper form) → one term
        spelling them.  The size of this table is the number of Simplex
        rows the query costs."""
        if self._atoms is None:
            atoms: dict[LinAtom, Term] = {}
            for f in self.formulas:
                for node in f.iter_dag():
                    if node.kind not in (Kind.LE, Kind.LT):
                        continue
                    try:
                        la = normalize_atom(node)
                    except NonLinearError:
                        continue
                    if isinstance(la, bool):
                        continue
                    if not la.upper:
                        la = la.negate()
                    atoms.setdefault(la, node)
            self._atoms = atoms
        return self._atoms

    def cnf(self) -> Cnf:
        """Clausal form, computed against throwaway sinks."""
        if self._cnf is None:
            sat_sink = _SatSink()
            theory_sink = _TheorySink()
            encoder = TseitinEncoder(sat_sink, theory_sink)  # type: ignore[arg-type]
            for f in self.formulas:
                encoder.assert_formula(f)
            self._cnf = Cnf(sat_sink.num_vars, tuple(sat_sink.clauses), theory_sink.atoms)
        return self._cnf

    def reconstruct(self, reals: Mapping[Term, Fraction]) -> dict[Term, Fraction]:
        """Values of the eliminated variables under a model of
        ``formulas``.  Variables absent from ``reals`` default to 0,
        matching the solver's don't-care convention."""
        out: dict[Term, Fraction] = {}
        for var, defn in self.eliminated:
            expr = LinExpr.from_term(defn)
            total = expr.const
            for v, c in expr.coeffs.items():
                total += c * Fraction(reals.get(v, 0))
            out[var] = total
        return out


# ---------------------------------------------------------------------------
# The compiler
# ---------------------------------------------------------------------------

#: fixpoint bound for the fold/ite/inline/bounds loop and for stage 6
MAX_ROUNDS = 4

_MEMO_MAX = 128

#: (input term ids, frozen var ids) -> CompiledQuery.  Valid because
#: interned terms are never released, so their ids are stable.
_memo: "OrderedDict[tuple, CompiledQuery]" = OrderedDict()


def compile_query(
    formulas: Iterable[Term],
    frozen: Iterable[Term] = (),
) -> CompiledQuery:
    """Compile an assertion set through the staged pipeline.

    ``frozen`` names variables that earlier compiles already encoded into
    a live solver; they are never eliminated (only constant values are
    propagated, with the defining conjunct pinned).
    """
    fs = tuple(formulas)
    frozen_ids = frozenset(id(v) for v in frozen)
    memo_key = (tuple(id(f) for f in fs), frozen_ids)
    hit = _memo.get(memo_key)
    if hit is not None:
        _memo.move_to_end(memo_key)
        metrics().counter("compile.memo_hits").inc()
        return hit
    out = _compile(fs, frozen_ids)
    _memo[memo_key] = out
    if len(_memo) > _MEMO_MAX:
        _memo.popitem(last=False)
    return out


def _stage(tr, name: str):
    return tr.span(name, level=DEBUG) if tr.enabled else nullcontext()


def _nodes(formulas) -> list[Term]:
    """Every distinct node across ``formulas``, each once."""
    seen: dict[int, Term] = {}
    stack = list(formulas)
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen[id(t)] = t
            stack.extend(t.args)
    return list(seen.values())


def _count_atoms(nodes: list[Term]) -> int:
    return sum(1 for n in nodes if n.kind in (Kind.LE, Kind.LT, Kind.EQ))


def _flatten_conjuncts(formulas: Iterable[Term]) -> list[Term]:
    """Split top-level conjunctions, drop ``True``, dedup by identity.
    A ``False`` conjunct collapses the whole set."""
    out: list[Term] = []
    seen: set[int] = set()
    for f in formulas:
        parts = f.args if f.kind is Kind.AND else (f,)
        for p in parts:
            if p is TRUE or id(p) in seen:
                continue
            if p is FALSE:
                return [FALSE]
            seen.add(id(p))
            out.append(p)
    return out


def _compile(fs: tuple[Term, ...], frozen_ids: frozenset) -> CompiledQuery:
    tr = tracer()
    reg = metrics()
    stats = CompileStats()
    nodes = _nodes(fs)
    stats.nodes_before, stats.atoms_before = len(nodes), _count_atoms(nodes)
    start = time.perf_counter()

    span = (
        tr.span("smt.compile", level=DEBUG, formulas=len(fs), frozen=len(frozen_ids))
        if tr.enabled
        else nullcontext()
    )
    with span:
        conjuncts = _flatten_conjuncts(fs)
        eliminated: dict[Term, Term] = {}
        pins: list[Term] = []
        emitted_ites: set[str] = set()

        for round_no in range(1, MAX_ROUNDS + 1):
            stats.rounds = round_no
            before = tuple(id(c) for c in conjuncts)
            with _stage(tr, "compile.fold"):
                conjuncts = _flatten_conjuncts(
                    rewrite.simplify(c) for c in conjuncts
                )
            if conjuncts == [FALSE]:
                break
            with _stage(tr, "compile.ite"):
                conjuncts = _ite_pass(conjuncts, emitted_ites)
            with _stage(tr, "compile.inline"):
                conjuncts = _inline_pass(conjuncts, eliminated, frozen_ids, pins)
            with _stage(tr, "compile.bounds"):
                conjuncts = _bounds_pass(conjuncts, eliminated, frozen_ids, pins)
            if conjuncts == [FALSE] or tuple(id(c) for c in conjuncts) == before:
                break

        with _stage(tr, "compile.atoms"):
            conjuncts = _flatten_conjuncts([
                rewrite.simplify(rewrite.canonicalize_atoms(eliminate_eq(c)))
                for c in conjuncts + pins
            ])
            pins = []  # folded in above; refinement may grow new ones

        # stage 6: units/entailment refinement — both passes key on exact
        # atom identity, so they run after canonicalization has merged
        # the spellings
        for _ in range(MAX_ROUNDS):
            before = tuple(id(c) for c in conjuncts)
            if conjuncts == [FALSE]:
                break
            with _stage(tr, "compile.units"):
                conjuncts = _units_pass(conjuncts)
            if conjuncts != [FALSE]:
                with _stage(tr, "compile.bounds"):
                    conjuncts = _bounds_pass(
                        conjuncts, eliminated, frozen_ids, pins
                    )
            if pins:
                conjuncts = _flatten_conjuncts(conjuncts + [
                    eliminate_eq(p) for p in pins
                ])
                pins = []
            conjuncts = _flatten_conjuncts([
                rewrite.simplify(rewrite.canonicalize_atoms(c)) for c in conjuncts
            ])
            if conjuncts == [FALSE] or tuple(id(c) for c in conjuncts) == before:
                break
            stats.rounds += 1

        nodes = _nodes(conjuncts)
        stats.nodes_after, stats.atoms_after = len(nodes), _count_atoms(nodes)
        out = CompiledQuery(
            tuple(conjuncts),
            tuple(sorted(eliminated.items(), key=lambda p: p[0].name or "")),
            frozenset(n for n in nodes if n.kind is Kind.VAR),
            stats,
        )
        stats.vars_eliminated = len(eliminated)

        if isinstance(span, nullcontext):
            pass
        else:
            span.set(
                rounds=stats.rounds,
                nodes_before=stats.nodes_before,
                nodes_after=stats.nodes_after,
                atoms_before=stats.atoms_before,
                atoms_after=stats.atoms_after,
                eliminated=stats.vars_eliminated,
            )

    reg.counter("compile.queries").inc()
    reg.counter("compile.nodes_before").inc(stats.nodes_before)
    reg.counter("compile.nodes_after").inc(stats.nodes_after)
    reg.counter("compile.atoms_before").inc(stats.atoms_before)
    reg.counter("compile.atoms_after").inc(stats.atoms_after)
    reg.counter("compile.vars_eliminated").inc(stats.vars_eliminated)
    reg.histogram("compile.time").observe(time.perf_counter() - start)
    return out


# -- stage: ITE lifting ------------------------------------------------------


#: conjuncts found to hold no real-sorted ITE, which the ITE pass returns
#: unchanged (a pure property of the interned term, so kept per process)
_ite_free: set[Term] = set()


def _ite_pass(conjuncts: list[Term], emitted: set[str]) -> list[Term]:
    side: list[Term] = []
    out = []
    for c in conjuncts:
        if c not in _ite_free:
            lifted = rewrite.lift_real_ites(c, side, emitted)
            if lifted is c:
                _ite_free.add(c)
            c = lifted
        out.append(c)
    if not side:
        return out
    return _flatten_conjuncts(out + side)


# -- stage: definition inlining ----------------------------------------------


def _chain(subst: dict[Term, Term], var: Term, defn: Term) -> None:
    """Add ``var -> defn`` keeping the invariant that no substitution
    value references a substitution key."""
    if subst:
        upd = {var: defn}
        for v in list(subst):
            subst[v] = substitute(subst[v], upd)
    subst[var] = defn


def _try_def(
    conjunct: Term,
    subst: dict[Term, Term],
    frozen_ids: frozenset,
    pins: list[Term],
) -> bool:
    """If ``conjunct`` is a usable definition ``v == e``, record it in
    ``subst`` and return True (the caller drops the conjunct)."""
    lhs, rhs = conjunct.args
    for var, body in ((lhs, rhs), (rhs, lhs)):
        if var.kind is not Kind.VAR or var.sort is not Sort.REAL or var in subst:
            continue
        resolved = substitute(body, subst) if subst else body
        try:
            expr = LinExpr.from_term(resolved)
        except (NonLinearError, SortError):
            continue
        if var in expr.coeffs:
            continue  # self-referential (e.g. x == x + 1 is unsat, not a def)
        if id(var) in frozen_ids:
            if expr.coeffs:
                continue  # frozen: only constants propagate
            _chain(subst, var, RealVal(expr.const))
            pins.append(var.eq(RealVal(expr.const)))
            return True
        _chain(subst, var, resolved)
        return True
    return False


def _inline_pass(
    conjuncts: list[Term],
    eliminated: dict[Term, Term],
    frozen_ids: frozenset,
    pins: list[Term],
) -> list[Term]:
    subst: dict[Term, Term] = {}
    keep: list[Term] = []
    for c in conjuncts:
        if c.kind is Kind.EQ and _try_def(c, subst, frozen_ids, pins):
            continue
        keep.append(c)
    if not subst:
        return conjuncts
    _record_eliminations(eliminated, subst, frozen_ids)
    return _flatten_conjuncts(substitute(c, subst) for c in keep)


def _record_eliminations(
    eliminated: dict[Term, Term], subst: dict[Term, Term], frozen_ids: frozenset
) -> None:
    """Fold a substitution batch into the reconstruction map, keeping
    definitions resolved (values never reference eliminated variables).
    Frozen variables are propagated but *not* recorded — they survive in
    the solver and get their values from the model directly."""
    for v in list(eliminated):
        eliminated[v] = substitute(eliminated[v], subst)
    for v, d in subst.items():
        if id(v) not in frozen_ids:
            eliminated[v] = d


# -- stage: unit literal propagation -----------------------------------------


def _unit_literal(conjunct: Term):
    """``(base, truth)`` when the conjunct is a literal — a theory atom
    or bool variable, possibly under one ``Not`` — else None."""
    neg = conjunct.kind is Kind.NOT
    t = conjunct.args[0] if neg else conjunct
    if t.kind in (Kind.LE, Kind.LT) or (
        t.kind is Kind.VAR and t.sort is Sort.BOOL
    ):
        return t, (FALSE if neg else TRUE)
    return None


def _units_pass(conjuncts: list[Term]) -> list[Term]:
    """Top-level unit literal propagation: ``L ∧ φ ≡ L ∧ φ[L→⊤]``.

    Every literal conjunct is kept as asserted, and its truth value is
    substituted into all *other* conjuncts (matching by interned atom
    identity — canonicalization has already merged spellings).  Opposite
    literals over the same base refute the query outright.
    """
    facts: dict[Term, Term] = {}
    for c in conjuncts:
        lit = _unit_literal(c)
        if lit is None:
            continue
        base, truth = lit
        prev = facts.get(base)
        if prev is not None and prev is not truth:
            return [FALSE]
        facts[base] = truth
    if not facts:
        return conjuncts
    out: list[Term] = []
    changed = False
    for c in conjuncts:
        if _unit_literal(c) is not None:
            out.append(c)
            continue
        new = substitute(c, facts)
        changed = changed or new is not c
        out.append(new)
    return _flatten_conjuncts(out) if changed else conjuncts


# -- stage: interval bounds propagation --------------------------------------


class _Interval:
    __slots__ = ("lo", "lo_strict", "hi", "hi_strict")

    def __init__(self):
        self.lo: Optional[Fraction] = None
        self.lo_strict = False
        self.hi: Optional[Fraction] = None
        self.hi_strict = False

    def add_upper(self, bound: Fraction, strict: bool) -> None:
        if self.hi is None or bound < self.hi or (bound == self.hi and strict):
            self.hi, self.hi_strict = bound, strict

    def add_lower(self, bound: Fraction, strict: bool) -> None:
        if self.lo is None or bound > self.lo or (bound == self.lo and strict):
            self.lo, self.lo_strict = bound, strict

    def empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_strict or self.hi_strict)

    def point(self) -> Optional[Fraction]:
        if (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_strict
            and not self.hi_strict
        ):
            return self.lo
        return None


def _unit_atom(conjunct: Term):
    """``(var, LinAtom)`` when the conjunct is a single-variable bound
    (possibly under ``Not``), a bool for ground atoms, else None."""
    negated = False
    t = conjunct
    if t.kind is Kind.NOT:
        negated = True
        t = t.args[0]
    if t.kind not in (Kind.LE, Kind.LT):
        return None
    try:
        la = normalize_atom(t)
    except NonLinearError:
        return None
    if isinstance(la, bool):
        return (not la) if negated else la
    if negated:
        la = la.negate()
    if len(la.expr) != 1:
        return None
    return la.expr[0][0], la


def _decide_atom(la: LinAtom, iv: _Interval) -> Optional[bool]:
    """Truth value of single-variable atom ``la`` (lead coefficient +1)
    under interval ``iv``, or None when the interval doesn't decide it."""
    b = la.bound
    if la.upper:  # v <= b (strict: v < b)
        if iv.hi is not None and (
            iv.hi < b or (iv.hi == b and (not la.strict or iv.hi_strict))
        ):
            return True
        if iv.lo is not None and (
            iv.lo > b or (iv.lo == b and (la.strict or iv.lo_strict))
        ):
            return False
    else:  # v >= b (strict: v > b)
        if iv.lo is not None and (
            iv.lo > b or (iv.lo == b and (not la.strict or iv.lo_strict))
        ):
            return True
        if iv.hi is not None and (
            iv.hi < b or (iv.hi == b and (la.strict or iv.hi_strict))
        ):
            return False
    return None


def _entailment_folds(others: list[Term], intervals: dict[Term, _Interval]):
    """Nested single-variable atoms that the interval map already
    decides, mapped to their truth constant (for substitution)."""
    folds: dict[Term, Term] = {}
    for c in others:
        for node, la in _bound_atoms(c):
            iv = intervals.get(la.expr[0][0])
            if iv is None:
                continue
            verdict = _decide_atom(la, iv)
            if verdict is not None:
                folds[node] = TRUE if verdict else FALSE
    return folds


#: conjunct -> its nested single-variable atoms, once per term
_bound_atoms_memo: dict[Term, tuple[tuple[Term, LinAtom], ...]] = {}


def _bound_atoms(c: Term) -> tuple[tuple[Term, LinAtom], ...]:
    """``(atom term, LinAtom)`` for every single-variable ``<=``/``<``
    atom in ``c``'s DAG."""
    hit = _bound_atoms_memo.get(c)
    if hit is None:
        found = []
        for node in c.iter_dag():
            if node.kind not in (Kind.LE, Kind.LT):
                continue
            try:
                la = normalize_atom(node)
            except NonLinearError:
                continue
            if not isinstance(la, bool) and len(la.expr) == 1:
                found.append((node, la))
        hit = _bound_atoms_memo[c] = tuple(found)
    return hit


def _bounds_pass(
    conjuncts: list[Term],
    eliminated: dict[Term, Term],
    frozen_ids: frozenset,
    pins: list[Term],
) -> list[Term]:
    intervals: dict[Term, _Interval] = {}
    others: list[Term] = []
    for c in conjuncts:
        unit = _unit_atom(c)
        if unit is None:
            others.append(c)
            continue
        if isinstance(unit, bool):
            if not unit:
                return [FALSE]
            continue  # ground-true bound: drop
        var, la = unit
        iv = intervals.setdefault(var, _Interval())
        # single-variable atoms have lead coefficient +1, so upper/lower
        # map directly onto the interval ends
        if la.upper:
            iv.add_upper(la.bound, la.strict)
        else:
            iv.add_lower(la.bound, la.strict)

    if intervals:
        folds = _entailment_folds(others, intervals)
        if folds:
            others = [substitute(c, folds) for c in others]

    fixes: dict[Term, Term] = {}
    units: list[Term] = []
    for var in sorted(intervals, key=lambda v: v.name or ""):
        iv = intervals[var]
        if iv.empty():
            return [FALSE]
        val = iv.point()
        if val is not None:
            if id(var) in frozen_ids:
                pins.append(var.eq(RealVal(val)))
            _chain(fixes, var, RealVal(val))
            continue
        one = ((var, Fraction(1)),)
        if iv.hi is not None:
            units.append(rewrite.atom_term(LinAtom(one, iv.hi, True, iv.hi_strict)))
        if iv.lo is not None:
            units.append(rewrite.atom_term(LinAtom(one, iv.lo, False, iv.lo_strict)))

    if fixes:
        _record_eliminations(eliminated, fixes, frozen_ids)
        others = [substitute(c, fixes) for c in others]
    return _flatten_conjuncts(others + units)
