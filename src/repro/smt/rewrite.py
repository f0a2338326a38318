"""Pure term-rewriting passes for the staged compile pipeline.

Every pass here is a function from terms to terms with no solver state:

* :func:`simplify` — bottom-up constant folding plus the boolean
  simplifications the builders don't do on their own: duplicate and
  complementary-literal elimination in ``And``/``Or``, absorption
  (``a AND (a OR b) -> a``), reflexive atoms (``x <= x -> True``).
* :func:`lift_real_ites` — replace real-sorted ``Ite(c, a, b)`` inside
  arithmetic with an auxiliary variable plus the side conditions
  ``c => v = a`` and ``not c => v = b``.  Unlike the legacy
  :mod:`repro.smt.preprocess` pass, the auxiliary variable is named
  *deterministically* from the content of the ITE term, so structurally
  identical queries compile to structurally identical terms in every
  process — a requirement for post-simplification cache keys
  (:mod:`repro.engine.cache`) to survive worker and run boundaries.
* :func:`canonicalize_atoms` — rewrite every ``<=``/``<`` atom into the
  shared :mod:`repro.smt.linarith` normal form, so all spellings of one
  half-space (``x <= y``, ``0 <= y - x``, ``2x - 2y <= 0``) become one
  interned atom term and hence one SAT/Simplex variable.

The driver that sequences these passes (and the variable-eliminating
ones that need cross-conjunct context) is :mod:`repro.smt.compile`.
"""

from __future__ import annotations

import hashlib

from .errors import NonLinearError
from .linarith import LinAtom, normalize_atom
from .terms import (
    FALSE,
    TRUE,
    Add,
    BoolVal,
    Implies,
    Kind,
    Mul,
    Not,
    Real,
    RealVal,
    Sort,
    Term,
    _rebuild,
    canonical_key,
)

__all__ = [
    "atom_term",
    "bottom_up",
    "canonicalize_atoms",
    "lift_real_ites",
    "simplify",
]


def bottom_up(term: Term, fn, memo: dict[Term, Term]) -> Term:
    """Rebuild ``term`` bottom-up, applying ``fn(node, new_args)`` at
    every node (children first).  ``fn`` receives the original node and
    its already-rewritten argument tuple and returns the replacement
    term.  ``memo`` (node -> result) is filled in place; a pure pass
    hands in its module-level memo, so each node is rewritten once per
    process.  Iterative, so arbitrarily deep formulas are safe."""
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if t in memo:
            continue
        if not ready and t.args:
            stack.append((t, True))
            for a in t.args:
                if a not in memo:
                    stack.append((a, False))
            continue
        memo[t] = fn(t, tuple(memo[a] for a in t.args))
    return memo[term]


def _same(args: tuple, orig: tuple) -> bool:
    return all(n is o for n, o in zip(args, orig))


# -- simplify ----------------------------------------------------------------


def _simplify_nary(t: Term) -> Term:
    """Duplicate, complementary-literal, and absorption cleanup for an
    already-flattened ``And``/``Or`` node."""
    k = t.kind
    seen: set[int] = set()
    kept: list[Term] = []
    for a in t.args:
        if id(a) in seen:
            continue
        seen.add(id(a))
        kept.append(a)
    # complementary pair: And(a, not a) is False; Or dual is True
    negated = {id(a.args[0]) for a in kept if a.kind is Kind.NOT}
    if any(id(a) in negated for a in kept):
        return FALSE if k is Kind.AND else TRUE
    # absorption: a AND (a OR b) -> a;  a OR (a AND b) -> a
    inner = Kind.OR if k is Kind.AND else Kind.AND
    ids = {id(a) for a in kept}
    kept = [
        a
        for a in kept
        if not (a.kind is inner and any(id(d) in ids for d in a.args))
    ]
    if len(kept) == len(t.args):
        return t
    if len(kept) == 1:
        return kept[0]
    return Term(k, Sort.BOOL, tuple(kept))


def _post_rules(t: Term) -> Term:
    """Local rules applied to every rebuilt node."""
    k = t.kind
    if k is Kind.AND or k is Kind.OR:
        return _simplify_nary(t)
    if t.args and t.args[0] is t.args[-1] and len(t.args) == 2:
        # reflexive binary nodes over identical (interned) operands
        if k is Kind.IMPLIES or k is Kind.LE or k is Kind.EQ:
            return TRUE
        if k is Kind.LT:
            return FALSE
    return t


#: input term -> :func:`simplify` result, once per term per process
_simplified: dict[Term, Term] = {}


def simplify(term: Term) -> Term:
    """Bottom-up fold: rebuilding through the smart constructors applies
    constant folding, flattening, and double-negation elimination;
    :func:`_post_rules` adds dedup/complement/absorption on top."""

    def fn(t: Term, args: tuple) -> Term:
        if not t.args:
            return t
        out = t if _same(args, t.args) else _rebuild(t, args)
        return _post_rules(out)

    return bottom_up(term, fn, _simplified)


# -- real ITE lifting --------------------------------------------------------


def aux_ite_name(term: Term) -> str:
    """Deterministic auxiliary-variable name for a real-sorted ITE term.

    Derived from the content-addressed :func:`canonical_key`, so the same
    ITE (after inner rewriting) gets the same variable in every process:
    compiled forms — and therefore post-simplification cache keys — are
    reproducible across portfolio workers and on-disk cache sessions.
    Identical ITEs in one query share one variable and one pair of side
    conditions, which is exactly the sharing we want.
    """
    digest = hashlib.sha256(canonical_key(term).encode("utf-8")).hexdigest()
    return f"ite@{digest[:16]}"


def lift_real_ites(formula: Term, side: list, emitted: set) -> Term:
    """Replace real-sorted ITEs with deterministic auxiliary variables.

    Appends the side conditions to ``side``; ``emitted`` (a set of aux
    names, shared across the conjuncts of one compile) prevents duplicate
    side conditions when the same ITE occurs in several conjuncts."""

    def fn(t: Term, args: tuple) -> Term:
        if not t.args:
            return t
        out = t if _same(args, t.args) else _rebuild(t, args)
        if out.kind is Kind.ITE and out.sort is Sort.REAL:
            cond, then, other = out.args
            name = aux_ite_name(out)
            v = Real(name)
            if name not in emitted:
                emitted.add(name)
                side.append(Implies(cond, v.eq(then)))
                side.append(Implies(Not(cond), v.eq(other)))
            return v
        return out

    return bottom_up(formula, fn, {})


# -- atom canonicalization ---------------------------------------------------


#: atom -> :func:`atom_term` result, once per atom per process
_atom_terms: dict[LinAtom, Term] = {}


def atom_term(atom: LinAtom) -> Term:
    """The canonical term spelling of a :class:`LinAtom`.

    Upper atoms become ``expr <= bound`` / ``expr < bound`` with the
    variables in name order and the leading coefficient ``+1`` (the
    normal form :func:`normalize_atom` produces); lower atoms become the
    negation of the complementary upper atom, so each half-space has
    exactly one positive spelling and the encoder maps both polarities
    onto one theory variable.
    """
    hit = _atom_terms.get(atom)
    if hit is None:
        lhs = Add(*[Mul(c, v) for v, c in atom.expr])
        bound = RealVal(atom.bound)
        if atom.upper:
            hit = (lhs < bound) if atom.strict else (lhs <= bound)
        else:
            # expr >= b  ==  not (expr < b);   expr > b  ==  not (expr <= b)
            hit = Not(lhs <= bound) if atom.strict else Not(lhs < bound)
        _atom_terms[atom] = hit
    return hit


#: input term -> :func:`canonicalize_atoms` result, once per term
_canonicalized: dict[Term, Term] = {}


def canonicalize_atoms(formula: Term) -> Term:
    """Rewrite every ``<=``/``<`` atom into linarith normal form (ground
    atoms fold to constants).  Equalities must already be eliminated
    (:func:`repro.smt.preprocess.eliminate_eq`)."""

    def fn(t: Term, args: tuple) -> Term:
        if not t.args:
            return t
        out = t if _same(args, t.args) else _rebuild(t, args)
        if out.kind is Kind.LE or out.kind is Kind.LT:
            try:
                la = normalize_atom(out)
            except NonLinearError:
                return out  # leave for the encoder to reject
            if isinstance(la, bool):
                return BoolVal(la)
            return atom_term(la)
        return out

    return bottom_up(formula, fn, _canonicalized)
