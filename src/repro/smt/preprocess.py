"""Formula preprocessing: real if-then-else lifting and equality elimination.

The downstream pipeline (Tseitin + Simplex) handles boolean structure over
``<=``/``<`` atoms.  These passes rewrite the two remaining constructs:

* real-sorted ``Ite(c, a, b)`` inside arithmetic is replaced by a fresh
  variable ``v`` plus the side conditions ``c => v = a`` and ``!c => v = b``;
* equality atoms ``l == r`` become ``l <= r  and  r <= l`` (a polarity-safe
  rewrite, so it also covers negated equalities).
"""

from __future__ import annotations

from .terms import (
    And,
    FreshReal,
    Implies,
    Ite,
    Kind,
    Not,
    Or,
    Sort,
    Term,
    _rebuild,
)


def lift_real_ites(formula: Term) -> Term:
    """Replace every real-sorted ITE with a fresh variable and side constraints."""
    cache: dict[int, Term] = {}
    side: list[Term] = []

    def walk(t: Term) -> Term:
        hit = cache.get(id(t))
        if hit is not None:
            return hit
        if not t.args:
            cache[id(t)] = t
            return t
        new_args = tuple(walk(a) for a in t.args)
        if t.kind is Kind.ITE and t.sort is Sort.REAL:
            cond, then, other = new_args
            v = FreshReal("ite")
            side.append(Implies(cond, v.eq(then)))
            side.append(Implies(Not(cond), v.eq(other)))
            out = v
        elif all(n is o for n, o in zip(new_args, t.args)):
            out = t
        else:
            out = _rebuild(t, new_args)
        cache[id(t)] = out
        return out

    body = walk(formula)
    if not side:
        return body
    return And(body, *side)


#: input term -> :func:`eliminate_eq` result, once per term per process
_eq_free: dict[Term, Term] = {}


def eliminate_eq(formula: Term) -> Term:
    """Rewrite every real equality atom into a conjunction of two ``<=`` atoms."""
    hit = _eq_free.get(formula)
    if hit is not None:
        return hit
    if formula.kind is Kind.EQ:
        lhs, rhs = formula.args
        out = And(lhs <= rhs, rhs <= lhs)
    elif not formula.args:
        out = formula
    else:
        new_args = tuple(eliminate_eq(a) for a in formula.args)
        if all(n is o for n, o in zip(new_args, formula.args)):
            out = formula
        else:
            out = _rebuild(formula, new_args)
    _eq_free[formula] = out
    return out


def preprocess(formula: Term) -> Term:
    """Run all passes in order; the result contains only bool structure
    over ``<=``/``<`` atoms and boolean variables."""
    return eliminate_eq(lift_real_ites(formula))
