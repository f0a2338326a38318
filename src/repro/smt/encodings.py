"""Reusable constraint encodings over the term language.

These are the gadgets the CCmatic encodings rely on:

* ``encode_max`` — define a variable as the max of finitely many terms;
* ``exactly_one`` / ``at_most_one`` — one-hot selector constraints.

The paper's linearization of a product ``v * u`` with ``v`` ranging over
a finite set (§3.1.2) is the case split in
:meth:`repro.core.generator_smt.SmtGenerator._rule_term`.
"""

from __future__ import annotations

from typing import Sequence

from .terms import And, Not, Or, Term


def encode_max(result: Term, operands: Sequence[Term]) -> Term:
    """Constraint stating ``result == max(operands)``."""
    parts = [result >= op for op in operands]
    parts.append(Or(*[result <= op for op in operands]))
    return And(*parts)


def at_most_one(selectors: Sequence[Term]) -> Term:
    """Pairwise at-most-one over boolean selectors."""
    parts = []
    for i in range(len(selectors)):
        for j in range(i + 1, len(selectors)):
            parts.append(Or(Not(selectors[i]), Not(selectors[j])))
    return And(*parts)


def exactly_one(selectors: Sequence[Term]) -> Term:
    """Exactly-one over boolean selectors (one-hot)."""
    return And(Or(*selectors), at_most_one(selectors))
