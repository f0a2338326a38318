"""Normalization of real-sorted terms into linear expressions and atoms.

A :class:`LinExpr` is a mapping from real variables to rational coefficients
plus a rational constant.  Atoms (``<=``, ``<``) are normalized into
:class:`LinAtom` — a *canonically scaled* coefficient vector together with a
bound, a direction (upper vs lower) and a strictness flag.  Canonical scaling
makes structurally different but equivalent atoms (``2x + 2y <= 6`` and
``x + y <= 3``) share the same slack variable inside the Simplex core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import NonLinearError, SortError
from .terms import Kind, Sort, Term


class LinExpr:
    """A linear expression ``sum(coeff_i * var_i) + const`` over Fractions."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: dict[Term, Fraction] | None = None, const: Fraction = Fraction(0)):
        self.coeffs: dict[Term, Fraction] = coeffs or {}
        self.const = Fraction(const)

    @classmethod
    def from_term(cls, term: Term) -> "LinExpr":
        """Normalize a real-sorted term; raises on non-linear products."""
        if term.sort is not Sort.REAL:
            raise SortError(f"expected real term, got {term!r}")
        out = cls()
        out._accumulate(term, Fraction(1))
        out._drop_zeros()
        return out

    def _accumulate(self, term: Term, scale: Fraction) -> None:
        k = term.kind
        if k is Kind.CONST:
            self.const += scale * term.value
        elif k is Kind.VAR:
            c = self.coeffs.get(term)
            self.coeffs[term] = scale if c is None else c + scale
        elif k is Kind.ADD:
            for a in term.args:
                self._accumulate(a, scale)
        elif k is Kind.NEG:
            self._accumulate(term.args[0], -scale)
        elif k is Kind.SCALE:
            if term.value is None:
                raise NonLinearError(f"non-linear product: {term!r}")
            self._accumulate(term.args[0], scale * term.value)
        else:
            raise SortError(f"not an arithmetic term: {term!r}")

    def _drop_zeros(self) -> None:
        self.coeffs = {v: c for v, c in self.coeffs.items() if c != 0}

    def is_constant(self) -> bool:
        return not self.coeffs

    def evaluate(self, env) -> Fraction:
        """Evaluate under a variable assignment (vars -> Fraction)."""
        total = self.const
        for var, coeff in self.coeffs.items():
            total += coeff * Fraction(env[var])
        return total

    def __repr__(self) -> str:
        parts = [f"{c}*{v.name}" for v, c in sorted(self.coeffs.items(), key=lambda p: p[0].name)]
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


@dataclass(frozen=True)
class LinAtom:
    """A canonical linear atom: ``expr (<=|<|>=|>) bound``.

    ``expr`` is a tuple of ``(var, coeff)`` pairs sorted by variable name with
    the leading coefficient normalized to ``+1`` and no constant part.
    ``upper=True`` reads "expr is at most bound"; ``strict=True`` makes the
    comparison strict.
    """

    expr: tuple[tuple[Term, Fraction], ...]
    bound: Fraction
    upper: bool
    strict: bool

    def negate(self) -> "LinAtom":
        """Logical negation: ``not (e <= b)`` is ``e > b`` etc."""
        return LinAtom(self.expr, self.bound, not self.upper, not self.strict)

    def holds(self, env) -> bool:
        """Evaluate the atom under an assignment (vars -> Fraction)."""
        total = Fraction(0)
        for var, coeff in self.expr:
            total += coeff * Fraction(env[var])
        if self.upper:
            return total < self.bound if self.strict else total <= self.bound
        return total > self.bound if self.strict else total >= self.bound


#: atom term -> its normal form, once per term per process
_normal_forms: dict[Term, LinAtom | bool] = {}


def normalize_atom(term: Term) -> LinAtom | bool:
    """Normalize a ``<=``/``<`` atom term into a :class:`LinAtom`.

    Returns a plain bool when the atom is ground (no variables).  ``==``
    atoms must be eliminated beforehand (see :mod:`repro.smt.preprocess`).
    Memoised per term; a term that raises is not recorded.
    """
    hit = _normal_forms.get(term)
    if hit is None:
        hit = _normal_forms[term] = _normalize(term)
    return hit


def _normalize(term: Term) -> LinAtom | bool:
    if term.kind not in (Kind.LE, Kind.LT):
        raise SortError(f"not a normalizable atom: {term!r}")
    lhs = LinExpr.from_term(term.args[0])
    rhs = LinExpr.from_term(term.args[1])
    # diff <= / < 0  where diff = lhs - rhs
    coeffs = dict(lhs.coeffs)
    for var, c in rhs.coeffs.items():
        prev = coeffs.get(var)
        coeffs[var] = -c if prev is None else prev - c
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    bound = rhs.const - lhs.const
    strict = term.kind is Kind.LT
    if not coeffs:
        return (Fraction(0) < bound) if strict else (Fraction(0) <= bound)
    ordered = sorted(coeffs.items(), key=lambda p: p[0].name)
    lead = ordered[0][1]
    scaled = tuple((v, c / lead) for v, c in ordered)
    bound = bound / lead
    upper = lead > 0
    return LinAtom(scaled, bound, upper, strict)
