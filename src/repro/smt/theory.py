"""Bridge between the SAT core and the Simplex LRA solver.

Each *theory atom* (a canonical upper-form :class:`~repro.smt.linarith.LinAtom`)
is associated with one SAT variable and one Simplex variable (the variable
itself for single-variable atoms, a slack variable otherwise).  Asserting
the SAT literal installs the corresponding bound; the negated literal
installs the negated bound (``not (e <= c)`` is ``e > c``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .linarith import LinAtom
from .sat import TheoryHook
from .simplex import DRat, Simplex
from .terms import Term


class LraTheory(TheoryHook):
    """The LRA theory solver plugged into :class:`repro.smt.sat.SatSolver`."""

    def __init__(self):
        self.simplex = Simplex()
        # real Term -> simplex var
        self.var_of_term: dict[Term, int] = {}
        # canonical expr (tuple of (Term, Fraction)) -> simplex var
        self.var_of_expr: dict[tuple, int] = {}
        # SAT var -> (simplex var, pos action, neg action);
        # an action is ("U"|"L", DRat bound)
        self.actions: dict[int, tuple[int, tuple[str, DRat], tuple[str, DRat]]] = {}
        self._model_values: Optional[list[Fraction]] = None
        # Farkas certificate of the most recent conflict, consumed once by
        # the SAT core when proof logging is armed (see TheoryHook.take_farkas).
        self._farkas: Optional[tuple] = None
        #: real variable to maximize before each model snapshot (armed by
        #: :func:`repro.smt.optimize.maximize`), and its optimum there: a
        #: value triple, or None when it is unbounded or never registered
        self.objective: Optional[Term] = None
        self.optimum: Optional[tuple] = None

    # -- registration ------------------------------------------------------

    def simplex_var(self, term: Term) -> int:
        """Simplex variable for a real-sorted term variable."""
        v = self.var_of_term.get(term)
        if v is None:
            v = self.simplex.new_var()
            self.var_of_term[term] = v
        return v

    def register_atom(self, atom: LinAtom, sat_var: int) -> None:
        """Associate an upper-form atom with a SAT variable."""
        assert atom.upper, "atoms must be canonicalized to upper form"
        if len(atom.expr) == 1 and atom.expr[0][1] == 1:
            svar = self.simplex_var(atom.expr[0][0])
        else:
            key = atom.expr
            svar = self.var_of_expr.get(key)
            if svar is None:
                row = {self.simplex_var(t): c for t, c in atom.expr}
                svar = self.simplex.add_row(row)
                self.var_of_expr[key] = svar
        pos = ("U", DRat(atom.bound, -1 if atom.strict else 0))
        # negation: e > bound (strict) when atom was <=, e >= bound when <
        neg = ("L", DRat(atom.bound, 0 if atom.strict else 1))
        self.actions[sat_var] = (svar, pos, neg)

    # -- TheoryHook interface ------------------------------------------------

    def assert_lit(self, lit: int) -> Optional[list[int]]:
        svar, pos, neg = self.actions[abs(lit)]
        which, bound = pos if lit > 0 else neg
        if which == "U":
            conflict = self.simplex.assert_upper(svar, bound, lit)
        else:
            conflict = self.simplex.assert_lower(svar, bound, lit)
        if conflict is None:
            return None
        self._farkas = getattr(conflict, "farkas", None)
        return list(conflict)

    def check(self, final: bool) -> Optional[list[int]]:
        conflict = self.simplex.check()
        if conflict is not None:
            self._farkas = getattr(conflict, "farkas", None)
            return list(conflict)
        if final:
            if self.objective is not None:
                # moving inside the asserted bounds keeps every atom's
                # truth value, so the SAT assignment stays a model
                svar = self.var_of_term.get(self.objective)
                self.optimum = None if svar is None else self.simplex.maximize(svar)
            self._model_values = self.simplex.model()
        return None

    def phase(self, var: int) -> int:
        # the positive literal asserts ``e <= bound`` (a DRat, which
        # compares with the plain value triples of ``assign``)
        svar, (_, bound), _neg = self.actions[var]
        return -1 if bound < self.simplex.assign[svar] else 1

    def take_farkas(self) -> Optional[tuple]:
        farkas, self._farkas = self._farkas, None
        return farkas

    def push_level(self) -> None:
        self.simplex.push_level()

    def pop_levels(self, count: int) -> None:
        self.simplex.pop_levels(count)

    def reset(self) -> None:
        self.simplex.reset_bounds()

    # -- models ---------------------------------------------------------------

    def model_value(self, term: Term) -> Fraction:
        """Concrete value of a real variable in the last theory model."""
        if self._model_values is None:
            return Fraction(0)
        svar = self.var_of_term.get(term)
        if svar is None or svar >= len(self._model_values):
            return Fraction(0)
        return self._model_values[svar]
