"""Integration tests of the full DPLL(T) solver, including a differential
property test against brute-force evaluation of random boolean/LRA mixes."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    And,
    Bool,
    Eq,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Real,
    RealVal,
    Solver,
    UnknownResultError,
    check_formulas,
    evaluate,
    sat,
    unsat,
)
from repro.runtime.validate import validate_model

x, y, z = Real("x"), Real("y"), Real("z")
a, b, c = Bool("a"), Bool("b"), Bool("c")


class TestPureLRA:
    def test_feasible_conjunction(self):
        s = Solver()
        s.add(x + y <= 4, x >= 1, y >= 2)
        assert s.check() is sat
        m = s.model()
        assert m.value(x) >= 1 and m.value(y) >= 2
        assert m.value(x) + m.value(y) <= 4

    def test_infeasible_conjunction(self):
        s = Solver()
        s.add(x + y <= 4, x >= 2, y > 2)
        assert s.check() is unsat

    def test_equalities(self):
        s = Solver()
        s.add(Eq(x + y, 5), Eq(x - y, 1))
        assert s.check() is sat
        m = s.model()
        assert m.value(x) == 3 and m.value(y) == 2

    def test_strict_chain(self):
        s = Solver()
        s.add(x > 0, y > x, z > y, z < Fraction(3, 1000))
        assert s.check() is sat
        m = s.model()
        assert 0 < m.value(x) < m.value(y) < m.value(z) < Fraction(3, 1000)

    def test_disequality(self):
        s = Solver()
        s.add(x.neq(0), x >= 0, x <= 0)
        assert s.check() is unsat

    def test_rational_coefficients(self):
        s = Solver()
        s.add(Eq(Fraction(1, 3) * x + Fraction(1, 6) * y, 1), Eq(y, x))
        assert s.check() is sat
        assert s.model().value(x) == 2


class TestBooleanArithMix:
    def test_disjunction_of_ranges(self):
        s = Solver()
        s.add(Or(x >= 5, x <= -5), x >= -1, x <= 1)
        assert s.check() is unsat

    def test_implication_propagates_bound(self):
        s = Solver()
        s.add(Implies(a, x >= 10), a, x <= 20)
        assert s.check() is sat
        assert s.model().value(x) >= 10

    def test_real_ite(self):
        s = Solver()
        s.add(Eq(x, Ite(a, RealVal(3), RealVal(5))), Not(a))
        assert s.check() is sat
        assert s.model().value(x) == 5

    def test_nested_ite(self):
        s = Solver()
        s.add(Eq(x, Ite(a, Ite(b, RealVal(1), RealVal(2)), RealVal(3))), a, Not(b))
        assert s.check() is sat
        assert s.model().value(x) == 2

    def test_iff_with_atom(self):
        s = Solver()
        s.add(Iff(a, x >= 3), Not(a), x >= 2)
        assert s.check() is sat
        m = s.model()
        assert 2 <= m.value(x) < 3

    def test_at_least_one_bound_active(self):
        s = Solver()
        s.add(Or(And(x >= 1, x <= 2), And(x >= 5, x <= 6)), x >= 3)
        assert s.check() is sat
        assert 5 <= s.model().value(x) <= 6


class TestIncremental:
    def test_push_pop(self):
        s = Solver()
        s.add(x >= 0, x <= 10)
        assert s.check() is sat
        s.push()
        s.add(x >= 20)
        assert s.check() is unsat
        s.pop()
        assert s.check() is sat

    def test_nested_frames(self):
        s = Solver()
        s.add(x >= 0)
        s.push()
        s.add(x <= 5)
        s.push()
        s.add(x >= 6)
        assert s.check() is unsat
        s.pop()
        assert s.check() is sat
        assert s.model().value(x) <= 5
        s.pop()
        s.add(x >= 100)
        assert s.check() is sat

    def test_pop_without_push_raises(self):
        with pytest.raises(IndexError):
            Solver().pop()

    def test_assertions_tracking(self):
        s = Solver()
        s.add(x >= 0)
        s.push()
        s.add(x <= 5)
        assert len(s.assertions()) == 2
        s.pop()
        assert len(s.assertions()) == 1

    def test_model_unavailable_after_unsat(self):
        s = Solver()
        s.add(x >= 1, x <= 0)
        assert s.check() is unsat
        with pytest.raises(UnknownResultError):
            s.model()

    def test_many_incremental_adds(self):
        s = Solver()
        for i in range(20):
            s.add(x >= i)
            assert s.check() is sat
            assert s.model().value(x) >= i
        s.add(x <= 5)
        assert s.check() is unsat


class TestPartialModels:
    def test_model_leaves_atoms_of_satisfied_clauses_unassigned(self):
        """One disjunct satisfies the ``Or``, so its other atoms are never
        decided: the answer is SAT with those theory atoms unassigned,
        and the model (unassigned booleans read False, reals from the
        Simplex) still satisfies the raw assertions."""
        atoms = (
            [x <= i for i in range(1, 6)]
            + [y >= i for i in range(3)]
            + [x + y <= z + i for i in range(4)]
        )
        s = Solver()
        s.add(z >= 2, Or(Not(a), *atoms), Or(a, x + z <= 1))
        assert s.check() is sat
        core = s.sat_core
        unassigned = [
            v for v in range(1, core.nvars + 1)
            if core.is_theory[v] and core._model[v] == 0
        ]
        assert len(unassigned) >= len(atoms) - 1
        assert validate_model(s.assertions(), s.model()) == 3


class TestHelpers:
    def test_check_formulas(self):
        assert check_formulas([x >= 1, x <= 2]) is sat
        assert check_formulas([x >= 3, x <= 2]) is unsat

    def test_result_not_boolean(self):
        with pytest.raises(TypeError):
            bool(sat)


# ---------------------------------------------------------------------------
# Differential testing: random formulas over a small boolean skeleton and a
# discretized real variable, checked against brute-force evaluation.
# ---------------------------------------------------------------------------

atom_pool = [
    x <= 0, x <= 2, x >= 1, x >= 3, x < 4, x > -1,
    y <= 1, y >= 0, Eq(y, 2), x + y <= 3, x - y >= 1,
]
bool_pool = [a, b]


@st.composite
def formulas(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, len(atom_pool) + len(bool_pool) - 1))
        pool = atom_pool + bool_pool
        return pool[choice]
    op = draw(st.sampled_from(["and", "or", "not", "implies"]))
    if op == "not":
        return Not(draw(formulas(depth + 1)))
    f1 = draw(formulas(depth + 1))
    f2 = draw(formulas(depth + 1))
    if op == "and":
        return And(f1, f2)
    if op == "or":
        return Or(f1, f2)
    return Implies(f1, f2)


def brute_force_check(formula) -> bool:
    """Satisfiability over a grid that covers every atom region boundary."""
    grid = [Fraction(v, 2) for v in range(-4, 11)]
    for xv in grid:
        for yv in grid:
            for av in (False, True):
                for bv in (False, True):
                    env = {x: xv, y: yv, a: av, b: bv}
                    if evaluate(formula, env):
                        return True
    return False


class TestDifferential:
    @given(formula=formulas())
    @settings(max_examples=80, deadline=None)
    def test_sat_implies_model_correct(self, formula):
        s = Solver()
        s.add(formula)
        result = s.check()
        if result is sat:
            m = s.model()
            env = {v: m.value(v) for v in (x, y, a, b)}
            assert evaluate(formula, env) is True

    @given(formula=formulas())
    @settings(max_examples=80, deadline=None)
    def test_brute_force_sat_never_unsat(self, formula):
        # the grid covers all atom boundaries at half-integer resolution,
        # so grid-SAT implies real-SAT; solver must agree
        if brute_force_check(formula):
            assert check_formulas([formula]) is sat
