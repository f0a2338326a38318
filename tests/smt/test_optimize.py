"""Tests for binary-search optimization."""

from fractions import Fraction

from repro.smt import Or, Real, Solver
from repro.smt.optimize import maximize

x, y = Real("x"), Real("y")


class TestMaximize:
    def test_simple_box(self):
        s = Solver()
        s.add(x >= 0, x <= 7)
        res = maximize(s, x, Fraction(0), Fraction(100), Fraction(1, 64))
        assert res.feasible
        assert Fraction(7) - res.best_value <= Fraction(1, 64)

    def test_disjoint_ranges_picks_higher(self):
        s = Solver()
        s.add(Or(x <= 3, x >= 7), x >= 0, x <= 8)
        res = maximize(s, x, Fraction(0), Fraction(20), Fraction(1, 64))
        assert res.best_value > 6

    def test_objective_expression(self):
        s = Solver()
        s.add(x >= 0, x <= 3, y >= 0, y <= 4)
        res = maximize(s, x + y, Fraction(0), Fraction(10), Fraction(1, 32))
        assert Fraction(7) - res.best_value <= Fraction(1, 32)

    def test_infeasible_at_lo(self):
        s = Solver()
        s.add(x <= -1)
        res = maximize(s, x, Fraction(0), Fraction(10))
        assert not res.feasible
        assert res.model is None

    def test_solver_state_restored(self):
        s = Solver()
        s.add(x >= 0, x <= 7)
        before = len(s.assertions())
        maximize(s, x, Fraction(0), Fraction(10))
        assert len(s.assertions()) == before

    def test_model_attains_best(self):
        s = Solver()
        s.add(x >= 0, x <= 5)
        res = maximize(s, x, Fraction(0), Fraction(10), Fraction(1, 16))
        assert res.model is not None
        assert res.model.value(x) == res.best_value
