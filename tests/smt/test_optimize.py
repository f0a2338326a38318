"""Tests for exact maximization (OMT linear search over Simplex optima)."""

import random

import pytest
from scipy.optimize import linprog

from repro.smt import Or, Real, RealVal, Solver, sat, unsat
from repro.smt.optimize import maximize

x, y, o = Real("x"), Real("y"), Real("o")


class TestMaximize:
    def test_simple_box(self):
        s = Solver()
        s.add(x >= 0, x <= 7)
        res = maximize(s, x)
        assert res.feasible
        assert res.best_value == 7
        assert res.model.value(x) == 7

    def test_disjoint_ranges_picks_higher(self):
        s = Solver()
        s.add(Or(x <= 3, x >= 7), x >= 0, x <= 8)
        res = maximize(s, x)
        assert res.best_value == 8

    def test_objective_expression(self):
        """``x + y`` through a defined variable: bound ``o`` first so
        compile keeps it, then define it."""
        s = Solver()
        s.add(x >= 0, x <= 3, y >= 0, y <= 4, o <= 100)
        s.add(o.eq(x + y))
        res = maximize(s, o)
        assert res.best_value == 7
        assert res.model.value(x + y) == 7

    def test_infeasible_at_lo(self):
        s = Solver()
        s.add(x <= -1, x >= 0)
        res = maximize(s, x)
        assert not res.feasible
        assert not res.unknown
        assert res.model is None

    def test_solver_state_restored(self):
        s = Solver()
        s.add(x >= 0, x <= 7)
        before = len(s.assertions())
        maximize(s, x)
        assert len(s.assertions()) == before
        assert s.theory.objective is None

    def test_model_attains_best(self):
        s = Solver()
        s.add(x >= 0, x <= 5)
        res = maximize(s, x)
        assert res.model is not None
        assert res.model.value(x) == res.best_value == 5

    def test_strict_bound_reports_the_supremum(self):
        s = Solver()
        s.add(x < 5)
        res = maximize(s, x)
        assert res.best_value == 5
        assert res.model.value(x) < 5
        assert res.probes == 2

    def test_objective_must_be_a_surviving_variable(self):
        s = Solver()
        s.add(x >= 0, x <= 3, y >= 0, y <= 4)
        with pytest.raises(ValueError, match="real variable"):
            maximize(s, x + y)
        s.add(o.eq(x + y))  # o is new, so compile eliminates it
        with pytest.raises(ValueError, match="eliminated"):
            maximize(s, o)

    def test_unbounded_objective_raises(self):
        s = Solver()
        s.add(x >= 0)
        with pytest.raises(ValueError, match="unbounded"):
            maximize(s, x)
        assert s.theory.objective is None

    def test_cache_hit_bounds_on_the_model_value(self):
        """A cached model stored by a check with no objective armed
        carries no optimum; the probe bounds on the model's value and
        the search still ends on the exact supremum."""
        from repro.engine.cache import QueryCache

        cache = QueryCache()
        plain = Solver(cache=cache)
        plain.add(Or(x <= 3, x >= 7), x < 8, x >= 0)
        assert plain.check() is sat and plain.model().optimum is None
        s = Solver(cache=cache)
        s.add(Or(x <= 3, x >= 7), x < 8, x >= 0)
        res = maximize(s, x)
        assert res.best_value == 8 and res.model.value(x) < 8
        assert s.checks == res.probes - 1  # the first probe was a hit

    def test_cache_hit_bounds_on_the_stored_optimum(self):
        """A worst-case probe's model carries its exact optimum through
        the cache, so a rerun replays every probe from the cache."""
        from repro.engine.cache import QueryCache

        cache = QueryCache()
        solves, models = [], []
        for _ in range(2):
            s = Solver(cache=cache)
            s.add(Or(x <= 3, x >= 7), x < 8, x >= 0)
            res = maximize(s, x)
            assert res.best_value == 8 and res.model.optimum == 8
            solves.append(s.checks)
            models.append(res.model.assignment())
        assert solves == [2, 0]
        assert models[0] == models[1]

    def test_cache_hit_for_another_objective_bounds_on_the_model_value(self):
        """The cache keys on the assertions only: a model stored while
        maximizing ``x`` must not hand ``x``'s optimum to ``y``."""
        from repro.engine.cache import QueryCache

        cache = QueryCache()
        best = {}
        for objective in (x, y, x, y):
            s = Solver(cache=cache)
            s.add(Or(x <= 3, x >= 7), x < 8, x >= 0, y <= 5 - x, y >= -10)
            res = maximize(s, objective)
            assert res.model.objective == objective.name
            best.setdefault(objective.name, set()).add(res.best_value)
        assert best == {"x": {8}, "y": {5}}


def _random_lp(rng: random.Random, nvars: int):
    """A bounded LP: a box, 1-3 rows, 0-2 two-way disjunctions of rows
    and an objective.  Every bound is positive at the origin, so each
    disjunct choice has the origin as an interior point and the
    supremum under strict bounds is the optimum of the closed LP."""

    def row():
        return [rng.randint(-4, 4) for _ in range(nvars)], rng.randint(1, 12)

    box = [(-rng.randint(1, 9), rng.randint(1, 9)) for _ in range(nvars)]
    plain = [row() for _ in range(rng.randint(1, 3))]
    disj = [(row(), row()) for _ in range(rng.randint(0, 2))]
    obj = [rng.randint(-5, 5) for _ in range(nvars)]
    return box, plain, disj, obj


def _encode(rng: random.Random, box, plain, disj, obj):
    """The LP as formulas over ``lp0..`` with strictness drawn at
    random, and ``o <= obj·x`` so that maximizing ``o`` maximizes it."""
    xs = [Real(f"lp{i}") for i in range(len(box))]

    def le(lhs, b):
        return lhs < b if rng.random() < 0.5 else lhs <= b

    def dot(coeffs):
        return sum((c * v for c, v in zip(coeffs, xs) if c), RealVal(0))

    formulas = []
    for v, (lo, hi) in zip(xs, box):
        formulas += [le(-v, -lo), le(v, hi)]
    formulas += [le(dot(a), b) for a, b in plain]
    formulas += [Or(le(dot(a), b), le(dot(c), d)) for (a, b), (c, d) in disj]
    formulas.append(o <= dot(obj))
    return formulas


def _reference_sup(box, plain, disj, obj) -> float:
    """scipy's optimum: the best closed LP over every disjunct choice."""
    best = None
    for pick in range(1 << len(disj)):
        rows = plain + [d[(pick >> k) & 1] for k, d in enumerate(disj)]
        res = linprog(
            [-c for c in obj],
            A_ub=[a for a, _ in rows],
            b_ub=[b for _, b in rows],
            bounds=box,
            method="highs",
        )
        assert res.status == 0
        best = -res.fun if best is None else max(best, -res.fun)
    return best


@pytest.mark.parametrize("seed", range(100))
def test_maximize_matches_linprog(seed):
    """Exact optimum vs scipy on random LPs with strict bounds and
    disjunctions; no model exceeds the reported supremum."""
    from repro.runtime.validate import validate_assignment

    rng = random.Random(seed)
    lp = _random_lp(rng, rng.randint(2, 4))
    formulas = _encode(rng, *lp)
    s = Solver()
    s.add(*formulas)
    res = maximize(s, o)
    assert res.feasible
    assert abs(float(res.best_value) - _reference_sup(*lp)) < 1e-6
    validate_assignment(formulas, *res.model.assignment(), context="lp")
    assert res.model.value(o) <= res.best_value
    s.add(o > res.best_value)
    assert s.check() is unsat
