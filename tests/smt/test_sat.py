"""CDCL SAT core tests: hand-written instances, pigeonhole, and a
differential property test against brute-force enumeration."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.smt.sat import SatSolver, luby


def make_solver(nvars: int) -> SatSolver:
    s = SatSolver()
    for _ in range(nvars):
        s.new_var()
    return s


class TestBasics:
    def test_empty_is_sat(self):
        assert make_solver(0).solve() is True

    def test_unit(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.solve() is True
        assert s.model_value(1) is True

    def test_contradiction(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.add_clause([-1]) is False
        assert s.solve() is False

    def test_simple_chain(self):
        s = make_solver(3)
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() is True
        assert s.model_value(3) is True

    def test_tautology_ignored(self):
        s = make_solver(2)
        s.add_clause([1, -1])
        assert s.solve() is True

    def test_duplicate_literals_deduped(self):
        s = make_solver(1)
        s.add_clause([1, 1, 1])
        assert s.solve() is True
        assert s.model_value(1) is True

    def test_unsat_requires_conflict(self):
        s = make_solver(2)
        for clause in ([1, 2], [1, -2], [-1, 2], [-1, -2]):
            s.add_clause(clause)
        assert s.solve() is False


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = make_solver(2)
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]) is True
        assert s.model_value(2) is True

    def test_conflicting_assumption(self):
        s = make_solver(1)
        s.add_clause([1])
        assert s.solve(assumptions=[-1]) is False
        # without the assumption it is still satisfiable
        assert s.solve() is True

    def test_incremental_after_solve(self):
        s = make_solver(2)
        s.add_clause([1, 2])
        assert s.solve() is True
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() is False


def pigeonhole(s: SatSolver, holes: int):
    """n+1 pigeons into n holes (classically hard, small sizes only)."""
    pigeons = holes + 1
    var = {}
    for p in range(pigeons):
        for h in range(holes):
            var[p, h] = s.new_var()
    for p in range(pigeons):
        s.add_clause([var[p, h] for h in range(holes)])
    for h in range(holes):
        for p1, p2 in itertools.combinations(range(pigeons), 2):
            s.add_clause([-var[p1, h], -var[p2, h]])


class TestPigeonhole:
    def test_php_3(self):
        s = SatSolver()
        pigeonhole(s, 3)
        assert s.solve() is False

    def test_php_4(self):
        s = SatSolver()
        pigeonhole(s, 4)
        assert s.solve() is False

    def test_php_sat_direction(self):
        # n pigeons into n holes is satisfiable
        s = SatSolver()
        holes = 3
        var = {}
        for p in range(holes):
            for h in range(holes):
                var[p, h] = s.new_var()
        for p in range(holes):
            s.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(holes), 2):
                s.add_clause([-var[p1, h], -var[p2, h]])
        assert s.solve() is True


def brute_force_sat(nvars: int, clauses: list[list[int]]) -> bool:
    for bits in itertools.product([False, True], repeat=nvars):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


clause_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1,
        max_size=4,
    ),
    min_size=1,
    max_size=24,
)


class TestDifferential:
    @given(clauses=clause_strategy)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, clauses):
        nvars = 6
        s = make_solver(nvars)
        ok = True
        for clause in clauses:
            if not s.add_clause(clause):
                ok = False
                break
        result = s.solve() if ok else False
        assert result == brute_force_sat(nvars, clauses)

    @given(clauses=clause_strategy)
    @settings(max_examples=60, deadline=None)
    def test_model_satisfies_clauses(self, clauses):
        nvars = 6
        s = make_solver(nvars)
        ok = all(s.add_clause(c) for c in clauses)
        if not ok or s.solve() is not True:
            return
        for clause in clauses:
            # clauses satisfied at root are dropped; re-check semantically
            assert any(s.model_value(abs(l)) == (l > 0) for l in clause)


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class RelevancyChecked(SatSolver):
    """A solver that checks every decision against an independent scan
    of the clause database: the picked variable must occur in a problem
    clause with no true literal."""

    def _pick_branch_var(self) -> int:
        v = super()._pick_branch_var()
        if v:
            assert any(
                v in map(abs, c.lits)
                and not any(self.value_lit(l) == 1 for l in c.lits)
                for c in self.clauses
            ), f"decided {v} with every clause of it satisfied"
        return v


class TestRelevancy:
    @given(first=clause_strategy, second=clause_strategy,
           assume=st.lists(st.integers(-6, 6).filter(bool), max_size=2))
    @settings(max_examples=150, deadline=None)
    def test_decisions_need_an_open_clause(self, first, second, assume):
        """Two incremental solves (the second after more clauses, so
        variables parked at the root must come back), with and without
        assumptions: verdicts match brute force, every decision is
        relevant, and each model satisfies every clause."""
        nvars = 6
        s = RelevancyChecked()
        for _ in range(nvars):
            s.new_var()
        clauses: list[list[int]] = []
        ok = True
        for batch in (first, second):
            for clause in batch:
                clauses.append(clause)
                ok = s.add_clause(clause) and ok
            for assumptions in ((), assume):
                result = s.solve(assumptions=assumptions) if ok else False
                units = [[l] for l in assumptions]
                assert result == brute_force_sat(nvars, clauses + units)
                if result:
                    for clause in clauses + units:
                        assert any(s.model_value(abs(l)) == (l > 0) for l in clause)

    def test_satisfied_clauses_need_no_decisions(self):
        """(not x1 or y_i or z_i) for i = 1..20 over 41 variables: deciding
        x1 false satisfies every clause, so one decision is a model and
        the other 40 variables stay unassigned (deciding every variable
        took 41)."""
        s = make_solver(41)
        for i in range(20):
            s.add_clause([-1, 2 + 2 * i, 3 + 2 * i])
        assert s.solve() is True
        assert s.decisions == 1
        assert s.model_value(1) is False
        assert [s._model[v] for v in range(2, 42)] == [0] * 40
