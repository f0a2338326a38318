"""Incremental Solver: scope (push/pop) equivalence with fresh solvers,
clause retention, and the query cache."""

from fractions import Fraction

import pytest

from repro.smt import (
    And,
    Bool,
    CheckOptions,
    Not,
    Or,
    Real,
    RealVal,
    Solver,
    sat,
    unsat,
)
from repro.smt.errors import UnknownResultError

pytestmark = pytest.mark.engine


def _session(base=(), **kwargs) -> Solver:
    """A solver with ``base`` asserted at the root."""
    s = Solver(**kwargs)
    s.add(*base)
    return s


def _queries():
    """(base, [(extra_formulas, expected)]) — a shared base plus deltas
    whose verdicts a fresh solver and one reused solver must agree on."""
    x, y, z = Real("sx"), Real("sy"), Real("sz")
    base = [x >= 0, y >= 0, x + y <= 10]
    deltas = [
        ((x + y >= 5,), sat),
        ((x + y >= 11,), unsat),
        ((x.eq(3), y.eq(4), z.eq(x + y)), sat),
        ((x >= 6, y >= 6), unsat),
        ((x + y >= 5,), sat),  # repeat: exercises learned-clause reuse
    ]
    return base, deltas


def test_incremental_matches_fresh_verdicts():
    """The same base+delta queries must get identical verdicts whether
    solved incrementally in one solver or by fresh solvers."""
    base, deltas = _queries()
    session = _session(base)
    for extra, expected in deltas:
        with session.scope(*extra):
            incremental = session.check()
        fresh = Solver()
        fresh.add(*base)
        fresh.add(*extra)
        assert incremental is fresh.check() is expected


def test_scope_restores_assertions():
    x = Real("sc_x")
    session = _session([x >= 0])
    before = list(session.assertions())
    with session.scope(x <= 5, x >= 5):
        assert len(session.assertions()) == 3
        assert session.check() is sat
    assert session.assertions() == before
    # the popped constraint no longer binds
    session.add(x >= 100)
    assert session.check() is sat


def test_nested_scopes():
    x = Real("nest_x")
    session = _session([x >= 0])
    with session.scope(x <= 10):
        with session.scope(x >= 20):
            assert session.check() is unsat
        assert session.check() is sat


def test_model_after_sat_check():
    x = Real("m_x")
    session = _session([x >= 3, x <= 3])
    assert session.check() is sat
    assert session.model().value(x) == Fraction(3)


def test_learned_clauses_survive_pop():
    """After a pop, retained learned clauses must not change verdicts:
    a query that was sat before an unrelated unsat excursion stays sat."""
    ps = [Bool(f"lc_p{i}") for i in range(6)]
    base = [Or(ps[0], ps[1]), Or(Not(ps[0]), ps[2]), Or(Not(ps[1]), ps[2])]
    session = _session(base)
    assert session.check() is sat
    with session.scope(Not(ps[2])):
        assert session.check() is unsat  # forces conflicts -> learning
    retained = session.sat_core.learned_retained
    assert session.check() is sat  # soundness after retention
    with session.scope(ps[2], ps[3]):
        assert session.check() is sat
    assert session.sat_core.learned_retained >= 0
    assert retained >= 0


def test_check_options_accepted():
    x = Real("co_x")
    session = _session([x >= 0, x <= 1])
    assert session.check(CheckOptions()) is sat
    assert session.check(CheckOptions(max_conflicts=10_000)) is sat


def test_session_cache_roundtrip():
    """With a cache attached, the second identical check is answered
    without touching the solver, including the model for sat."""
    from repro.engine import QueryCache

    x = Real("scr_x")
    cache = QueryCache()
    session = _session([x >= 2, x <= 2], cache=cache)
    assert session.check() is sat
    solved_before = session.checks
    assert session.check() is sat
    assert session.checks == solved_before
    assert cache.stats()["hits"] == 1
    assert session.model().value(x) == Fraction(2)
    # a new solver over the same formulas: answered from its compiled
    # form, so the SAT core stays empty (nothing was Tseitin-encoded)
    fresh = _session([x >= 2, x <= 2], cache=cache)
    assert fresh.check() is sat
    assert fresh.checks == 0 and fresh._core.nvars == 0
    assert fresh.model().value(x) == Fraction(2)


def test_cached_unsat_has_no_model():
    from repro.engine import QueryCache

    x = Real("cu_x")
    cache = QueryCache()
    session = _session([x >= 1, x <= 0], cache=cache)
    assert session.check() is unsat
    assert session.check() is unsat  # hit
    with pytest.raises(UnknownResultError):
        session.model()


def test_verifier_session_per_candidate(fast_cfg, monkeypatch):
    """End to end: one verifier reusing its solver across a repeated
    candidate gives the same verdicts as a new verifier per call, plain
    and worst-case, and rebuilds the solver exactly when the candidate
    changes."""
    from repro.core import constant_cwnd, rocc
    from repro.core.queries import total_waste_budget
    from repro.core.verifier import CcacVerifier

    scoped = []
    real_scope = Solver.scope

    def counting_scope(self, *formulas):
        scoped.append(self)
        return real_scope(self, *formulas)

    monkeypatch.setattr(Solver, "scope", counting_scope)
    h = fast_cfg.history
    candidates = [
        rocc(h), constant_cwnd(1, h), constant_cwnd(0, h), rocc(h), rocc(h),
    ]
    for worst_case in (False, True):
        shared = CcacVerifier(fast_cfg)
        budget = total_waste_budget(fast_cfg)
        extra = [budget.build(shared.network(), Fraction(0))]
        sessions = []
        for i, cand in enumerate(candidates):
            extras = extra if i == len(candidates) - 1 else []
            rs = shared.find_counterexample(
                cand, worst_case=worst_case, extra_constraints=extras
            )
            rf = CcacVerifier(fast_cfg).find_counterexample(
                cand, worst_case=worst_case, extra_constraints=extras
            )
            assert rs.verified == rf.verified
            assert (rs.counterexample is None) == (rf.counterexample is None)
            sessions.append(shared._env_states()[0].solver)
        # a new candidate gets a new solver; a repeated one keeps it
        assert len({id(s) for s in sessions[:4]}) == 4
        assert sessions[3] is sessions[4]
        # only calls that add something (extras, a WCE objective) push
        opened = sum(s is sessions[4] for s in scoped)
        assert opened == (2 if worst_case else 1)
