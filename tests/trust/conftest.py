"""Shared fixtures: small UNSAT queries with certified proofs."""

import pytest

from repro.smt import And, Bool, Implies, Not, Or, Real, Solver, unsat


def _unsat_solver() -> Solver:
    """A proof-producing solver on a small UNSAT mixed query.

    The query needs boolean structure (so the proof contains RUP-checked
    learned/derived clauses) and theory conflicts (so it contains Farkas
    lemmas) — every mutation test below targets one of those step kinds.
    """
    x, y, z = Real("tx"), Real("ty"), Real("tz")
    p, q = Bool("tp"), Bool("tq")
    s = Solver(produce_proofs=True)
    s.add(
        Or(p, q),
        Implies(p, And(x >= 2, y >= 1)),
        Implies(q, And(x >= 3, y >= 0)),
        Implies(Not(p), z >= 1),
        x + y <= 2,
        z >= 0,
    )
    return s


@pytest.fixture
def certificate():
    s = _unsat_solver()
    assert s.check() is unsat
    return s.certificate()
