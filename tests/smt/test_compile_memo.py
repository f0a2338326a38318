"""The compile pipeline's per-term memos change nothing but speed.

A cold process (empty memos) and a warm one (memos filled by other
queries over shared terms) must compile a query to the same formulas
and the same eliminated map, and must solve it with the same work.
Memoised results never depend on a solver's frozen variables.
"""

import json
import os
import subprocess
import sys
from collections import OrderedDict

import pytest

from repro.ccac import ModelConfig
from repro.ccac.environments import lossless_environment
from repro.core import constant_cwnd, rocc
from repro.core.conditional import aimd_candidate
from repro.core.verifier import CcacVerifier
from repro.obs import metrics
from repro.smt import Real, RealVal, Solver, canonical_hash, compile_query, unsat
from repro.smt import compile as compile_mod
from repro.smt import rewrite
from repro.smt.terms import canonical_key

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, os.pardir))


def query_digest(T: int, candidate) -> dict:
    """Compile the verifier's query (base, then the candidate over the
    base's variables, as a session adds them) into comparable digests."""
    env = lossless_environment()
    net = env.build_model(env.model_config(ModelConfig(T=T, history=3)), prefix="v")
    base = compile_query([*net.constraints(), env.negated_desired(net)])
    cand = compile_query(
        env.candidate_constraints(net, candidate), frozen=base.variables
    )
    return {
        part: {
            "formulas": canonical_hash(q.formulas),
            "eliminated": [[v.name, canonical_key(d)] for v, d in q.eliminated],
        }
        for part, q in (("base", base), ("candidate", cand))
    }


def prove_counts(T: int) -> dict:
    """Solver work of one fresh-verifier RoCC proving call."""
    before = metrics().snapshot()["counters"]
    result = CcacVerifier(ModelConfig(T=T, history=3)).find_counterexample(rocc(3))
    after = metrics().snapshot()["counters"]
    return {
        "verified": result.verified,
        **{k: after.get(k, 0) - before.get(k, 0) for k in ("smt.checks", "smt.pivots")},
    }


def cold(call: str) -> dict:
    """Evaluate ``call`` (an expression over this module) in a fresh
    interpreter, where every memo starts empty."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
    )
    script = (
        "import json\n"
        "from tests.smt.test_compile_memo import *\n"
        f"print(json.dumps({call}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def no_query_memo(monkeypatch):
    """An empty whole-query memo, so a repeated query reaches the
    per-term memos instead of returning an earlier CompiledQuery."""
    monkeypatch.setattr(compile_mod, "_memo", OrderedDict())


def warm_up() -> None:
    for T in (7, 9):
        query_digest(T, rocc(3))
        query_digest(T, aimd_candidate())
    for gamma in (1, 2):
        query_digest(5, constant_cwnd(gamma, history=3))


class TestWarmEqualsCold:
    def test_compiled_query(self, no_query_memo):
        expected = cold("query_digest(5, rocc(3))")
        warm_up()
        assert query_digest(5, rocc(3)) == expected

    def test_guarded_candidate(self, no_query_memo):
        """The guarded template's real ITEs go through the ITE pass,
        whose ITE-free conjuncts are remembered per process."""
        expected = cold("query_digest(5, aimd_candidate())")
        warm_up()
        assert query_digest(5, aimd_candidate()) == expected

    def test_warm_up_fills_every_per_term_memo(self, no_query_memo):
        warm_up()
        assert compile_mod._ite_free
        assert rewrite._atom_terms
        assert rewrite._canonicalized and rewrite._simplified

    def test_proving_call(self, no_query_memo):
        expected = cold("prove_counts(5)")
        assert expected["verified"]
        warm_up()
        prove_counts(7)
        assert prove_counts(5) == expected


def test_frozen_variable_is_not_eliminated_by_an_earlier_compile():
    x = Real("memo_x")
    other = compile_query([x.eq(3)])
    assert dict(other.eliminated) == {x: RealVal(3)}
    s = Solver()
    s.add(x <= 2)
    s.add(x.eq(3))
    assert s.check() is unsat
