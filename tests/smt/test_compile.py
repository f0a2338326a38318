"""Unit tests for the staged compile pipeline (repro.smt.compile)."""

from fractions import Fraction

import pytest

from repro.runtime.validate import validate_model
from repro.smt import (
    And,
    Bool,
    FALSE,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Real,
    RealVal,
    Solver,
    canonical_hash,
    compile_query,
    sat,
    unsat,
)
from repro.smt.rewrite import aux_ite_name, simplify
from repro.smt.terms import intern_stats, interned_count

x, y, z = Real("cx"), Real("cy"), Real("cz")
p, q = Bool("cp"), Bool("cq")


class TestRewrite:
    def test_duplicate_conjuncts_collapse(self):
        f = And(x <= 1, x <= 1, p)
        assert simplify(f) is And(x <= 1, p)

    def test_complementary_literals_fold(self):
        assert simplify(And(p, Not(p))) is FALSE
        assert simplify(Or(p, Not(p))) is simplify(Not(FALSE))

    def test_absorption(self):
        assert simplify(And(p, Or(p, q))) is p
        assert simplify(Or(p, And(p, q))) is p

    def test_reflexive_atoms(self):
        assert simplify(And(x <= x, p)) is p
        assert simplify(Or(x < x, q)) is q


class TestCompile:
    def test_atom_sharing_across_spellings(self):
        # x <= y, 0 <= y - x, and 2x - 2y <= 0 are one half-space
        cq = compile_query((x <= y, RealVal(0) <= y - x, 2 * x - 2 * y <= 0))
        assert len(cq.formulas) == 1
        assert len(cq.atom_table()) == 1

    def test_post_simplification_keys_agree(self):
        a = compile_query((x <= y, p))
        b = compile_query((RealVal(0) <= y - x, p))
        assert a.key == b.key
        # ... while the raw assertion sets hash differently
        assert canonical_hash([x <= y, p]) != canonical_hash(
            [RealVal(0) <= y - x, p]
        )

    def test_definition_inlining_and_reconstruction(self):
        cq = compile_query((x.eq(y + 1), y.eq(2), x + z <= 10))
        assert dict(cq.eliminated) == {x: RealVal(3), y: RealVal(2)}
        assert cq.formulas == (z <= 7,)
        values = cq.reconstruct({z: Fraction(1)})
        assert values[x] == 3 and values[y] == 2

    def test_bounds_conflict_is_false(self):
        cq = compile_query((x <= 2, x >= 3))
        assert cq.is_false()

    def test_bounds_point_fix_eliminates(self):
        cq = compile_query((x <= 2, x >= 2, x + y <= 5))
        assert dict(cq.eliminated) == {x: RealVal(2)}
        assert cq.formulas == (y <= 3,)

    def test_redundant_bounds_pruned(self):
        cq = compile_query((x <= 5, x <= 3, x <= 7, x >= 0, x >= -2))
        # only the tightest upper and lower bound survive
        assert len(cq.atom_table()) == 2

    def test_ite_lifting_is_deterministic(self):
        ite = Ite(p, x, y)
        f = ite <= 3
        name = aux_ite_name(ite)
        assert name.startswith("ite@")
        a = compile_query((f,))
        b = compile_query((f, p))  # different input tuple, no memo hit
        names_a = {t.name for fm in a.formulas for t in fm.iter_dag() if t.is_var()}
        names_b = {t.name for fm in b.formulas for t in fm.iter_dag() if t.is_var()}
        assert name in names_a and name in names_b

    def test_frozen_variable_is_pinned_not_eliminated(self):
        cq = compile_query((x.eq(3), x + y <= 5), frozen=[x])
        assert cq.eliminated == ()
        # x is still constrained in the output (the pin)
        vars_out = {t for f in cq.formulas for t in f.iter_dag() if t.is_var()}
        assert x in vars_out

    def test_memo_returns_same_object(self):
        fs = (x <= y, y <= z)
        assert compile_query(fs) is compile_query(fs)

    def test_compile_idempotent(self):
        cq = compile_query((x.eq(y + 1), Or(p, x <= 2), y >= 0))
        again = compile_query(cq.formulas)
        assert again.formulas == cq.formulas
        assert again.eliminated == ()

    def test_stats_shrink(self):
        cq = compile_query((x.eq(y), y.eq(2), x <= 5, x <= 7))
        st = cq.stats
        assert st.nodes_after < st.nodes_before
        assert st.atoms_after < st.atoms_before
        assert st.vars_eliminated == 2


class TestSolverIntegration:
    def test_delta_add_cannot_unsoundly_eliminate(self):
        # x is encoded by the first add; the second must constrain the
        # same x, not substitute it away
        s = Solver()
        s.add(x <= 2)
        s.add(x.eq(3))
        assert s.check() is unsat

    def test_delta_add_reverse_order(self):
        s = Solver()
        s.add(x.eq(3))  # x eliminated here
        s.add(x <= 2)  # rewritten through the elimination map -> 3 <= 2
        assert s.check() is unsat

    def test_model_reconstructs_eliminated_vars(self):
        s = Solver()
        s.add(x.eq(y + 1), y.eq(2), x + z <= 10)
        assert s.check() is sat
        m = s.model()
        assert m.value(x) == 3 and m.value(y) == 2
        # the raw (pre-compile) assertions hold under the model
        validate_model(s.assertions(), m, context="test")

    def test_push_pop_restores_eliminations(self):
        s = Solver()
        s.add(y <= 10)
        s.push()
        s.add(y.eq(20))
        assert s.check() is unsat
        s.pop()
        s.add(y >= 0)
        assert s.check() is sat

    def test_compiled_assertions_differ_from_raw(self):
        s = Solver()
        s.add(x.eq(2), x + y <= 5)
        assert s.assertions() == [x.eq(2), x + y <= 5]
        assert s.compiled_assertions() == [y <= 3]

    def test_environment_cannot_select_raw_path(self, monkeypatch):
        # the pipeline is the only encode path a default Solver takes;
        # the retired escape-hatch variable is ignored
        monkeypatch.setenv("REPRO_NO_COMPILE_PIPELINE", "1")
        s = Solver()
        s.add(x.eq(2), x + y <= 5)
        assert s.compiled_assertions() == [y <= 3]

    def test_raw_path_unchanged(self):
        s = Solver(compile_pipeline=False)
        s.add(x.eq(2), x + y <= 5)
        assert s.compiled_assertions() == s.assertions()
        assert s.check() is sat

    def test_bool_structure_parity(self):
        fs = (Or(p, x <= 1), Implies(p, y >= 2), Iff(q, Not(p)), y + x <= 4)
        a = Solver()
        a.add(*fs)
        b = Solver(compile_pipeline=False)
        b.add(*fs)
        assert a.check() is b.check()

    def test_false_detection_skips_search(self):
        s = Solver()
        s.add(x <= 1, x >= 2)
        assert s.check() is unsat


class _DictCache:
    def __init__(self):
        self.store_ = {}
        self.lookups = 0

    def lookup(self, key):
        self.lookups += 1
        return self.store_.get(key)

    def store(self, key, result, model):
        self.store_[key] = (result, model)


def _cached_solver(cache, *base) -> Solver:
    s = Solver(cache=cache)
    s.add(*base)
    return s


class TestSessionCacheKeys:
    def test_semantically_equal_queries_share_entry(self):
        cache = _DictCache()
        s1 = _cached_solver(cache, x <= y, p)
        assert s1.check() is sat
        # different spelling of the same half-space: cache hit
        s2 = _cached_solver(cache, RealVal(0) <= y - x, p)
        assert s2.check() is sat
        assert cache.lookups == 2
        assert s2.checks == 0

    def test_scope_keys_are_per_delta(self):
        cache = _DictCache()
        sess = _cached_solver(cache, y >= 0)
        with sess.scope(y <= 5):
            assert sess.check() is sat
        with sess.scope(y <= 5):
            assert sess.check() is sat
        assert sess.checks == 1


class TestInternManagement:
    def test_stats_shape(self):
        st = intern_stats()
        assert set(st) == {"interned", "hits", "misses"}
        assert st["interned"] == interned_count() > 0
