"""Tests for the reusable constraint encodings."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.smt import (
    Bool,
    Real,
    RealVal,
    Solver,
    at_most_one,
    encode_max,
    exactly_one,
    sat,
    unsat,
)

r = Real("er")
p, q = Real("ep"), Real("eq")

fracs = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=2)


class TestMinMaxAbs:
    @given(a=fracs, b=fracs)
    @settings(max_examples=30, deadline=None)
    def test_max_is_exact(self, a, b):
        s = Solver()
        s.add(encode_max(r, [RealVal(a), RealVal(b)]))
        assert s.check() is sat
        assert s.model().value(r) == max(a, b)

    def test_max_with_variables(self):
        s = Solver()
        s.add(p >= 2, p <= 3, q >= 5, q <= 5, encode_max(r, [p, q]))
        assert s.check() is sat
        assert s.model().value(r) == 5


class TestSelectors:
    def test_exactly_one_sat(self):
        sels = [Bool(f"sel{i}") for i in range(3)]
        s = Solver()
        s.add(exactly_one(sels))
        assert s.check() is sat
        m = s.model()
        assert sum(bool(m.value(b)) for b in sels) == 1

    def test_exactly_one_rejects_two(self):
        sels = [Bool(f"sel2{i}") for i in range(3)]
        s = Solver()
        s.add(exactly_one(sels), sels[0], sels[1])
        assert s.check() is unsat

    def test_at_most_one_allows_zero(self):
        sels = [Bool(f"sel3{i}") for i in range(3)]
        s = Solver()
        s.add(at_most_one(sels), *[~b for b in sels])
        assert s.check() is sat
