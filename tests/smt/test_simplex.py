"""Simplex core tests: bounds, pivoting, conflicts, backtracking, a
differential feasibility test against scipy.optimize.linprog, and a
property test over random assert/check/push/pop sequences that recomputes
every Farkas certificate with plain Fractions, and tests of the pivot rule
(fewest-column entering variable, Bland fallback) against pure Bland."""

from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

from repro.smt import simplex
from repro.smt.simplex import DRat, Simplex


class TestDRat:
    def test_ordering_lexicographic(self):
        assert DRat(1) < DRat(2)
        assert DRat(1) < DRat(1, 1)
        assert DRat(1, -1) < DRat(1)
        assert DRat(1, -1) < DRat(1, 1)

    def test_arithmetic(self):
        # the tableau sums, subtracts and scales δ-rationals exactly:
        # x = 1 + 2δ and y = 3 - δ pin x + y = 4 + δ, x - y = -2 + 3δ and
        # 2x = 2 + 4δ, and x + y <= 4 is then refuted by the δ part alone
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        total = s.add_row({x: Fraction(1), y: Fraction(1)})
        diff = s.add_row({x: Fraction(1), y: Fraction(-1)})
        double = s.add_row({x: Fraction(2)})
        for var, bound in ((x, DRat(1, 2)), (y, DRat(3, -1)), (total, DRat(4, 1)),
                           (diff, DRat(-2, 3)), (double, DRat(2, 4))):
            assert s.assert_lower(var, bound, f"l{var}") is None
            assert s.assert_upper(var, bound, f"u{var}") is None
        assert s.check() is None
        m = s.model()
        delta = (m[x] - 1) / 2
        assert delta > 0
        assert m[y] == 3 - delta
        assert m[total] == 4 + delta and m[diff] == -2 + 3 * delta
        assert m[double] == 2 + 4 * delta
        over = s.add_row({x: Fraction(1), y: Fraction(1)})
        s.assert_upper(over, DRat(4), "u_over")
        assert s.check() is not None

    def test_concretize(self):
        # a value pinned to 1 - 2δ concretizes with the δ the model picks:
        # y in (0, 1/4] forces δ <= 1/4, and concrete_delta halves it
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        s.assert_lower(x, DRat(1, -2), "lx")
        s.assert_upper(x, DRat(1, -2), "ux")
        s.assert_lower(y, DRat(0, 1), "ly")
        s.assert_upper(y, DRat(Fraction(1, 4)), "uy")
        assert s.check() is None
        assert s.concrete_delta() == Fraction(1, 8)
        m = s.model()
        assert m[x] == Fraction(3, 4) and m[y] == Fraction(1, 8)


class TestSimplexBasics:
    def test_single_var_bounds(self):
        s = Simplex()
        v = s.new_var()
        assert s.assert_lower(v, DRat(1), "l") is None
        assert s.assert_upper(v, DRat(3), "u") is None
        assert s.check() is None
        assert 1 <= s.model()[v] <= 3

    def test_immediate_bound_conflict(self):
        s = Simplex()
        v = s.new_var()
        assert s.assert_lower(v, DRat(5), "l") is None
        conflict = s.assert_upper(v, DRat(2), "u")
        assert conflict is not None
        assert set(conflict) == {"l", "u"}

    def test_row_feasibility(self):
        s = Simplex()
        x_var, y_var = s.new_var(), s.new_var()
        total = s.add_row({x_var: Fraction(1), y_var: Fraction(1)})
        s.assert_lower(x_var, DRat(1), "lx")
        s.assert_lower(y_var, DRat(2), "ly")
        s.assert_upper(total, DRat(4), "ut")
        assert s.check() is None
        m = s.model()
        assert m[x_var] >= 1 and m[y_var] >= 2 and m[x_var] + m[y_var] <= 4

    def test_row_conflict_explanation(self):
        s = Simplex()
        x_var, y_var = s.new_var(), s.new_var()
        total = s.add_row({x_var: Fraction(1), y_var: Fraction(1)})
        s.assert_lower(x_var, DRat(3), "lx")
        s.assert_lower(y_var, DRat(3), "ly")
        s.assert_upper(total, DRat(4), "ut")
        conflict = s.check()
        assert conflict is not None
        assert set(conflict) == {"lx", "ly", "ut"}

    def test_strict_bounds_separated(self):
        s = Simplex()
        v = s.new_var()
        s.assert_lower(v, DRat(0, 1), "l")  # v > 0
        s.assert_upper(v, DRat(1, -1), "u")  # v < 1
        assert s.check() is None
        val = s.model()[v]
        assert 0 < val < 1

    def test_strict_conflict(self):
        s = Simplex()
        v = s.new_var()
        s.assert_lower(v, DRat(1, 1), "l")  # v > 1
        conflict = s.assert_upper(v, DRat(1, 0), "u")  # v <= 1
        assert conflict is not None


class TestBacktracking:
    def test_pop_restores_bounds(self):
        s = Simplex()
        v = s.new_var()
        s.assert_lower(v, DRat(0), "l0")
        s.push_level()
        s.assert_lower(v, DRat(10), "l10")
        assert s.lower[v] == DRat(10)
        s.pop_levels(1)
        assert s.lower[v] == DRat(0)
        s.assert_upper(v, DRat(5), "u5")
        assert s.check() is None

    def test_pop_multiple_levels(self):
        s = Simplex()
        v = s.new_var()
        for i in range(5):
            s.push_level()
            s.assert_lower(v, DRat(i), f"l{i}")
        s.pop_levels(3)
        assert s.lower[v] == DRat(1)
        s.pop_levels(2)
        assert s.lower[v] is None

    def test_conflict_then_pop_then_feasible(self):
        s = Simplex()
        x_var, y_var = s.new_var(), s.new_var()
        total = s.add_row({x_var: Fraction(1), y_var: Fraction(1)})
        s.assert_upper(total, DRat(4), "ut")
        s.push_level()
        s.assert_lower(x_var, DRat(3), "lx")
        s.assert_lower(y_var, DRat(3), "ly")
        assert s.check() is not None
        s.pop_levels(1)
        assert s.check() is None

    def test_reset_bounds(self):
        s = Simplex()
        v = s.new_var()
        s.assert_lower(v, DRat(3), "l")
        s.reset_bounds()
        assert s.lower[v] is None and s.lower_tag[v] is None
        assert s.check() is None


small_fracs = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7
)


@st.composite
def lp_instances(draw, strict=True):
    """Random small LPs: rows ``a.x <= b`` (or ``<``) over up to 6
    variables with box bounds; denominators up to 7 reach the pivots."""
    nvars = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 10))
    flag = st.booleans() if strict else st.just(False)
    rows = []
    for _ in range(nrows):
        coeffs = [draw(small_fracs) for _ in range(nvars)]
        rows.append((coeffs, draw(small_fracs), draw(flag)))
    boxes = [(draw(small_fracs), draw(small_fracs)) for _ in range(nvars)]
    return rows, boxes


class TestDifferentialAgainstScipy:
    @given(instance=lp_instances(strict=False))
    @settings(max_examples=100, deadline=None)
    def test_feasibility_matches_linprog(self, instance):
        rows, boxes = instance
        nvars = len(boxes)

        s = Simplex()
        svars = [s.new_var() for _ in range(nvars)]
        conflict = None
        for i, (lo, hi) in enumerate(boxes):
            lo, hi = min(lo, hi), max(lo, hi)
            conflict = conflict or s.assert_lower(svars[i], DRat(lo), f"box_lo{i}")
            conflict = conflict or s.assert_upper(svars[i], DRat(hi), f"box_hi{i}")
        for j, (coeffs, bound, _strict) in enumerate(rows):
            expr = {svars[i]: c for i, c in enumerate(coeffs) if c != 0}
            if not expr:
                if bound < 0:
                    conflict = conflict or ["ground"]
                continue
            rv = s.add_row(expr)
            conflict = conflict or s.assert_upper(rv, DRat(bound), f"row{j}")
        ours_feasible = conflict is None and s.check() is None

        # scipy reference
        a_ub = [[float(c) for c in coeffs] for coeffs, _b, _s in rows]
        b_ub = [float(b) for _c, b, _s in rows]
        bounds = [(float(min(lo, hi)), float(max(lo, hi))) for lo, hi in boxes]
        ref = linprog(
            c=[0.0] * nvars, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs"
        )
        assert ours_feasible == ref.success

    @given(instance=lp_instances())
    @settings(max_examples=60, deadline=None)
    def test_model_satisfies_constraints(self, instance):
        rows, boxes = instance
        nvars = len(boxes)
        s = Simplex()
        svars = [s.new_var() for _ in range(nvars)]
        rowvars = []
        ok = True
        for i, (lo, hi) in enumerate(boxes):
            lo, hi = min(lo, hi), max(lo, hi)
            ok = ok and s.assert_lower(svars[i], DRat(lo), f"lo{i}") is None
            ok = ok and s.assert_upper(svars[i], DRat(hi), f"hi{i}") is None
        for j, (coeffs, bound, strict) in enumerate(rows):
            expr = {svars[i]: c for i, c in enumerate(coeffs) if c != 0}
            if not expr:
                ok = ok and (bound > 0 if strict else bound >= 0)
                continue
            rv = s.add_row(expr)
            rowvars.append((rv, coeffs, bound, strict))
            ok = ok and s.assert_upper(rv, DRat(bound, -1 if strict else 0), f"r{j}") is None
        if not ok or s.check() is not None:
            return
        m = s.model()
        for i, (lo, hi) in enumerate(boxes):
            lo, hi = min(lo, hi), max(lo, hi)
            assert lo <= m[svars[i]] <= hi
        for rv, coeffs, bound, strict in rowvars:
            total = sum(c * m[svars[i]] for i, c in enumerate(coeffs))
            assert total < bound if strict else total <= bound
            assert m[rv] == total


def _form(forms, expr):
    """The linear form (base var -> Fraction) of ``sum(c * var)``."""
    out: dict[int, Fraction] = {}
    for var, c in expr.items():
        for base, a in forms[var].items():
            out[base] = out.get(base, Fraction(0)) + c * a
    return {v: a for v, a in out.items() if a != 0}


def _assert_farkas_contradictory(conflict, ineqs, forms):
    """Recompute a Farkas certificate with plain Fractions: the weighted
    sum of ``sign * form <= sign * (r + d·δ)`` must cancel every variable
    and leave ``0 <= (R + D·δ)`` with ``(R, D) < (0, 0)``."""
    assert conflict.farkas, "every conflict carries a certificate"
    assert [t for t, _ in conflict.farkas] == list(conflict)
    lhs: dict[int, Fraction] = {}
    r_sum = d_sum = Fraction(0)
    for tag, mult in conflict.farkas:
        assert isinstance(mult, Fraction) and mult > 0
        var, sign, r, d = ineqs[tag]
        for base, a in forms[var].items():
            lhs[base] = lhs.get(base, Fraction(0)) + mult * sign * a
        r_sum += mult * sign * r
        d_sum += mult * sign * d
    assert all(a == 0 for a in lhs.values())
    assert (r_sum, d_sum) < (0, 0)


def _assert_tableau_consistent(s):
    """Every row is gcd-normalised over a positive denominator, and each
    basic assignment equals its row evaluated at the nonbasic one."""

    def value(triple):
        rn, dn, q = triple
        return Fraction(rn, q), Fraction(dn, q)

    for b in s.basic:
        row, den = s.rows[b], s.den[b]
        assert den > 0 and gcd(den, *row.values()) == 1
        r = d = Fraction(0)
        for j, n in row.items():
            assert j not in s.basic
            jr, jd = value(s.assign[j])
            r += Fraction(n, den) * jr
            d += Fraction(n, den) * jd
        assert value(s.assign[b]) == (r, d)


def _assert_within_bounds(s):
    """Every variable's assignment satisfies its asserted bounds."""
    for v in range(s.nvars):
        lo, up, val = s.lower[v], s.upper[v], s.assign[v]
        assert lo is None or lo <= val
        assert up is None or up >= val


def _assert_violations_touched(s):
    """The worklist holds every basic outside its bounds."""
    for b in s.basic:
        lo, up, val = s.lower[b], s.upper[b], s.assign[b]
        if (lo is not None and lo > val) or (up is not None and up < val):
            assert b in s._touched


def _build(nbase, row_exprs):
    """A Simplex over ``nbase`` base variables plus one slack row per
    nonzero drawn expression.  Returns it with every variable's linear
    form over the base variables and the row expressions, in order."""
    s = Simplex()
    forms = {}
    for _ in range(nbase):
        v = s.new_var()
        forms[v] = {v: Fraction(1)}
    exprs = []
    for terms in row_exprs:
        expr: dict[int, Fraction] = {}
        for idx, c in terms:
            var = idx % s.nvars
            expr[var] = expr.get(var, Fraction(0)) + c
        expr = {v: c for v, c in expr.items() if c != 0}
        if not expr:
            continue
        rv = s.add_row(expr)
        forms[rv] = _form(forms, expr)
        exprs.append(expr)
    return s, forms, exprs


def _assert_bound(s, ineqs, step, op):
    """Apply a drawn ``("assert", ...)`` op to ``s``; record its
    inequality under a fresh tag and return ``(tag, var, which, bound,
    conflict)``."""
    _, idx, which, value, strict = op
    var, tag = idx % s.nvars, f"t{step}"
    if which == "U":
        r, d = value, Fraction(-1 if strict else 0)
        ineqs[tag] = (var, 1, r, d)
        conflict = s.assert_upper(var, DRat(r, d), tag)
    else:
        r, d = value, Fraction(1 if strict else 0)
        ineqs[tag] = (var, -1, r, d)
        conflict = s.assert_lower(var, DRat(r, d), tag)
    return tag, var, which, DRat(r, d), conflict


row_exprs = st.lists(
    st.lists(st.tuples(st.integers(0, 20), small_fracs), min_size=1, max_size=4),
    max_size=5,
)

ops = st.lists(
    st.one_of(
        st.just(("push",)),
        st.just(("check",)),
        st.tuples(st.just("pop"), st.integers(1, 3)),
        st.tuples(st.just("assert"), st.integers(0, 20), st.sampled_from("UL"),
                  small_fracs, st.booleans()),
    ),
    max_size=30,
)


class TestIncrementalProperties:
    @given(nbase=st.integers(1, 4), row_exprs=row_exprs, script=ops)
    @settings(max_examples=150, deadline=None)
    def test_certificates_tableau_and_pops(self, nbase, row_exprs, script):
        s, forms, exprs = _build(nbase, row_exprs)
        assume(s.nvars > 0)
        _assert_violations_touched(s)

        ineqs = {}  # tag -> (var, sign, r, d) for sign*var <= sign*(r + dδ)
        levels: list[list] = [[]]  # installed asserts per push level
        for step, op in enumerate(script):
            if op[0] == "push":
                s.push_level()
                levels.append([])
            elif op[0] == "pop":
                count = min(op[1], len(levels) - 1)
                if count == 0:
                    continue
                s.pop_levels(count)
                del levels[-count:]
                fresh = Simplex()
                for _ in range(nbase):
                    fresh.new_var()
                for expr in exprs:
                    fresh.add_row(expr)
                for var, which, bound, tag in (a for lvl in levels for a in lvl):
                    method = fresh.assert_upper if which == "U" else fresh.assert_lower
                    assert method(var, bound, tag) is None
                ours, ref = s.check(), fresh.check()
                assert (ours is None) == (ref is None)
                for conflict in (ours, ref):
                    if conflict is not None:
                        _assert_farkas_contradictory(conflict, ineqs, forms)
            elif op[0] == "check":
                conflict = s.check()
                if conflict is None:
                    _assert_tableau_consistent(s)
                else:
                    _assert_farkas_contradictory(conflict, ineqs, forms)
            else:
                tag, var, which, bound, conflict = _assert_bound(s, ineqs, step, op)
                if conflict is None:
                    levels[-1].append((var, which, bound, tag))
                else:
                    _assert_farkas_contradictory(conflict, ineqs, forms)
            _assert_violations_touched(s)


class TestPivotRule:
    @given(
        nbase=st.integers(1, 4),
        row_exprs=row_exprs,
        script=ops,
        bland_after=st.sampled_from([1, 2, 3, simplex.BLAND_AFTER]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fewest_column_agrees_with_bland(self, nbase, row_exprs, script, bland_after):
        """The default rule (with the fallback at several thresholds) and
        pure Bland, driven through the same script, agree on every
        check's verdict; each carries a valid certificate or model."""
        ours, forms, _ = _build(nbase, row_exprs)
        bland, _, _ = _build(nbase, row_exprs)
        assume(ours.nvars > 0)
        pair = (ours, bland)
        ineqs = {}
        depth = 0
        for step, op in enumerate(script):
            if op[0] == "push":
                for s in pair:
                    s.push_level()
                depth += 1
            elif op[0] == "pop":
                count = min(op[1], depth)
                for s in pair:
                    s.pop_levels(count)
                depth -= count
            elif op[0] == "check":
                with patch.object(simplex, "BLAND_AFTER", bland_after):
                    mine = ours.check()
                with patch.object(simplex, "BLAND_AFTER", 0):
                    ref = bland.check()
                assert (mine is None) == (ref is None)
                for s, conflict in ((ours, mine), (bland, ref)):
                    _assert_tableau_consistent(s)
                    if conflict is None:
                        _assert_within_bounds(s)
                    else:
                        _assert_farkas_contradictory(conflict, ineqs, forms)
            else:
                conflicts = [_assert_bound(s, ineqs, step, op)[-1] for s in pair]
                assert (conflicts[0] is None) == (conflicts[1] is None)
                if conflicts[0] is not None:
                    _assert_farkas_contradictory(conflicts[0], ineqs, forms)


class TestWorklist:
    def test_feed_points_requeue_violated_basics(self):
        """After a check empties the worklist, each way a basic can leave
        its bounds puts it back: a nonbasic moved under it, or a tighter
        bound on the basic itself."""
        s = Simplex()
        x, y = s.new_var(), s.new_var()
        total = s.add_row({x: Fraction(1), y: Fraction(1)})
        assert s._touched == {total}
        assert s.assert_upper(total, DRat(4), "ut") is None
        assert s.check() is None and not s._touched
        # raising nonbasic x to 5 drags total to 5, above its bound
        assert s.assert_lower(x, DRat(5), "lx") is None
        assert s._touched == {total}
        assert s.check() is None and not s._touched
        assert y in s.basic and s.model()[y] == -1
        # y >= 0 on the now-basic y is violated at once
        assert s.assert_lower(y, DRat(0), "ly") is None
        assert s._touched == {y}
        assert set(s.check()) == {"ut", "lx", "ly"}


def _degenerate_ring(n, pinned):
    """``x_0 <= x_1 <= ... <= x_{n-1} <= x_0`` over ``x_i >= 0`` as rows
    ``x_i - x_{i+1} <= 0``, each stated twice, plus ``sum(x) >= 1``.  At
    the start every ring row sits at its bound 0, so pivots on them make
    zero-length steps.  ``pinned`` adds ``x_0 <= 0``, which makes the
    instance infeasible."""
    s = Simplex()
    xs = [s.new_var() for _ in range(n)]
    for i, x in enumerate(xs):
        assert s.assert_lower(x, DRat(0), f"x{i}>=0") is None
    ring = []
    for i in range(n):
        a, b = xs[i], xs[(i + 1) % n]
        for k in (1, 2):
            r = s.add_row({a: Fraction(k), b: Fraction(-k)})
            assert s.assert_upper(r, DRat(0), f"ring{i}.{k}") is None
            ring.append((a, b))
    total = s.add_row({x: Fraction(1) for x in xs})
    assert s.assert_lower(total, DRat(1), "sum>=1") is None
    if pinned:
        assert s.assert_upper(xs[0], DRat(0), "x0<=0") is None
    return s, xs, ring


class TestBlandFallback:
    @pytest.mark.parametrize("pinned", [False, True])
    @pytest.mark.parametrize("n", [3, 6])
    def test_terminates_on_degenerate_rows(self, monkeypatch, n, pinned):
        """With the fallback after one pivot, a degenerate check ends
        with pure Bland's verdict, and a feasible one with a valid model."""
        verdicts = []
        for bland_after in (1, 0):
            monkeypatch.setattr(simplex, "BLAND_AFTER", bland_after)
            s, xs, ring = _degenerate_ring(n, pinned)
            conflict = s.check()
            assert s.pivots > 1  # enough pivots for the fallback to act
            verdicts.append(conflict is None)
            if conflict is not None:
                assert conflict.farkas
                continue
            m = s.model()
            assert all(m[x] >= 0 for x in xs)
            assert all(m[a] <= m[b] for a, b in ring)
            assert sum(m[x] for x in xs) >= 1
        assert verdicts == [not pinned] * 2
