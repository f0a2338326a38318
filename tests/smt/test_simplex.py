"""Simplex core tests: bounds, pivoting, conflicts, backtracking, a
differential feasibility test against scipy.optimize.linprog, and a
property test over random assert/check/push/pop sequences that recomputes
every Farkas certificate with plain Fractions."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import linprog

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
    @given(
        nbase=st.integers(1, 4),
        row_exprs=st.lists(
            st.lists(st.tuples(st.integers(0, 20), small_fracs), min_size=1, max_size=4),
            max_size=5,
        ),
        script=ops,
    )
    @settings(max_examples=150, deadline=None)
    def test_certificates_tableau_and_pops(self, nbase, row_exprs, script):
        s = Simplex()
        forms = {}
        for _ in range(nbase):
            v = s.new_var()
            forms[v] = {v: Fraction(1)}
        exprs = []  # (slack var, expr) to rebuild a fresh Simplex
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
        assume(s.nvars > 0)

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
                if conflict is None:
                    levels[-1].append((var, which, DRat(r, d), tag))
                else:
                    _assert_farkas_contradictory(conflict, ineqs, forms)
