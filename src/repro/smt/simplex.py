"""Incremental Simplex for linear real arithmetic (Dutertre–de Moura).

This is the theory core behind the DPLL(T) solver: it maintains a tableau
of linear equalities ``basic = sum(coeff * nonbasic)`` plus per-variable
bounds, supports asserting/retracting bounds along the SAT trail, and
decides feasibility by pivoting.

Pivot rule: the leaving variable is Bland's, the smallest-index violated
basic.  The entering variable is, among the nonbasics of that row that
can move it towards its bound, the one whose column touches the fewest
rows (ties to the smallest index), since a pivot rewrites every row in
that column.  After :data:`BLAND_AFTER` pivots inside one :meth:`check`
call the entering variable is Bland's too, which guarantees termination.
Violated basics are found through a worklist, ``_touched``: every point
that can push a basic out of its bounds (a tighter bound on it, a
nonbasic update, a pivot, a new row) adds it, so the worklist always
holds every violated basic and the scan picks the same leaving variable
as a scan of the whole basis.

All arithmetic is exact and runs on Python ints:

* A row is a positive denominator ``den[b]`` and a map ``rows[b]`` of
  nonzero integer numerators; it means ``b = sum(num/den * x)``.  Rows
  stay gcd-normalised, ``gcd(den, *nums) == 1``, so each coefficient
  ``num/den`` is the same rational whichever way the row was reached.
* A value is a δ-rational ``r + d·δ`` for an infinitesimal positive δ
  (strict bounds: ``x < c`` is ``x <= c - δ``), held as an int triple
  ``(rn, dn, q)`` meaning ``(rn + dn·δ)/q``, with ``q > 0`` and
  ``gcd(rn, dn, q) == 1``.  Assignments are plain triples; bounds are
  :class:`DRat`, a tuple of the same shape.  Comparisons cross-multiply.

Conflicts carry Farkas multipliers ``num/den`` read off the stuck row
(see :class:`Conflict`), as exact :class:`~fractions.Fraction` values.

:meth:`Simplex.maximize` is a primal phase on the same tableau: from
the feasible assignment :meth:`Simplex.check` leaves, it raises one
variable to its optimum under the asserted bounds (see
:mod:`repro.smt.optimize`).

The design follows "A Fast Linear-Arithmetic Solver for DPLL(T)"
(Dutertre & de Moura, CAV 2006): backtracking only restores bounds — the
tableau and the current assignment are kept, so pops are O(#bounds).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# pivots inside one check() call before the entering variable falls back
# to Bland's rule (smallest index), which guarantees termination (the
# role of Z3's arith.blands_rule_threshold)
BLAND_AFTER = 1000


def _lt(a: tuple, b: tuple) -> bool:
    """``a < b`` for value triples: lexicographic on ``(r, d)``."""
    ar, ad, aq = a
    br, bd, bq = b
    x, y = ar * bq, br * aq
    return x < y or (x == y and ad * bq < bd * aq)


def _axpy(val: tuple, n: int, m: int, x: tuple) -> tuple:
    """The value triple ``val + (n/m)·x``, for ``m > 0``."""
    r, d, q = val
    xr, xd, xq = x
    s = m * xq
    n *= q
    r, d, q = r * s + n * xr, d * s + n * xd, q * s
    g = gcd(r, d, q)
    return (r // g, d // g, q // g) if g != 1 else (r, d, q)


class DRat(tuple):
    """δ-rational ``r + d·δ`` for an infinitesimal positive δ.

    The tuple is ``(rn, dn, q)``, meaning ``(rn + dn·δ)/q`` in lowest
    terms, so tuple equality and hashing are exact.  Ordering is
    lexicographic on ``(r, d)``, which matches the semantics of strict
    bounds: ``x < c`` is ``x <= c - δ``.
    """

    __slots__ = ()

    def __new__(cls, r, d=0):
        r, d = Fraction(r), Fraction(d)
        q = lcm(r.denominator, d.denominator)
        return tuple.__new__(
            cls, (r.numerator * (q // r.denominator), d.numerator * (q // d.denominator), q)
        )

    def __lt__(self, other: "DRat") -> bool:
        return _lt(self, other)

    def __le__(self, other: "DRat") -> bool:
        return not _lt(other, self)

    def __gt__(self, other: "DRat") -> bool:
        return _lt(other, self)

    def __ge__(self, other: "DRat") -> bool:
        return not _lt(self, other)

    def __repr__(self) -> str:
        rn, dn, q = self
        r = Fraction(rn, q)
        if dn == 0:
            return str(r)
        sign = "+" if dn > 0 else "-"
        return f"{r} {sign} {Fraction(abs(dn), q)}δ"


ZERO = DRat(0)


class Conflict(list):
    """A list of explanation tags whose bounds are jointly inconsistent.

    In proof mode the conflict also carries ``farkas``: a tuple of
    ``(tag, Fraction)`` pairs giving nonnegative multipliers over the
    tags' inequalities whose combination is contradictory (the variable
    parts cancel and the constant is impossible).  The tableau invariant
    behind it: every simplex variable denotes a fixed linear form over
    the original problem variables (a slack variable denotes its
    registered atom's expression, and pivoting preserves row semantics),
    so multipliers computed in simplex space are valid over the original
    inequalities the tags assert.
    """

    farkas = None


class Simplex:
    """Incremental simplex over exact δ-rationals.

    Variables are dense ints.  Bounds carry an opaque *explanation tag*
    (the SAT literal that asserted them); conflicts are reported as lists
    of these tags.
    """

    def __init__(self):
        self.nvars = 0
        self.lower: list[Optional[DRat]] = []
        self.upper: list[Optional[DRat]] = []
        self.lower_tag: list = []
        self.upper_tag: list = []
        # value triples (rn, dn, q), see the module docstring
        self.assign: list[tuple] = []
        # rows: basic var -> {nonbasic var: int numerator}, over den[basic]
        self.rows: dict[int, dict[int, int]] = {}
        self.den: dict[int, int] = {}
        # cols: nonbasic var -> set of basic vars whose row mentions it
        self.cols: dict[int, set[int]] = {}
        self.basic: set[int] = set()
        # basics that may violate a bound; a superset of those that do
        self._touched: set[int] = set()
        # undo machinery
        self._trail: list[tuple[int, str, Optional[DRat], object]] = []
        self._level_marks: list[int] = []
        self.pivots = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def adopt_tableau(self, other: "Simplex") -> None:
        """Take a copy of the tableau and assignment of ``other``, a
        Simplex built from the same rows that has since pivoted.  Every
        row still denotes the same linear form, so only the basis and
        the starting point of the next :meth:`check` change; bounds and
        the undo trail stay this Simplex's own."""
        assert other.nvars == self.nvars, "adopt only over the same variables"
        self.rows = {b: dict(row) for b, row in other.rows.items()}
        self.cols = {v: set(col) for v, col in other.cols.items()}
        self.den = dict(other.den)
        self.basic = set(other.basic)
        self.assign = list(other.assign)
        self._touched = set(other.basic)

    def new_var(self) -> int:
        v = self.nvars
        self.nvars += 1
        self.lower.append(None)
        self.upper.append(None)
        self.lower_tag.append(None)
        self.upper_tag.append(None)
        self.assign.append(ZERO)
        self.cols[v] = set()
        return v

    def add_row(self, expr: dict[int, Fraction]) -> int:
        """Introduce a slack variable ``s`` with ``s = expr`` and return it.

        ``expr`` maps existing variables to coefficients; any basic
        variables in it are substituted by their rows so the new row only
        mentions nonbasic variables.
        """
        s = self.new_var()
        acc: dict[int, Fraction] = {}
        for var, coeff in expr.items():
            if var in self.basic:
                den = self.den[var]
                for v2, n2 in self.rows[var].items():
                    acc[v2] = acc.get(v2, 0) + coeff * Fraction(n2, den)
            else:
                acc[var] = acc.get(var, 0) + coeff
        acc = {v: c for v, c in acc.items() if c != 0}
        # lcm of reduced denominators: the integer row is already normalised
        den = lcm(*(c.denominator for c in acc.values()))
        row = {v: c.numerator * (den // c.denominator) for v, c in acc.items()}
        self.rows[s] = row
        self.den[s] = den
        self.basic.add(s)
        self._touched.add(s)
        value = ZERO
        for var, n in row.items():
            self.cols[var].add(s)
            value = _axpy(value, n, den, self.assign[var])
        self.assign[s] = value
        return s

    # ------------------------------------------------------------------
    # Bound assertion / retraction
    # ------------------------------------------------------------------

    def push_level(self) -> None:
        self._level_marks.append(len(self._trail))

    def pop_levels(self, count: int) -> None:
        if count <= 0 or not self._level_marks:
            return
        count = min(count, len(self._level_marks))
        mark = self._level_marks[-count]
        del self._level_marks[-count:]
        while len(self._trail) > mark:
            var, which, old_bound, old_tag = self._trail.pop()
            if which == "L":
                self.lower[var] = old_bound
                self.lower_tag[var] = old_tag
            else:
                self.upper[var] = old_bound
                self.upper_tag[var] = old_tag

    def reset_bounds(self) -> None:
        """Retract every bound (level-0 included); tableau is kept."""
        self._trail.clear()
        self._level_marks.clear()
        self._touched.clear()
        for v in range(self.nvars):
            self.lower[v] = None
            self.upper[v] = None
            self.lower_tag[v] = None
            self.upper_tag[v] = None

    def assert_upper(self, var: int, bound: DRat, tag) -> Optional[Conflict]:
        """Assert ``var <= bound``; returns a conflict or None."""
        current = self.upper[var]
        if current is not None and bound >= current:
            return None
        low = self.lower[var]
        if low is not None and bound < low:
            conflict = Conflict([tag, self.lower_tag[var]])
            # new upper u below existing lower l: 1*(x <= u) + 1*(x >= l)
            conflict.farkas = ((tag, Fraction(1)), (self.lower_tag[var], Fraction(1)))
            return conflict
        self._trail.append((var, "U", current, self.upper_tag[var]))
        self.upper[var] = bound
        self.upper_tag[var] = tag
        if var in self.basic:
            self._touched.add(var)
        elif _lt(bound, self.assign[var]):
            self._update(var, bound)
        return None

    def assert_lower(self, var: int, bound: DRat, tag) -> Optional[Conflict]:
        """Assert ``var >= bound``; returns a conflict or None."""
        current = self.lower[var]
        if current is not None and bound <= current:
            return None
        up = self.upper[var]
        if up is not None and bound > up:
            conflict = Conflict([tag, self.upper_tag[var]])
            conflict.farkas = ((tag, Fraction(1)), (self.upper_tag[var], Fraction(1)))
            return conflict
        self._trail.append((var, "L", current, self.lower_tag[var]))
        self.lower[var] = bound
        self.lower_tag[var] = tag
        if var in self.basic:
            self._touched.add(var)
        elif _lt(self.assign[var], bound):
            self._update(var, bound)
        return None

    def _update(self, var: int, value: DRat) -> None:
        assign, rows, den = self.assign, self.rows, self.den
        delta = _axpy(value, -1, 1, assign[var])
        for b in self.cols[var]:
            assign[b] = _axpy(assign[b], rows[b][var], den[b], delta)
        self._touched.update(self.cols[var])
        assign[var] = value

    # ------------------------------------------------------------------
    # Feasibility check
    # ------------------------------------------------------------------

    def check(self) -> Optional[Conflict]:
        """Pivot until all bounds hold; returns a conflict or None."""
        assign, lower, upper, cols = self.assign, self.lower, self.upper, self.cols
        basic, touched = self.basic, self._touched
        bland_at = self.pivots + BLAND_AFTER
        while True:
            violated = -1
            below = False
            for b in sorted(touched):  # Bland's rule: smallest index
                if b in basic:
                    val = assign[b]
                    lo = lower[b]
                    if lo is not None and _lt(val, lo):
                        violated, below = b, True
                        break
                    up = upper[b]
                    if up is not None and _lt(up, val):
                        violated, below = b, False
                        break
                touched.discard(b)
            if violated < 0:
                return None
            b = violated
            row = self.rows[b]
            bland = self.pivots >= bland_at
            pivot_var = -1
            fewest = 0
            for j in sorted(row):
                # raise j when that moves b towards its violated bound
                if (row[j] > 0) == below:
                    bound = upper[j]
                    can = bound is None or _lt(assign[j], bound)
                else:
                    bound = lower[j]
                    can = bound is None or _lt(bound, assign[j])
                if can:
                    if bland:
                        pivot_var = j
                        break
                    size = len(cols[j])
                    if pivot_var < 0 or size < fewest:
                        pivot_var, fewest = j, size
            if pivot_var < 0:
                return self._explain(b, below)
            target = lower[b] if below else upper[b]
            assert target is not None
            self._pivot_and_update(b, pivot_var, target)

    def maximize(self, obj: int) -> Optional[tuple]:
        """Primal phase: raise ``obj`` as far as the asserted bounds allow.

        Call after a successful :meth:`check`.  Every step keeps every
        bound, so the assignment stays feasible and each atom keeps its
        truth value.  Entering and leaving variables follow Bland's rule
        (smallest index; a tie between a basic and the entering
        variable's own bound moves to the bound without a pivot), which
        rules out cycling.  Returns the optimal value triple of ``obj``,
        or None when ``obj`` is unbounded above.
        """
        assign, lower, upper = self.assign, self.lower, self.upper
        rows, den = self.rows, self.den
        while True:
            # entering variable j and its direction s (+1 up, -1 down)
            if obj in self.basic:
                row = rows[obj]
                moves = [(j, 1 if row[j] > 0 else -1) for j in sorted(row)]
            else:
                moves = [(obj, 1)]
            for j, s in moves:
                bound = upper[j] if s > 0 else lower[j]
                if bound is None or (
                    _lt(assign[j], bound) if s > 0 else _lt(bound, assign[j])
                ):
                    break
            else:
                return assign[obj]
            # ratio test over δ-rationals: the longest step theta of j
            # that keeps j's own bound and every basic's bounds
            theta = None
            if bound is not None:
                theta = _axpy(bound, -1, 1, assign[j]) if s > 0 else _axpy(assign[j], -1, 1, bound)
            leave, target = -1, None
            for b in sorted(self.cols[j]):
                n = rows[b][j] * s  # b moves by n/den[b] per unit of theta
                lim = upper[b] if n > 0 else lower[b]
                if lim is None:
                    continue
                gap = _axpy(lim, -1, 1, assign[b]) if n > 0 else _axpy(assign[b], -1, 1, lim)
                gap = _axpy(ZERO, den[b], abs(n), gap)
                if theta is None or _lt(gap, theta):
                    theta, leave, target = gap, b, lim
            if theta is None:
                return None
            if leave < 0:
                self._update(j, bound)
            else:
                self._pivot_and_update(leave, j, target)

    def _explain(self, b: int, below: bool) -> Conflict:
        # Farkas multipliers: the row says b - sum(a_j * x_j) = 0, so when b is
        # stuck below its lower bound, 1*(b >= l) plus |a_j| times each
        # blocking bound on x_j sums to a contradiction (and symmetrically
        # above).  Multipliers are over the tagged source inequalities.
        row, den = self.rows[b], self.den[b]
        pairs = [(self.lower_tag[b] if below else self.upper_tag[b], Fraction(1))]
        for j, n in row.items():
            tag = self.upper_tag[j] if (n > 0) == below else self.lower_tag[j]
            pairs.append((tag, Fraction(abs(n), den)))
        conflict = Conflict([t for t, _ in pairs if t is not None])
        conflict.farkas = tuple((t, c) for t, c in pairs if t is not None)
        return conflict

    def _pivot_and_update(self, b: int, j: int, v: DRat) -> None:
        self.pivots += 1
        assign, rows, den = self.assign, self.rows, self.den
        # theta = (v - assign[b]) / a_bj with a_bj = n_bj / den[b]
        n_bj, d_b = rows[b][j], den[b]
        diff = _axpy(v, -1, 1, assign[b])
        theta = _axpy(ZERO, d_b, n_bj, diff) if n_bj > 0 else _axpy(ZERO, -d_b, -n_bj, diff)
        assign[b] = v
        assign[j] = _axpy(assign[j], 1, 1, theta)
        for b2 in self.cols[j]:
            if b2 != b:
                assign[b2] = _axpy(assign[b2], rows[b2][j], den[b2], theta)
        self._touched.update(self.cols[j])
        self._touched.add(j)
        self._pivot(b, j)

    def _pivot(self, b: int, j: int) -> None:
        """Swap basic ``b`` with nonbasic ``j``."""
        cols = self.cols
        row = self.rows.pop(b)
        d_b = self.den.pop(b)
        self.basic.discard(b)
        n_bj = row.pop(j)
        cols[j].discard(b)
        # j = (d_b*b - sum_{k != j} n_k x_k) / n_bj, over the positive
        # denominator |n_bj|; gcd-normalised because the old row was
        sign = 1 if n_bj > 0 else -1
        p = sign * n_bj
        new_row: dict[int, int] = {b: sign * d_b}
        for k, n_k in row.items():
            new_row[k] = -sign * n_k
            cols[k].discard(b)
            cols[k].add(j)
        self.rows[j] = new_row
        self.den[j] = p
        self.basic.add(j)
        cols[b].add(j)
        # substitute j in every other row that mentions it: with
        # b2 = (rest + c*j)/e and j = new_row/p, scale rest by m = p/gcd(c, p)
        for b2 in cols[j]:
            row2 = self.rows[b2]
            c = row2.pop(j)
            g = gcd(c, p)
            c //= g
            m = p // g
            if m != 1:
                for k in row2:
                    row2[k] *= m
            get = row2.get
            for k, a_k in new_row.items():
                old = get(k)
                if old is None:
                    row2[k] = c * a_k
                    cols[k].add(b2)
                    continue
                nv = old + c * a_k
                if nv:
                    row2[k] = nv
                else:
                    del row2[k]
                    cols[k].discard(b2)
            e = self.den[b2] * m
            g = gcd(e, *row2.values())
            if g != 1:
                for k in row2:
                    row2[k] //= g
                e //= g
            self.den[b2] = e
        cols[j] = set()

    # ------------------------------------------------------------------
    # Models
    # ------------------------------------------------------------------

    def concrete_delta(self) -> Fraction:
        """A positive rational value for δ under which the current
        assignment satisfies every asserted bound concretely."""
        delta = Fraction(1)
        for v in range(self.nvars):
            val = self.assign[v]
            for lo, hi in ((self.lower[v], val), (val, self.upper[v])):
                if lo is None or hi is None:
                    continue
                # lo <= hi holds lexicographically; concretely it needs
                # δ <= (hi.r - lo.r) / (lo.d - hi.d) when both are positive
                (lr, ld, lq), (hr, hd, hq) = lo, hi
                num, dnm = hr * lq - lr * hq, ld * hq - hd * lq
                if num > 0 and dnm > 0:
                    delta = min(delta, Fraction(num, dnm))
        return delta / 2

    def model(self) -> list[Fraction]:
        """Concrete rational values for all variables (call after a
        successful :meth:`check`)."""
        delta = self.concrete_delta()
        return [(r + d * delta) / q for r, d, q in self.assign]
