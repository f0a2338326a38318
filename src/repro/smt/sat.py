"""CDCL SAT solver with theory hooks (the boolean engine of DPLL(T)).

A reasonably complete conflict-driven clause-learning solver:

* two-watched-literal propagation,
* 1UIP conflict analysis with recursive clause minimization,
* relevancy-filtered VSIDS decisions with phase saving (below), or
  theory-aware phases on theory atoms (:attr:`SatSolver.theory_phases`),
* Luby restarts and activity-based learned-clause deletion,
* assumption literals (used by the incremental push/pop layer),
* a :class:`TheoryHook` interface through which the Simplex-based linear
  real arithmetic solver participates in the search.

Literals are non-zero ints in DIMACS convention: ``+v`` is the positive
literal of boolean variable ``v`` (1-based), ``-v`` its negation.

**Decisions.**  The core decides only variables an *open* problem
clause needs: the highest-activity unassigned variable that occurs in a
problem clause with no true literal.  A variable whose problem clauses
are all satisfied is parked (off the decision heap) in the bucket of
the decision level below which one of them could lose its true literal,
and returns to the heap when the search backtracks below that level, so
it is tested at most once per backtrack.  When no open clause is left,
the final theory check runs and the answer is SAT with the remaining
variables unassigned: every problem clause holds a true assigned
literal, so any extension of the assignment -- unassigned booleans read
False, unasserted atoms take whatever truth the Simplex model gives
them -- satisfies every problem clause, and learned clauses are implied
by those plus theory lemmas (DESIGN.md, "Relevancy-filtered decisions").
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Optional, Sequence

from ..trust.proof import ProofError


class TheoryHook:
    """Interface the SAT core uses to talk to a theory solver.

    The SAT core guarantees the bracketing discipline: ``push_level`` is
    called once per decision level, ``pop_levels`` undoes the most recent
    levels, ``reset`` clears every asserted literal (the trail is replayed
    from scratch on the next solve), and ``assert_lit`` is called exactly
    once per registered theory literal between the surrounding push/pop.

    Conflicts are reported as a list of theory literals that are jointly
    inconsistent (all of which are currently asserted true).
    """

    def assert_lit(self, lit: int) -> Optional[list[int]]:
        raise NotImplementedError

    def check(self, final: bool) -> Optional[list[int]]:
        raise NotImplementedError

    def phase(self, var: int) -> int:
        """The polarity (+1 or -1) of theory atom ``var`` that the theory's
        current assignment satisfies; consulted for decisions when
        :attr:`SatSolver.theory_phases` is set."""
        raise NotImplementedError

    def take_farkas(self):
        """Certificate of the most recent conflict (proof mode).

        Theory solvers that participate in proof production return a
        tuple of ``(literal, Fraction)`` pairs — the Farkas multipliers
        over the asserted inequalities — consumed once per conflict.
        The default (no certificate) makes proof mode fail loudly.
        """
        return None

    def push_level(self) -> None:
        raise NotImplementedError

    def pop_levels(self, count: int) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError


class Clause:
    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: list[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:
        return f"Clause({self.lits})"


def luby(i: int) -> int:
    """The Luby restart sequence (1,1,2,1,1,2,4,...), 1-indexed."""
    while True:
        if (i + 1) & i == 0:  # i + 1 is a power of two -> i = 2^k - 1
            return (i + 1) >> 1
        i -= (1 << (i.bit_length() - 1)) - 1


class SatSolver:
    """CDCL solver; see module docstring."""

    def __init__(self, theory: Optional[TheoryHook] = None):
        self.theory = theory
        self.nvars = 0
        # indexed by var (1-based); index 0 unused
        self.values: list[int] = [0]  # 0 unassigned, +1 true, -1 false
        self.levels: list[int] = [0]
        self.reasons: list[Optional[Clause]] = [None]
        self.activity: list[float] = [0.0]
        self.saved_phase: list[int] = [1]
        self.is_theory: list[bool] = [False]
        self.watches: dict[int, list[Clause]] = {}
        self.clauses: list[Clause] = []
        self.learned: list[Clause] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.order_heap: list[tuple[float, int]] = []
        #: problem clauses each variable occurs in (learned ones excluded)
        self.occurs: list[list[Clause]] = [[]]
        #: decision level whose backtrack re-queues a parked variable, -1
        #: for a variable that is not parked; ``_parked[level]`` lists them
        self._parked_at: list[int] = [-1]
        self._parked: list[list[int]] = [[]]
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.theory_checks = 0
        self.simplify_removed = 0
        self.learned_retained = 0
        self._theory_qhead = 0
        self._theory_dirty = False
        self._model: list[int] = []
        #: decide a theory atom the way the theory's current assignment
        #: satisfies it (:meth:`TheoryHook.phase`) instead of by its saved
        #: phase; other variables keep their saved phases
        self.theory_phases = False
        #: when set (a :class:`repro.trust.proof.ProofLog`), every clause
        #: addition/derivation/deletion is logged for independent checking
        self.proof = None

    # ------------------------------------------------------------------
    # Priming
    # ------------------------------------------------------------------

    def adopt_heuristics(self, other: "SatSolver") -> None:
        """Take the decision heuristics of ``other``, a searched solver
        over the same variables: variable activity, saved phases and
        ``var_inc``, with the decision heap rebuilt from that activity.
        Clauses and the trail stay this solver's own."""
        assert other.nvars == self.nvars, "adopt only over the same variables"
        self.activity = list(other.activity)
        self.saved_phase = list(other.saved_phase)
        self.var_inc = other.var_inc
        self.order_heap = [(-a, v) for v, a in enumerate(self.activity) if v]
        heapq.heapify(self.order_heap)

    # ------------------------------------------------------------------
    # Variable / clause management
    # ------------------------------------------------------------------

    def new_var(self, theory_atom: bool = False) -> int:
        self.nvars += 1
        v = self.nvars
        self.values.append(0)
        self.levels.append(0)
        self.reasons.append(None)
        self.activity.append(0.0)
        self.saved_phase.append(-1)
        self.is_theory.append(theory_atom)
        self.occurs.append([])
        self._parked_at.append(-1)
        self.watches.setdefault(v, [])
        self.watches.setdefault(-v, [])
        heapq.heappush(self.order_heap, (0.0, v))
        return v

    def value_lit(self, lit: int) -> int:
        v = self.values[abs(lit)]
        return v if lit > 0 else -v

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def add_clause(self, lits: Sequence[int]) -> bool:
        """Add a problem clause (at decision level 0). Returns False iff the
        clause system is now trivially unsatisfiable."""
        assert self.decision_level == 0, "clauses may only be added at level 0"
        if not self.ok:
            return False
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            val = self.value_lit(lit)
            if val == 1:
                return True  # already satisfied at root
            if val == -1:
                continue  # falsified at root: drop
            seen.add(lit)
            out.append(lit)
        if self.proof is not None:
            # Ledger: the clause as given is an *input* (the checker must
            # justify it against the query); the root-shrunk form the
            # solver actually uses is a *derived* (RUP-checkable) clause.
            orig = tuple(lits)
            self.proof.input(orig)
            shrunk = tuple(out)
            if shrunk != orig:
                self.proof.derived(shrunk)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._uncheck_enqueue(out[0], None)
            if self.propagate() is not None:
                self.ok = False
                return False
            return True
        clause = Clause(out)
        self.clauses.append(clause)
        self._attach(clause)
        for lit in out:
            self.occurs[abs(lit)].append(clause)
        return True

    def _attach(self, clause: Clause) -> None:
        self.watches[-clause.lits[0]].append(clause)
        self.watches[-clause.lits[1]].append(clause)

    # ------------------------------------------------------------------
    # Assignment / propagation
    # ------------------------------------------------------------------

    def _uncheck_enqueue(self, lit: int, reason: Optional[Clause]) -> None:
        v = abs(lit)
        self.values[v] = 1 if lit > 0 else -1
        self.levels[v] = self.decision_level
        self.reasons[v] = reason
        self.trail.append(lit)
        if self.is_theory[v]:
            self._theory_dirty = True

    def propagate(self) -> Optional[Clause]:
        """Unit propagation; returns a conflicting clause or None."""
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            self.propagations += 1
            # clauses are registered under the negation of their watched
            # literals, so the clauses affected by p becoming true (i.e.
            # whose watch -p became false) live under key p
            watchlist = self.watches[p]
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                clause = watchlist[i]
                i += 1
                lits = clause.lits
                if lits[0] == -p:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value_lit(first) == 1:
                    watchlist[j] = clause
                    j += 1
                    continue
                moved = False
                for k in range(2, len(lits)):
                    if self.value_lit(lits[k]) != -1:
                        lits[1], lits[k] = lits[k], lits[1]
                        self.watches[-lits[1]].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                watchlist[j] = clause
                j += 1
                if self.value_lit(first) == -1:
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    self.qhead = len(self.trail)
                    return clause
                self._uncheck_enqueue(first, clause)
            del watchlist[j:]
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (1UIP)
    # ------------------------------------------------------------------

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(1, self.nvars + 1):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.order_heap, (-self.activity[v], v))

    def _bump_clause(self, c: Clause) -> None:
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for cl in self.learned:
                cl.activity *= 1e-20
            self.cla_inc *= 1e-20

    def analyze(self, confl: Clause) -> tuple[list[int], int]:
        """1UIP analysis; returns (learnt clause, backjump level).

        Precondition: every literal of ``confl`` is false and at least one
        is at the current decision level.  ``learnt[0]`` is the asserting
        literal.
        """
        learnt: list[int] = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        p = 0
        index = len(self.trail) - 1
        reason: Optional[Clause] = confl
        while True:
            assert reason is not None
            if reason.learned:
                self._bump_clause(reason)
            start = 1 if p != 0 else 0
            for lit in reason.lits[start:]:
                v = abs(lit)
                if not seen[v] and self.levels[v] > 0:
                    seen[v] = True
                    self._bump_var(v)
                    if self.levels[v] >= self.decision_level:
                        counter += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(self.trail[index])]:
                index -= 1
            p = self.trail[index]
            index -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            reason = self.reasons[abs(p)]
        learnt[0] = -p

        # clause minimization: drop lits implied by the rest
        keep = [learnt[0]]
        marked = {abs(l) for l in learnt}
        for lit in learnt[1:]:
            if not self._redundant(lit, marked):
                keep.append(lit)
        learnt = keep

        if len(learnt) == 1:
            bt_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self.levels[abs(learnt[i])] > self.levels[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt_level = self.levels[abs(learnt[1])]
        return learnt, bt_level

    def _redundant(self, lit: int, marked: set[int], depth: int = 0) -> bool:
        reason = self.reasons[abs(lit)]
        if reason is None or depth > 24:
            return False
        for q in reason.lits:
            v = abs(q)
            if v == abs(lit) or self.levels[v] == 0 or v in marked:
                continue
            if self.reasons[v] is None:
                return False
            if not self._redundant(q, marked, depth + 1):
                return False
        return True

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def cancel_until(self, level: int) -> None:
        if self.decision_level <= level:
            return
        pop_count = self.decision_level - level
        bound = self.trail_lim[level]
        for i in range(len(self.trail) - 1, bound - 1, -1):
            lit = self.trail[i]
            v = abs(lit)
            self.saved_phase[v] = 1 if lit > 0 else -1
            self.values[v] = 0
            self.reasons[v] = None
            heapq.heappush(self.order_heap, (-self.activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self._unpark(level + 1)
        self.qhead = min(self.qhead, len(self.trail))
        self._theory_qhead = min(self._theory_qhead, len(self.trail))
        if self.theory is not None:
            self.theory.pop_levels(pop_count)

    # ------------------------------------------------------------------
    # Theory integration
    # ------------------------------------------------------------------

    def _theory_sync(self, final: bool) -> Optional[Clause]:
        """Push newly assigned theory literals to the theory and check.

        Returns a conflict clause (falsified under the current assignment)
        or None.
        """
        if self.theory is None:
            return None
        if not self._theory_dirty and not final and self._theory_qhead == len(self.trail):
            return None
        conflict_lits = None
        while self._theory_qhead < len(self.trail):
            lit = self.trail[self._theory_qhead]
            self._theory_qhead += 1
            if self.is_theory[abs(lit)]:
                conflict_lits = self.theory.assert_lit(lit)
                if conflict_lits is not None:
                    break
        if conflict_lits is None:
            self._theory_dirty = False
            self.theory_checks += 1
            conflict_lits = self.theory.check(final)
        if conflict_lits is None:
            return None
        clause = Clause([-l for l in conflict_lits], learned=True)
        if self.proof is not None:
            farkas = self.theory.take_farkas()
            if not farkas:
                raise ProofError(
                    "theory conflict without a Farkas certificate; the "
                    "theory solver cannot participate in proof mode"
                )
            self.proof.theory(tuple(clause.lits), tuple(farkas))
        return clause

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """The highest-activity unassigned variable that occurs in a
        problem clause with no true literal, or 0 when there is none.
        Each variable found in satisfied clauses only is parked until a
        backtrack could reopen one of them."""
        values, levels, heap = self.values, self.levels, self.order_heap
        parked_at = self._parked_at
        while heap:
            _, v = heapq.heappop(heap)
            if values[v] != 0 or parked_at[v] >= 0:
                continue
            # the level below which some clause of v may lose its true
            # literal: the latest of the true literals found, one per clause
            reopen = 0
            for clause in self.occurs[v]:
                for lit in clause.lits:
                    if (values[lit] if lit > 0 else -values[-lit]) == 1:
                        lvl = levels[lit if lit > 0 else -lit]
                        if lvl > reopen:
                            reopen = lvl
                        break
                else:
                    return v
            parked_at[v] = reopen
            while len(self._parked) <= reopen:
                self._parked.append([])
            self._parked[reopen].append(v)
        return 0

    def _unpark(self, level: int) -> None:
        """Re-queue every variable parked at ``level`` or above."""
        parked, heap, activity = self._parked, self.order_heap, self.activity
        for bucket in parked[level:]:
            for v in bucket:
                self._parked_at[v] = -1
                heapq.heappush(heap, (-activity[v], v))
        del parked[level:]

    def _handle_conflict(self, confl: Clause) -> bool:
        """Learn from a conflict and backjump. Returns False iff UNSAT.

        Handles theory conflict clauses whose literals may all live below
        the current decision level by first backtracking to the highest
        level among them.
        """
        self.conflicts += 1
        max_level = 0
        for lit in confl.lits:
            lvl = self.levels[abs(lit)]
            if lvl > max_level:
                max_level = lvl
        if max_level == 0:
            self.ok = False
            return False
        if max_level < self.decision_level:
            self.cancel_until(max_level)
        learnt, bt_level = self.analyze(confl)
        if self.proof is not None:
            self.proof.learn(tuple(learnt))
        self.cancel_until(bt_level)
        if len(learnt) == 1:
            self._uncheck_enqueue(learnt[0], None)
        else:
            clause = Clause(learnt, learned=True)
            self.learned.append(clause)
            self._bump_clause(clause)
            self._attach(clause)
            self._uncheck_enqueue(learnt[0], clause)
        self.var_inc /= 0.95
        self.cla_inc /= 0.999
        return True

    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: Optional[int] = None,
        on_progress: Optional[Callable[[int], None]] = None,
        deadline: Optional[float] = None,
    ) -> Optional[bool]:
        """Search for a model. Returns True (SAT), False (UNSAT) or None
        if ``max_conflicts`` or the wall-clock ``deadline`` (a
        ``time.perf_counter()`` timestamp, checked at each conflict) was
        exhausted."""
        if not self.ok:
            return False
        # Replay the root-level trail into a freshly reset theory solver.
        if self.theory is not None:
            self.theory.reset()
        self._theory_qhead = 0
        self._theory_dirty = True
        # clauses added since the last solve may reopen a root-parked variable
        self._unpark(0)
        restart_idx = 1
        conflicts_at_restart = self.conflicts
        budget = luby(restart_idx) * 128
        start_conflicts = self.conflicts
        result: Optional[bool] = None
        while result is None:
            confl = self.propagate()
            if confl is None:
                confl = self._theory_sync(final=False)
            if confl is not None:
                if not self._handle_conflict(confl):
                    result = False
                    break
                if max_conflicts is not None and self.conflicts - start_conflicts >= max_conflicts:
                    self.cancel_until(0)
                    return None
                if deadline is not None and time.perf_counter() >= deadline:
                    self.cancel_until(0)
                    return None
                if on_progress is not None:
                    on_progress(self.conflicts)
                if self.conflicts - conflicts_at_restart >= budget:
                    restart_idx += 1
                    conflicts_at_restart = self.conflicts
                    budget = luby(restart_idx) * 128
                    self.restarts += 1
                    self.cancel_until(0)
                if len(self.learned) > 4000 + 8 * len(self.clauses):
                    self._reduce_db()
                continue

            # no conflict: establish assumptions, then decide
            if self.decision_level < len(assumptions):
                lit = assumptions[self.decision_level]
                val = self.value_lit(lit)
                if val == -1:
                    result = False
                    break
                self.trail_lim.append(len(self.trail))
                if self.theory is not None:
                    self.theory.push_level()
                if val == 0:
                    self._uncheck_enqueue(lit, None)
                continue

            v = self._pick_branch_var()
            if v == 0:
                confl = self._theory_sync(final=True)
                if confl is not None:
                    if not self._handle_conflict(confl):
                        result = False
                        break
                    continue
                result = True
                break
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            if self.theory is not None:
                self.theory.push_level()
            if self.theory_phases and self.is_theory[v]:
                phase = self.theory.phase(v)
            else:
                phase = self.saved_phase[v]
            self._uncheck_enqueue(v * phase, None)

        if result is True:
            self._model = [self.values[v] if v else 0 for v in range(self.nvars + 1)]
        self.cancel_until(0)
        return result

    def simplify(self) -> int:
        """Drop clauses satisfied at the root level; keep the rest.

        The incremental push/pop layer disables a popped frame's guard by
        asserting its negation as a root-level unit, which permanently
        satisfies every clause guarded by that frame.  Those clauses (and
        any learned clause that came to mention the dead guard) are dead
        weight on the watchlists; this removes them.  Learned clauses
        *not* satisfied at the root are retained verbatim — they were
        derived from guarded clauses plus theory lemmas, both of which
        remain part of the clause system, so they stay logically implied
        after any number of pops (see DESIGN.md, "Clause retention across
        pops").

        Must be called at decision level 0 (always true between solves).
        Returns the number of clauses removed.
        """
        assert self.decision_level == 0, "simplify only at the root level"
        if not self.ok:
            return 0

        def root_satisfied(clause: Clause) -> bool:
            for lit in clause.lits:
                if self.value_lit(lit) == 1 and self.levels[abs(lit)] == 0:
                    return True
            return False

        locked = {
            id(self.reasons[abs(l)])
            for l in self.trail
            if self.reasons[abs(l)] is not None
        }
        removed: set[int] = set()
        touched: set[int] = set()
        for pool in (self.clauses, self.learned):
            kept: list[Clause] = []
            for c in pool:
                if id(c) not in locked and root_satisfied(c):
                    removed.add(id(c))
                    if not c.learned:
                        touched.update(abs(l) for l in c.lits)
                    if self.proof is not None:
                        self.proof.delete(tuple(c.lits))
                else:
                    kept.append(c)
            pool[:] = kept
        if removed:
            for wl in self.watches.values():
                wl[:] = [c for c in wl if id(c) not in removed]
            for v in touched:
                self.occurs[v] = [c for c in self.occurs[v] if id(c) not in removed]
        self.simplify_removed += len(removed)
        self.learned_retained = len(self.learned)
        return len(removed)

    def _reduce_db(self) -> None:
        self.learned.sort(key=lambda c: c.activity)
        half = len(self.learned) // 2
        locked = {id(self.reasons[abs(l)]) for l in self.trail if self.reasons[abs(l)] is not None}
        keep: list[Clause] = []
        removed: set[int] = set()
        for i, c in enumerate(self.learned):
            if i < half and len(c.lits) > 2 and id(c) not in locked:
                removed.add(id(c))
                if self.proof is not None:
                    self.proof.delete(tuple(c.lits))
            else:
                keep.append(c)
        if not removed:
            return
        self.learned = keep
        for wl in self.watches.values():
            wl[:] = [c for c in wl if id(c) not in removed]

    def model_value(self, var: int) -> bool:
        """Value of a variable in the last SAT model (True/False)."""
        return self._model[var] == 1
