"""Per-check solver counts (``Solver.checks`` and the metrics registry's
deltas) and deadline aborts."""

import time

import pytest

from repro.obs import metrics
from repro.smt import CheckOptions, Real, Solver, sat, unknown, unsat


def _conflicts() -> int:
    return metrics().snapshot()["counters"].get("smt.conflicts", 0)


def _hard_instance(solver: Solver, n: int = 9, prefix: str = "ph") -> None:
    """A pigeonhole-flavoured instance: n+1 items in n slots (unsat,
    requires real search so deadlines/conflict budgets can bite)."""
    from repro.smt import And, Or

    xs = [[Real(f"{prefix}_{p}_{h}") for h in range(n)] for p in range(n + 1)]
    for p in range(n + 1):
        solver.add(Or(*[And(xs[p][h] >= 1) for h in range(n)]))
        for h in range(n):
            solver.add(xs[p][h] >= 0, xs[p][h] <= 1)
    for h in range(n):
        for p1 in range(n + 1):
            for p2 in range(p1 + 1, n + 1):
                solver.add(xs[p1][h] + xs[p2][h] <= 1)


class TestStatsDeltas:
    def test_cumulative_is_sum_of_deltas(self):
        """Each check adds its own conflict delta to the registry: the
        core's cumulative count moves by exactly the registry's total."""
        s = Solver()
        x, y = Real("sd_x"), Real("sd_y")
        s.add(x >= 1, y >= 2)
        core = s.sat_core
        before, core_before = _conflicts(), core.conflicts
        assert s.check() is sat
        first = _conflicts() - before
        s.add(x + y <= 2)  # now unsat
        assert s.check() is unsat
        second = _conflicts() - before - first
        assert s.checks == 2
        assert core.conflicts - core_before == first + second

    def test_two_instances_do_not_share_stats(self):
        a, b = Solver(), Solver()
        x = Real("sd_two")
        a.add(x >= 1)
        a.check()
        assert b.checks == 0
        b.add(x >= 1)
        b.check()
        assert a.checks == 1 and b.checks == 1


class TestDeadline:
    def test_expired_deadline_returns_unknown(self):
        s = Solver()
        _hard_instance(s, n=8, prefix="dl1")
        assert s.check(CheckOptions(deadline=time.perf_counter())) is unknown

    def test_generous_deadline_solves(self):
        s = Solver()
        x = Real("dl_easy")
        s.add(x >= 1)
        assert s.check(CheckOptions(deadline=time.perf_counter() + 60.0)) is sat

    def test_max_conflicts_still_works(self):
        s = Solver()
        _hard_instance(s, n=8, prefix="dl2")
        assert s.check(CheckOptions(max_conflicts=1)) is unknown

    def test_unknown_is_never_cached(self):
        stored = []

        class Recorder:
            def lookup(self, key):
                return None

            def store(self, key, result, model):
                stored.append(result)

        s = Solver(cache=Recorder())
        _hard_instance(s, n=8, prefix="dl4")
        assert s.check(CheckOptions(max_conflicts=1)) is unknown
        assert stored == []

    def test_legacy_kwargs_removed(self):
        # the 1.x deprecation shim was deleted in 2.0: the keyword form
        # is a hard TypeError now
        s = Solver()
        _hard_instance(s, n=8, prefix="dl3")
        with pytest.raises(TypeError):
            s.check(max_conflicts=1)
