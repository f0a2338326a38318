"""The degradation ladder of :class:`PortfolioVerifier`: recorded
weakenings, never silent ones.

The pool is a scripted in-process fake with the ``run_batch`` shape of
:class:`repro.service.pool.WorkerPool`, so the ladder runs exactly as
in a pooled run without forking a worker.
"""

import time
from dataclasses import replace

from repro.cegis import CegisLoop, StopReason
from repro.core.verifier import CcacVerifier, VerificationResult
from repro.engine.portfolio import PortfolioOutcome, PortfolioVerifier
from repro.runtime import run_synthesis
from repro.runtime.workers import WorkerLimits, WorkerReport

#: a scripted round whose worker was killed by the watchdog
KILLED = "timeout"


class Cand:
    """The candidate of every scripted round."""

    def key(self):
        return "cand"

    def __str__(self):
        return "cand"


def make_result(candidate, verified=False, counterexample=None, unknown=False):
    return VerificationResult(
        candidate=candidate, verified=verified, counterexample=counterexample,
        wall_time=0.0, solver_checks=0, unknown=unknown,
    )


class ScriptedPool:
    """Judges each round's first task with the next scripted entry (the
    keyword arguments of a result, or :data:`KILLED`) and records the
    ``worst_case`` flag of every task it received."""

    def __init__(self, script):
        self.script = list(script)
        self.seen = []

    def run_batch(self, tasks, accept=None, wall_time=None):
        _fn, args = tasks[0]
        candidate, worst_case = args[1], args[2]
        self.seen.append(worst_case)
        entry = self.script.pop(0) if self.script else {"verified": True}
        if entry == KILLED:
            report = WorkerReport(status=KILLED, detail="watchdog")
            return PortfolioOutcome(
                winner=None, result=None, cancelled=[], reports={0: report},
            )
        result = make_result(candidate, **entry)
        won = accept(result)
        return PortfolioOutcome(
            winner=0 if won else None,
            result=result if won else None,
            cancelled=[],
            reports={0: WorkerReport(status="ok", result=result)},
        )


def portfolio(script, retries=1):
    pool = ScriptedPool(script)
    limits = WorkerLimits(retries=retries, backoff_base=0.0)
    return PortfolioVerifier(None, pool, limits=limits), pool


class _SingleEntry:
    """Drives the ladder through ``find_counterexample``."""

    @staticmethod
    def call(pv, candidate, worst_case=False):
        return pv.find_counterexample(candidate, worst_case=worst_case)


class _BatchEntry:
    """Drives the same ladder through a portfolio round."""

    @staticmethod
    def call(pv, candidate, worst_case=False):
        return pv.verify_batch([candidate], worst_case=worst_case).result


class TestWorstCaseFallback(_SingleEntry):
    def test_unknown_wce_falls_back_to_plain_search(self):
        pv, pool = portfolio([
            {"unknown": True},               # wce attempt
            {"counterexample": "cex"},       # plain retry
        ])
        result = self.call(pv, Cand(), worst_case=True)
        assert result.counterexample == "cex"
        assert result.degraded
        assert pool.seen == [True, False]
        assert [d["kind"] for d in pv.degradations] == ["wce_fallback"]

    def test_wce_disabled_after_repeated_failures(self):
        script = []
        for _ in range(3):
            script.append({"unknown": True})
            script.append({"counterexample": "c"})
        pv, pool = portfolio(script)
        for _ in range(3):
            self.call(pv, Cand(), worst_case=True)
        assert PortfolioVerifier.WCE_FAIL_LIMIT == 3
        assert "wce_disabled" in [d["kind"] for d in pv.degradations]
        # next worst-case request goes straight to the plain search
        result = self.call(pv, Cand(), worst_case=True)
        assert pool.seen[-1] is False
        assert result.degraded

    def test_successful_wce_not_degraded(self):
        pv, _pool = portfolio([{"counterexample": "cex"}])
        result = self.call(pv, Cand(), worst_case=True)
        assert not result.degraded
        assert pv.degradations == []

    def test_spent_kill_retries_fall_back_to_plain_search(self):
        """A worst-case call whose every retry was killed runs once more
        as plain search, under the same kill/retry policy."""
        pv, pool = portfolio(
            [KILLED, KILLED, {"counterexample": "cex"}], retries=1,
        )
        result = self.call(pv, Cand(), worst_case=True)
        assert result.counterexample == "cex"
        assert result.degraded
        assert pool.seen == [True, True, False]
        assert [d["kind"] for d in pv.degradations] == [
            "worker_killed", "worker_killed", "wce_fallback",
        ]

    def test_plain_unknown_is_degraded_without_fallback(self):
        pv, pool = portfolio([{"unknown": True}])
        result = self.call(pv, Cand(), worst_case=False)
        assert result.unknown and result.degraded
        assert pool.seen == [False]
        assert pv.degradations == []


class TestWorstCaseFallbackBatch(_BatchEntry, TestWorstCaseFallback):
    pass


class TestExpiredDeadline:
    def test_wce_call_past_deadline_records_no_fallback(self):
        """A pooled worst-case call made after its deadline starts no
        worker, so it records no fallback and counts none toward
        ``WCE_FAIL_LIMIT``; its result is a degraded unknown."""
        pv, pool = portfolio([{"counterexample": "cex"}])
        verdict = pv.verify_batch(
            [Cand()], worst_case=True, deadline=time.perf_counter() - 1
        )
        assert pool.seen == []
        assert pv.degradations == []
        assert verdict.result.unknown and verdict.result.degraded


class TestDegradeEvents:
    def test_every_step_emits_runtime_degrade(self, recording_sink):
        pv, _pool = portfolio([
            {"unknown": True},
            {"counterexample": "c"},
        ])
        pv.find_counterexample(Cand(), worst_case=True)
        events = recording_sink.events("runtime.degrade")
        assert len(events) == 1
        assert events[0]["attrs"]["kind"] == "wce_fallback"

    def test_loop_over_exhausted_ladder_reports_degraded_stop(self):
        """A run that only terminates because the ladder gave up reports
        StopReason.DEGRADED, not a silent budget stop."""

        class OneCandidate:
            def propose(self, deadline=None):
                return Cand()

            def add_counterexample(self, cex):
                pass

            def block(self, cand):
                pass

        pv, _pool = portfolio([{"unknown": True}] * 4)
        outcome = CegisLoop(OneCandidate(), pv).run()
        assert outcome.stop_reason is StopReason.DEGRADED
        assert not outcome.found


class TestInProcessRun:
    def test_wce_call_past_deadline_starts_no_further_call(
        self, tiny_query, monkeypatch
    ):
        """An in-process worst-case call that comes back ``unknown`` past
        the CEGIS deadline ends the run: no plain-search call is started
        after the budget, and no ``wce_fallback`` is recorded."""
        calls = []

        def overrunning_search(self, candidate, worst_case=False, deadline=None):
            calls.append((worst_case, time.perf_counter(), deadline))
            while time.perf_counter() <= deadline:
                time.sleep(0.005)
            return make_result(candidate, unknown=True)

        monkeypatch.setattr(
            CcacVerifier, "find_counterexample", overrunning_search
        )
        query = replace(tiny_query, worst_case_cex=True, time_budget=0.5)
        result = run_synthesis(query)
        assert [wce for wce, _start, _deadline in calls] == [True]
        assert all(start <= deadline for _wce, start, deadline in calls)
        assert [d["kind"] for d in result.degradations] == []
        assert result.stop_reason is StopReason.BUDGET
