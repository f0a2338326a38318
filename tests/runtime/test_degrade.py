"""The degradation ladder: recorded weakenings, never silent ones."""

from dataclasses import dataclass

from repro.cegis import BatchVerdict, CegisLoop, StopReason
from repro.runtime import ResilientVerifier


@dataclass
class FakeResult:
    verified: bool = False
    counterexample: object = None
    unknown: bool = False
    degraded: bool = False


class ScriptedVerifier:
    """Returns queued results; records the calls it received."""

    def __init__(self, script):
        self.script = list(script)
        self.seen = []

    def find_counterexample(self, candidate, worst_case=False, deadline=None):
        self.seen.append(worst_case)
        if self.script:
            return self.script.pop(0)
        return FakeResult(verified=True)


class ScriptedBatchVerifier(ScriptedVerifier):
    """A batch-capable base: each round judges the batch's first
    candidate with the next scripted result; a round nobody won carries
    an unknown result."""

    def verify_batch(self, candidates, worst_case=False, deadline=None):
        result = self.find_counterexample(candidates[0], worst_case=worst_case)
        won = not result.unknown
        return BatchVerdict(
            winner=0 if won else None, result=result,
            launched=len(candidates), cancelled=0,
        )


class _SingleEntry:
    """Drives the ladder through ``find_counterexample``."""

    base_cls = ScriptedVerifier

    @staticmethod
    def call(rv, candidate, worst_case=False):
        return rv.find_counterexample(candidate, worst_case=worst_case)


class _BatchEntry:
    """Drives the same ladder through a portfolio round."""

    base_cls = ScriptedBatchVerifier

    @staticmethod
    def call(rv, candidate, worst_case=False):
        return rv.verify_batch([candidate], worst_case=worst_case).result


class TestWorstCaseFallback(_SingleEntry):
    def test_unknown_wce_falls_back_to_plain_search(self):
        base = self.base_cls([
            FakeResult(unknown=True),               # wce attempt
            FakeResult(counterexample="cex"),        # plain retry
        ])
        rv = ResilientVerifier(base)
        result = self.call(rv, "cand", worst_case=True)
        assert result.counterexample == "cex"
        assert result.degraded
        assert base.seen == [True, False]
        assert [d["kind"] for d in rv.degradations] == ["wce_fallback"]

    def test_wce_disabled_after_repeated_failures(self):
        script = []
        for _ in range(3):
            script.append(FakeResult(unknown=True))
            script.append(FakeResult(counterexample="c"))
        base = self.base_cls(script)
        rv = ResilientVerifier(base, wce_fail_limit=3)
        for _ in range(3):
            self.call(rv, "cand", worst_case=True)
        assert "wce_disabled" in [d["kind"] for d in rv.degradations]
        # next worst-case request goes straight to the plain search
        result = self.call(rv, "cand", worst_case=True)
        assert base.seen[-1] is False
        assert result.degraded

    def test_successful_wce_not_degraded(self):
        base = self.base_cls([FakeResult(counterexample="cex")])
        rv = ResilientVerifier(base)
        result = self.call(rv, "cand", worst_case=True)
        assert not result.degraded
        assert rv.degradations == []


class TestWorstCaseFallbackBatch(_BatchEntry, TestWorstCaseFallback):
    pass


class TestBatchSupportMirrorsBase:
    def test_verify_batch_only_over_a_batch_base(self):
        assert not hasattr(ResilientVerifier(ScriptedVerifier([])), "verify_batch")
        assert hasattr(ResilientVerifier(ScriptedBatchVerifier([])), "verify_batch")


class TestDegradeEvents:
    def test_every_step_emits_runtime_degrade(self, recording_sink):
        base = ScriptedVerifier([
            FakeResult(unknown=True),
            FakeResult(counterexample="c"),
        ])
        rv = ResilientVerifier(base)
        rv.find_counterexample("cand", worst_case=True)
        events = recording_sink.events("runtime.degrade")
        assert len(events) == 1
        assert events[0]["attrs"]["kind"] == "wce_fallback"

    def test_loop_over_exhausted_ladder_reports_degraded_stop(self):
        """A run that only terminates because the ladder gave up reports
        StopReason.DEGRADED, not a silent budget stop."""

        class AlwaysUnknown:
            def find_counterexample(self, candidate, worst_case=False, deadline=None):
                return FakeResult(unknown=True)

        class OneCandidate:
            def propose(self):
                return "cand"

            def add_counterexample(self, cex):
                pass

            def block(self, cand):
                pass

        rv = ResilientVerifier(AlwaysUnknown())
        outcome = CegisLoop(OneCandidate(), rv).run()
        assert outcome.stop_reason is StopReason.DEGRADED
        assert not outcome.found
