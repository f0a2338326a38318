"""Observability of the CEGIS loop: event sequences and the
time-budget deadline plumbing."""

import io
import json
import time

from repro.cegis import CegisLoop, CegisOptions, StopReason
from repro.obs import JsonlSink, tracer

from tests.cegis.test_loop import ToyGenerator, ToyVerifier


def run_traced(generator, verifier, options=None):
    """Run a loop with a temporary JSONL sink on the global tracer."""
    tr = tracer()
    buf = io.StringIO()
    sink = tr.add_sink(JsonlSink(buf))
    try:
        outcome = CegisLoop(generator, verifier, options).run()
    finally:
        tr.remove_sink(sink)
    records = [json.loads(line) for line in buf.getvalue().splitlines()]
    return outcome, records


def event_names(records):
    return [r["name"] for r in records if r["type"] == "event"]


class TestEventSequence:
    def test_propose_cex_solution_done(self):
        outcome, records = run_traced(ToyGenerator(), ToyVerifier())
        assert outcome.found
        names = event_names(records)
        # shape: propose -> cex -> propose -> cex -> ... -> solution -> done
        assert names[0] == "cegis.propose"
        assert names[-2:] == ["cegis.solution", "cegis.done"]
        body = names[1:-2]
        assert body.count("cegis.counterexample") == outcome.stats.counterexamples
        # every counterexample is preceded by its proposal
        for i, n in enumerate(names[:-2]):
            if n == "cegis.counterexample":
                assert names[i - 1] == "cegis.propose"

    def test_done_event_carries_stats(self):
        outcome, records = run_traced(ToyGenerator(), ToyVerifier())
        done = [r for r in records if r["type"] == "event" and r["name"] == "cegis.done"]
        assert len(done) == 1
        attrs = done[0]["attrs"]
        assert attrs["iterations"] == outcome.stats.iterations
        assert attrs["counterexamples"] == outcome.stats.counterexamples
        assert attrs["solutions"] == len(outcome.solutions)

    def test_exhaustion_event(self):
        gen = ToyGenerator(lo=-3, hi=-1)  # no valid candidates
        outcome, records = run_traced(gen, ToyVerifier())
        assert outcome.exhausted
        assert "cegis.exhausted" in event_names(records)

    def test_span_totals_agree_with_stats(self):
        outcome, records = run_traced(ToyGenerator(), ToyVerifier())
        stats = outcome.stats
        gen_total = sum(
            r["dur"] for r in records
            if r["type"] == "span" and r["name"] in ("cegis.generate", "cegis.prune")
        )
        ver_total = sum(
            r["dur"] for r in records
            if r["type"] == "span" and r["name"] == "cegis.verify"
        )
        # set_duration stamps the spans with the loop's own measurements
        assert abs(gen_total - stats.generator_time) <= 0.05 * max(stats.generator_time, 1e-9)
        assert abs(ver_total - stats.verifier_time) <= 0.05 * max(stats.verifier_time, 1e-9)

    def test_no_sink_no_output(self, capsys):
        outcome = CegisLoop(ToyGenerator(), ToyVerifier()).run()
        assert outcome.found
        assert capsys.readouterr().out == ""


class SlowDeadlineVerifier(ToyVerifier):
    """Records the deadline it was handed; honours it like the SMT
    verifier does (inconclusive result once the deadline passes)."""

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.delay = delay
        self.deadlines: list = []

    def find_counterexample(self, cand, worst_case=False, deadline=None):
        self.deadlines.append(deadline)
        if self.delay:
            time.sleep(self.delay)
        if deadline is not None and time.perf_counter() >= deadline:
            class Inconclusive:
                verified = False
                counterexample = None
                unknown = True
            return Inconclusive()
        return super().find_counterexample(cand, worst_case)


class TestTimeBudget:
    def test_deadline_threaded_into_verifier(self):
        verifier = SlowDeadlineVerifier()
        t0 = time.perf_counter()
        CegisLoop(
            ToyGenerator(), verifier, CegisOptions(time_budget=30.0)
        ).run()
        assert verifier.deadlines, "verifier never called"
        for d in verifier.deadlines:
            assert d is not None
            assert 0 < d - t0 <= 31.0

    def test_no_budget_no_deadline(self):
        verifier = SlowDeadlineVerifier()
        CegisLoop(ToyGenerator(), verifier).run()
        assert all(d is None for d in verifier.deadlines)

    def test_long_verifier_call_stops_loop_with_event(self):
        verifier = SlowDeadlineVerifier(delay=0.05)
        outcome, records = run_traced(
            ToyGenerator(), verifier, CegisOptions(time_budget=0.02)
        )
        assert outcome.timed_out
        assert not outcome.found
        # the first verifier call blew the budget; the loop must not
        # have kept iterating afterwards
        assert outcome.stats.iterations == 1
        events = [
            r for r in records
            if r["type"] == "event" and r["name"] == "cegis.budget_exhausted"
        ]
        assert len(events) == 1
        assert events[0]["attrs"]["where"] == "verifier"


class SlowPruneGenerator(ToyGenerator):
    """A generator whose pruning takes measurable time."""

    DELAY = 0.02

    def add_counterexample(self, x: int) -> None:
        time.sleep(self.DELAY)
        super().add_counterexample(x)


class TestPruneTime:
    def test_pruning_counts_as_generator_time(self):
        outcome, records = run_traced(SlowPruneGenerator(), ToyVerifier())
        stats = outcome.stats
        assert outcome.found and stats.counterexamples >= 1
        assert stats.generator_time >= SlowPruneGenerator.DELAY * stats.counterexamples
        prunes = [
            r for r in records
            if r["type"] == "span" and r["name"] == "cegis.prune"
        ]
        assert len(prunes) == stats.counterexamples
        assert all(r["dur"] >= SlowPruneGenerator.DELAY for r in prunes)


class GaveUp:
    """A degraded unknown, as the portfolio's ladder flags every
    ``unknown`` it returns."""

    verified = False
    counterexample = None
    unknown = True
    degraded = True


class GivingUpVerifier(ToyVerifier):
    """Answers a degraded ``unknown`` after ``delay`` seconds."""

    def __init__(self, delay: float = 0.0):
        super().__init__()
        self.delay = delay

    def find_counterexample(self, cand, worst_case=False, deadline=None):
        time.sleep(self.delay)
        return GaveUp()


class TestStopReason:
    def test_unknown_after_deadline_is_budget(self):
        verifier = GivingUpVerifier(delay=0.05)
        outcome = CegisLoop(
            ToyGenerator(), verifier, CegisOptions(time_budget=0.02)
        ).run()
        assert outcome.stats.iterations == 1
        assert outcome.stop_reason is StopReason.BUDGET

    def test_unknown_before_deadline_is_degraded(self):
        verifier = GivingUpVerifier()
        outcome = CegisLoop(
            ToyGenerator(), verifier, CegisOptions(time_budget=30.0)
        ).run()
        assert outcome.stop_reason is StopReason.DEGRADED
