"""Tests of the generic CEGIS loop on a small toy domain.

Toy problem: synthesize integer parameters (a, b) of f(x) = a*x + b such
that for all x in [0, 10], lo(x) <= f(x) <= hi(x).  The verifier checks
candidate functions by scanning the domain; the generator filters an
explicit candidate set — i.e. the same architecture as CCmatic, but cheap
enough to exercise every loop behaviour (first-solution, find-all,
exhaustion, iteration budget, time budget).
"""

from dataclasses import dataclass

from repro.cegis import CegisLoop, CegisOptions, PruningMode, StopReason


@dataclass(frozen=True)
class LineCandidate:
    a: int
    b: int

    def __call__(self, x: int) -> int:
        return self.a * x + self.b


@dataclass
class ToyResult:
    verified: bool
    counterexample: object
    certified: bool = False


class ToyVerifier:
    """f must satisfy x <= f(x) <= 2x + 3 on 0..10."""

    def __init__(self):
        self.calls = 0

    def find_counterexample(
        self, cand: LineCandidate, worst_case: bool = False, deadline=None
    ):
        self.calls += 1
        xs = range(0, 11)
        if worst_case:
            # pick the x with the largest violation (prunes more)
            worst, worst_gap = None, 0
            for x in xs:
                gap = max(x - cand(x), cand(x) - (2 * x + 3), 0)
                if gap > worst_gap:
                    worst, worst_gap = x, gap
            return ToyResult(worst is None, worst)
        for x in xs:
            if not (x <= cand(x) <= 2 * x + 3):
                return ToyResult(False, x)
        return ToyResult(True, None)


class ToyGenerator:
    def __init__(self, lo=-3, hi=3):
        self.survivors = [
            LineCandidate(a, b) for a in range(lo, hi + 1) for b in range(lo, hi + 1)
        ]

    def propose(self, deadline=None):
        return self.survivors[0] if self.survivors else None

    def add_counterexample(self, x: int) -> None:
        self.survivors = [c for c in self.survivors if x <= c(x) <= 2 * x + 3]

    def block(self, cand) -> None:
        self.survivors = [c for c in self.survivors if c != cand]


def true_solutions():
    out = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            if all(x <= a * x + b <= 2 * x + 3 for x in range(11)):
                out.add((a, b))
    return out


class TestLoopBehaviours:
    def test_finds_first_solution(self):
        outcome = CegisLoop(ToyGenerator(), ToyVerifier()).run()
        assert outcome.found
        c = outcome.first
        assert all(x <= c(x) <= 2 * x + 3 for x in range(11))

    def test_find_all_matches_ground_truth(self):
        outcome = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(find_all=True)
        ).run()
        assert outcome.exhausted
        assert {(c.a, c.b) for c in outcome.solutions} == true_solutions()

    def test_exhaustion_when_no_solution(self):
        gen = ToyGenerator(lo=-3, hi=-1)  # all-negative slopes can't work
        outcome = CegisLoop(gen, ToyVerifier()).run()
        assert not outcome.found
        assert outcome.exhausted

    def test_max_iterations_respected(self):
        outcome = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(max_iterations=2)
        ).run()
        assert outcome.stats.iterations <= 2

    def test_stats_consistency(self):
        verifier = ToyVerifier()
        outcome = CegisLoop(ToyGenerator(), verifier).run()
        assert outcome.stats.verifier_calls == verifier.calls
        assert outcome.stats.counterexamples == outcome.stats.iterations - len(
            outcome.solutions
        )

    def test_worst_case_cex_not_slower_in_iterations(self):
        plain = CegisLoop(ToyGenerator(), ToyVerifier()).run()
        wce = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(worst_case_cex=True)
        ).run()
        assert wce.found and plain.found
        assert wce.stats.iterations <= plain.stats.iterations * 2

    def test_pruning_mode_enum(self):
        assert PruningMode("exact") is PruningMode.EXACT
        assert PruningMode("range") is PruningMode.RANGE


class UnknownResult:
    verified = False
    counterexample = None

    def __init__(self, degraded=False):
        self.unknown = True
        self.degraded = degraded


class TestStopReasons:
    """Every exit path sets an explicit StopReason."""

    def test_solution(self):
        outcome = CegisLoop(ToyGenerator(), ToyVerifier()).run()
        assert outcome.stop_reason is StopReason.SOLUTION

    def test_exhausted(self):
        gen = ToyGenerator(lo=-3, hi=-1)
        outcome = CegisLoop(gen, ToyVerifier()).run()
        assert outcome.stop_reason is StopReason.EXHAUSTED

    def test_find_all_runs_to_exhaustion(self):
        outcome = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(find_all=True)
        ).run()
        assert outcome.stop_reason is StopReason.EXHAUSTED

    def test_max_iterations(self):
        outcome = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(max_iterations=2)
        ).run()
        assert outcome.stop_reason is StopReason.MAX_ITERATIONS

    def test_time_budget(self):
        class SlowVerifier(ToyVerifier):
            def find_counterexample(self, cand, worst_case=False, deadline=None):
                import time

                time.sleep(0.02)
                return super().find_counterexample(cand, worst_case)

        outcome = CegisLoop(
            ToyGenerator(lo=-3, hi=-1), SlowVerifier(),
            CegisOptions(time_budget=0.01),
        ).run()
        assert outcome.stop_reason is StopReason.BUDGET
        assert outcome.timed_out

    def test_verifier_unknown_maps_to_budget(self):
        class GiveUpVerifier:
            def find_counterexample(self, cand, worst_case=False, deadline=None):
                return UnknownResult()

        outcome = CegisLoop(ToyGenerator(), GiveUpVerifier()).run()
        assert outcome.stop_reason is StopReason.BUDGET
        assert not outcome.found

    def test_degraded_unknown_maps_to_degraded(self):
        class DegradedVerifier:
            def find_counterexample(self, cand, worst_case=False, deadline=None):
                return UnknownResult(degraded=True)

        outcome = CegisLoop(ToyGenerator(), DegradedVerifier()).run()
        assert outcome.stop_reason is StopReason.DEGRADED
        assert outcome.timed_out


class DictCheckpoint:
    """Minimal in-memory implementation of the CegisCheckpoint protocol."""

    def __init__(self):
        self.state = None
        self.saves = 0

    def load(self):
        return self.state

    def save(self, *, stats, solutions, counterexamples, blocked, stop_reason=None):
        from types import SimpleNamespace

        self.saves += 1
        self.state = SimpleNamespace(
            stats={
                "iterations": stats.iterations,
                "counterexamples": stats.counterexamples,
                "generator_time": stats.generator_time,
                "verifier_time": stats.verifier_time,
                "verifier_calls": stats.verifier_calls,
            },
            solutions=list(solutions),
            counterexamples=list(counterexamples),
            blocked=list(blocked),
            stop_reason=stop_reason,
        )


class TestLoopCheckpointing:
    def test_saved_every_iteration_plus_final(self):
        ck = DictCheckpoint()
        outcome = CegisLoop(ToyGenerator(), ToyVerifier(), checkpoint=ck).run()
        # one save per completed iteration; the breaking iteration is
        # covered by the final save that also records the stop reason
        assert ck.saves == outcome.stats.iterations
        assert ck.state.stop_reason == "solution"

    def test_resume_from_partial_state_matches_uninterrupted(self):
        full = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(find_all=True)
        ).run()

        # run a few iterations, drop the final stop_reason to simulate a
        # kill mid-run, then resume into fresh generator/loop objects
        ck = DictCheckpoint()
        CegisLoop(
            ToyGenerator(), ToyVerifier(),
            CegisOptions(find_all=True, max_iterations=4),
            checkpoint=ck,
        ).run()
        ck.state.stop_reason = None
        resumed = CegisLoop(
            ToyGenerator(), ToyVerifier(), CegisOptions(find_all=True),
            checkpoint=ck,
        ).run()
        assert resumed.resumed
        assert {(c.a, c.b) for c in resumed.solutions} == {
            (c.a, c.b) for c in full.solutions
        }
        assert resumed.stats.iterations == full.stats.iterations
        assert resumed.stop_reason is full.stop_reason

    def test_resume_of_complete_run_is_idempotent(self):
        ck = DictCheckpoint()
        first = CegisLoop(ToyGenerator(), ToyVerifier(), checkpoint=ck).run()
        verifier = ToyVerifier()
        again = CegisLoop(ToyGenerator(), verifier, checkpoint=ck).run()
        assert verifier.calls == 0  # no new search
        assert again.resumed
        assert again.stop_reason is first.stop_reason
        assert {(c.a, c.b) for c in again.solutions} == {
            (c.a, c.b) for c in first.solutions
        }
