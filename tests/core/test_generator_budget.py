"""Generators honour the CEGIS deadline.

The loop passes its deadline to every proposal, as to every verifier
call.  The SMT generator checks under it, and a proposal that gives up
is reported as a budget stop, never as an exhausted space.
"""

import time

from repro.cegis import CegisLoop, CegisOptions, StopReason
from repro.core import table1_spaces
from repro.core.generator_smt import SmtGenerator
from repro.smt import unknown


def test_smt_propose_checks_under_the_deadline(fast_cfg, monkeypatch):
    gen = SmtGenerator(table1_spaces(3)["no_cwnd_small"], fast_cfg)
    seen = []

    def check(options=None):
        seen.append(options.deadline)
        return unknown

    monkeypatch.setattr(gen.solver, "check", check)
    assert gen.propose(deadline=123.0) is None
    assert gen.propose_batch(2, deadline=124.0) == []
    assert seen == [123.0, 124.0]


class GiveUpGenerator:
    """Proposes nothing once its deadline has passed, like a generator
    whose check came back unknown."""

    def __init__(self):
        self.deadlines = []

    def propose(self, deadline=None):
        self.deadlines.append(deadline)
        while time.perf_counter() <= deadline:
            time.sleep(0.005)
        return None

    def add_counterexample(self, cex):
        pass

    def block(self, candidate):
        pass


class NoVerifier:
    def find_counterexample(self, candidate, worst_case=False, deadline=None):
        raise AssertionError("nothing was proposed")


def test_loop_passes_its_deadline_to_the_generator_and_stops_on_budget():
    gen = GiveUpGenerator()
    start = time.perf_counter()
    outcome = CegisLoop(gen, NoVerifier(), CegisOptions(time_budget=0.05)).run()
    (deadline,) = gen.deadlines
    assert start < deadline <= time.perf_counter()
    assert outcome.stop_reason is StopReason.BUDGET
    assert not outcome.exhausted
