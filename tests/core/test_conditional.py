"""Tests for the conditional (if-then-else) template extension (§4.1).

The guarded template runs through the same verifier, generator and
synthesis driver as the linear one; these tests drive it only through
that shared API."""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.ccac import lossy_environment, multiflow_environment
from repro.cegis import PruningMode
from repro.core import (
    CcacVerifier,
    EnumerativeGenerator,
    SynthesisQuery,
    satisfies_spec,
    synthesize,
)
from repro.core.conditional import (
    ConditionalCCA,
    ConditionalSpec,
    aimd_candidate,
    rocc_conditional,
)
from repro.runtime.errors import SoundnessError
from repro.runtime.validate import validate_counterexample
from tests.core.replay_oracle import simulate_on_trace

#: the small space the synthesis tests search (contains RoCC's branch form)
SYNTH_SPEC = ConditionalSpec(
    threshold_domain=(Fraction(2),),
    mu_domain=(Fraction(0), Fraction(1)),
    delta_domain=(Fraction(0), Fraction(1)),
)


class TestCandidates:
    def test_aimd_is_aimd_shaped(self):
        assert aimd_candidate().is_aimd_shaped()
        assert not rocc_conditional().is_aimd_shaped()

    def test_pretty_renders_both_branches(self):
        s = aimd_candidate().pretty()
        assert "if queue_est" in s and "else" in s

    def test_next_cwnd_branch_selection(self):
        cand = aimd_candidate(threshold=Fraction(2))
        # clear: queue_est = 4 - (10-8) = 2 <= 2 -> additive increase
        w = cand.next_cwnd(Fraction(4), Fraction(10), Fraction(8), Fraction(6), Fraction(0))
        assert w == 5
        # congested: queue_est = 4 - (10-9) = 3 > 2 -> halve
        w = cand.next_cwnd(Fraction(4), Fraction(10), Fraction(9), Fraction(8), Fraction(0))
        assert w == 2

    def test_rocc_conditional_equals_linear_rocc_on_ideal_history(self):
        cand = rocc_conditional()
        # ack history at rate 1: acked over 2 RTTs = 2, +1 -> 3
        w = cand.next_cwnd(Fraction(3), Fraction(10), Fraction(9), Fraction(8), Fraction(0))
        assert w == 3

    def test_spec_contains_and_iterates(self):
        spec = ConditionalSpec()
        cands = list(spec.iterate_candidates())
        assert len(cands) == spec.search_space_size
        assert spec.contains(aimd_candidate(threshold=Fraction(2)))
        assert spec.contains(rocc_conditional())


class TestVerifier:
    def test_rocc_conditional_verified(self, fast_cfg):
        assert CcacVerifier(fast_cfg).verify(rocc_conditional())

    def test_aimd_refuted(self, fast_cfg):
        """The adversary can hide the queue signal (jitter the acks), so
        the self-clocked AIMD guard misfires — the analogue of CCAC's
        findings for delay-signal CCAs like Copa/BBR."""
        res = CcacVerifier(fast_cfg).find_counterexample(aimd_candidate())
        assert not res.verified
        assert res.counterexample.check_environment() == []

    def test_pure_md_refuted(self, fast_cfg):
        shrink = ConditionalCCA(
            Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)
        )
        assert not CcacVerifier(fast_cfg).verify(shrink)

    def test_altered_cwnd_step_breaks_the_rule_check(self, fast_cfg):
        """The independent validator re-derives the guarded rule: a
        counterexample whose cwnd deviates from it at one step — while
        still satisfying every environment constraint — is rejected."""
        cand = aimd_candidate()
        trace = CcacVerifier(fast_cfg).find_counterexample(cand).counterexample
        validate_counterexample(trace, candidate=cand)
        # a step where the sender is not window-limited: lowering its
        # cwnd leaves the eager-sender recurrence (and the environment)
        # intact, so only the rule check can catch it
        slack = [
            t for t in range(1, fast_cfg.T + 1)
            if trace.A[t - 1] > trace.S[t - 1] + trace.cwnd[t]
        ]
        assert slack
        t = slack[0]
        cwnd = list(trace.cwnd)
        cwnd[t] -= Fraction(1, 2)
        altered = replace(trace, cwnd=tuple(cwnd))
        assert altered.check_environment() == []
        with pytest.raises(SoundnessError, match="candidate's rule"):
            validate_counterexample(altered, candidate=cand)

    @pytest.mark.parametrize(
        "env",
        [lossy_environment(buffer=Fraction(2)), multiflow_environment()],
        ids=lambda e: e.key(),
    )
    def test_aimd_refuted_in_environment(self, fast_cfg, env):
        """Lossy and two-flow cells verify the guarded template like the
        linear one: the counterexample is validated against the rule,
        tagged with its environment, and prunes its own candidate."""
        cand = aimd_candidate()
        res = CcacVerifier(fast_cfg, environments=[env]).find_counterexample(cand)
        assert not res.verified
        assert res.environment == env
        validate_counterexample(res.counterexample, candidate=cand)
        assert env.replay_mask(
            [cand.int_rule()], res.counterexample, PruningMode.EXACT
        ) == [False]


class TestGenerator:
    def test_counterexample_filters(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg)
        trace = verifier.find_counterexample(aimd_candidate()).counterexample
        spec = ConditionalSpec(threshold_domain=(Fraction(2),))
        gen = EnumerativeGenerator(spec, fast_cfg)
        before = gen.survivor_count
        gen.add_counterexample(trace)
        assert gen.survivor_count < before
        # the refuted candidate must be gone (it reproduced this trace)
        assert all(
            c.key() != aimd_candidate().key() for c in gen._survivors
        ) or satisfies_spec(
            aimd_candidate(), trace, fast_cfg, PruningMode.RANGE
        )

    @pytest.mark.parametrize("pruning", list(PruningMode), ids=lambda p: p.name)
    def test_refuted_candidate_pruned_by_own_trace(self, fast_cfg, pruning):
        cand = aimd_candidate()
        trace = CcacVerifier(fast_cfg).find_counterexample(cand).counterexample
        spec = ConditionalSpec(threshold_domain=(Fraction(2),))
        gen = EnumerativeGenerator(spec, fast_cfg, pruning)
        assert any(c == cand for c in gen._survivors)
        gen.add_counterexample(trace)
        assert all(c != cand for c in gen._survivors)

    def test_simulation_consistency_with_verifier_trace(self, fast_cfg):
        """Simulating the refuted candidate on its own counterexample
        reproduces the trace's cwnd trajectory (the verifier and the
        numeric semantics agree)."""
        cand = aimd_candidate()
        trace = CcacVerifier(fast_cfg).find_counterexample(cand).counterexample
        cwnd, A = simulate_on_trace(cand, trace, fast_cfg)
        assert tuple(cwnd) == trace.cwnd
        assert tuple(A) == trace.A


class TestSynthesis:
    def test_synthesizes_verified_conditional(self, fast_cfg):
        """The enriched space contains RoCC, so synthesis must find a
        provably correct rule."""
        outcome = synthesize(SynthesisQuery(
            spec=SYNTH_SPEC, cfg=fast_cfg, generator="enum", time_budget=600,
        ))
        assert outcome.solutions
        assert CcacVerifier(fast_cfg).verify(outcome.solutions[0])

    def test_synthesized_rule_is_pinned_and_certifies(self, fast_cfg):
        """CEGIS over the guarded space is deterministic: a pinned
        iteration count and rule, and the rule re-proves with a checked
        UNSAT certificate."""
        outcome = synthesize(SynthesisQuery(
            spec=SYNTH_SPEC, cfg=fast_cfg, generator="enum", time_budget=600,
        ))
        assert outcome.iterations == 8
        sol = outcome.solutions[0]
        assert sol.pretty() == (
            "if queue_est(t) > 2: cwnd = 1 else: cwnd = 1*acked2rtt(t) + 1"
        )
        res = CcacVerifier(fast_cfg, certify=True).find_counterexample(sol)
        assert res.verified and res.certified

    def test_smt_generator_rejects_conditional_space(self, fast_cfg):
        with pytest.raises(ValueError, match="linear template"):
            synthesize(SynthesisQuery(spec=SYNTH_SPEC, cfg=fast_cfg, generator="smt"))
