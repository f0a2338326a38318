"""Generator tests, including the SMT-vs-enumerative differential check:
both implement the same finite CSP, so on identical counterexample sets
they must agree on which candidates survive."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.cegis import PruningMode
from repro.core import (
    CandidateCCA,
    CcacVerifier,
    EnumerativeGenerator,
    SMALL_DOMAIN,
    SmtGenerator,
    TemplateSpec,
    constant_cwnd,
    satisfies_spec,
)
from tests.core.replay_oracle import simulate_on_trace


@pytest.fixture
def tiny_spec(fast_cfg):
    return TemplateSpec(
        history=fast_cfg.history, use_cwnd_history=False, coeff_domain=SMALL_DOMAIN
    )


@pytest.fixture
def one_trace(fast_cfg):
    """A concrete counterexample trace to seed generators with."""
    res = CcacVerifier(fast_cfg).find_counterexample(
        constant_cwnd(1, fast_cfg.history), worst_case=True
    )
    assert not res.verified
    return res.counterexample


class TestSimulation:
    def test_trajectories_shape(self, fast_cfg, one_trace):
        cand = constant_cwnd(1, fast_cfg.history)
        cwnd, A = simulate_on_trace(cand, one_trace, fast_cfg)
        assert len(cwnd) == fast_cfg.T + 1
        assert len(A) == fast_cfg.T + 1
        assert all(A[t] >= A[t - 1] for t in range(1, fast_cfg.T + 1))

    def test_original_candidate_is_infeasible_or_fails(self, fast_cfg, one_trace):
        """sigma must be False for the candidate the trace was built from
        (that's what makes it a counterexample under exact pruning)."""
        cand = constant_cwnd(1, fast_cfg.history)
        assert not satisfies_spec(cand, one_trace, fast_cfg, PruningMode.EXACT)

    def test_exact_implies_range_elimination(self, fast_cfg, one_trace, tiny_spec):
        """Range pruning eliminates a superset of what exact pruning
        eliminates."""
        for cand in tiny_spec.iterate_candidates():
            if not satisfies_spec(cand, one_trace, fast_cfg, PruningMode.EXACT):
                assert not satisfies_spec(cand, one_trace, fast_cfg, PruningMode.RANGE)


class TestEnumerativeGenerator:
    def test_initial_proposal(self, fast_cfg, tiny_spec):
        gen = EnumerativeGenerator(tiny_spec, fast_cfg)
        assert gen.propose() is not None
        assert gen.survivor_count == tiny_spec.search_space_size

    def test_counterexample_shrinks_survivors(self, fast_cfg, tiny_spec, one_trace):
        gen = EnumerativeGenerator(tiny_spec, fast_cfg, PruningMode.RANGE)
        before = gen.survivor_count
        gen.add_counterexample(one_trace)
        assert gen.survivor_count < before

    def test_range_prunes_more_than_exact(self, fast_cfg, tiny_spec, one_trace):
        g_exact = EnumerativeGenerator(tiny_spec, fast_cfg, PruningMode.EXACT)
        g_range = EnumerativeGenerator(tiny_spec, fast_cfg, PruningMode.RANGE)
        g_exact.add_counterexample(one_trace)
        g_range.add_counterexample(one_trace)
        assert g_range.survivor_count <= g_exact.survivor_count

    def test_block_removes_candidate(self, fast_cfg, tiny_spec):
        gen = EnumerativeGenerator(tiny_spec, fast_cfg)
        cand = gen.propose()
        gen.block(cand)
        assert gen.survivor_count == tiny_spec.search_space_size - 1
        nxt = gen.propose()
        assert nxt is None or nxt.key() != cand.key()

    def test_space_too_large_rejected(self, fast_cfg):
        from repro.core import LARGE_DOMAIN

        huge = TemplateSpec(history=4, use_cwnd_history=True, coeff_domain=LARGE_DOMAIN)
        with pytest.raises(ValueError):
            EnumerativeGenerator(huge, fast_cfg)


class TestSmtGenerator:
    def test_initial_proposal_in_space(self, fast_cfg, tiny_spec):
        gen = SmtGenerator(tiny_spec, fast_cfg)
        cand = gen.propose()
        assert cand is not None
        assert tiny_spec.contains(cand)

    def test_proposal_respects_counterexample(self, fast_cfg, tiny_spec, one_trace):
        gen = SmtGenerator(tiny_spec, fast_cfg, PruningMode.RANGE)
        gen.add_counterexample(one_trace)
        cand = gen.propose()
        assert cand is not None
        assert satisfies_spec(cand, one_trace, fast_cfg, PruningMode.RANGE)

    def test_blocking_exhausts_space(self, fast_cfg):
        spec = TemplateSpec(history=3, use_cwnd_history=False,
                            coeff_domain=(Fraction(0), Fraction(1)),
                            const_domain=(Fraction(0),))
        gen = SmtGenerator(spec, fast_cfg)
        seen = set()
        while True:
            cand = gen.propose()
            if cand is None:
                break
            assert cand.key() not in seen
            seen.add(cand.key())
            gen.block(cand)
        assert len(seen) == spec.search_space_size

    def test_differential_vs_enum(self, fast_cfg, tiny_spec, one_trace):
        """The SMT generator's proposal must be a survivor of the
        enumerative generator under the same counterexamples, in both
        pruning modes."""
        for mode in (PruningMode.EXACT, PruningMode.RANGE):
            g_enum = EnumerativeGenerator(tiny_spec, fast_cfg, mode)
            g_smt = SmtGenerator(tiny_spec, fast_cfg, mode)
            g_enum.add_counterexample(one_trace)
            g_smt.add_counterexample(one_trace)
            survivors = {c.key() for c in g_enum._survivors}
            cand = g_smt.propose()
            assert cand is not None
            assert cand.key() in survivors, f"mode={mode}: SMT proposed a non-survivor"

    def test_differential_exhaustive_tiny(self, fast_cfg, one_trace):
        """On a space small enough to enumerate both ways, the SMT
        generator (with blocking) must produce exactly the enumerative
        survivor set."""
        spec = TemplateSpec(
            history=fast_cfg.history,
            use_cwnd_history=False,
            coeff_domain=(Fraction(-1), Fraction(1)),
            const_domain=(Fraction(1),),
        )
        g_enum = EnumerativeGenerator(spec, fast_cfg, PruningMode.RANGE)
        g_enum.add_counterexample(one_trace)
        expected = {c.key() for c in g_enum._survivors}

        g_smt = SmtGenerator(spec, fast_cfg, PruningMode.RANGE)
        g_smt.add_counterexample(one_trace)
        got = set()
        while True:
            cand = g_smt.propose()
            if cand is None:
                break
            got.add(cand.key())
            g_smt.block(cand)
        assert got == expected


class TestCwndModeGenerator:
    """The alpha-product case-split (the paper's ite linearization) only
    activates with cwnd history enabled; exercise it against the oracle."""

    def test_smt_differential_with_alpha_terms(self, fast_cfg, one_trace):
        spec = TemplateSpec(
            history=fast_cfg.history,
            use_cwnd_history=True,
            coeff_domain=(Fraction(0), Fraction(1)),
            const_domain=(Fraction(0), Fraction(1)),
        )
        g_enum = EnumerativeGenerator(spec, fast_cfg, PruningMode.RANGE)
        g_smt = SmtGenerator(spec, fast_cfg, PruningMode.RANGE)
        g_enum.add_counterexample(one_trace)
        g_smt.add_counterexample(one_trace)
        survivors = {c.key() for c in g_enum._survivors}
        cand = g_smt.propose()
        assert cand is not None
        assert cand.key() in survivors

    def test_smt_enumeration_matches_oracle_with_alphas(self, fast_cfg, one_trace):
        spec = TemplateSpec(
            history=fast_cfg.history,
            use_cwnd_history=True,
            coeff_domain=(Fraction(-1), Fraction(1)),
            const_domain=(Fraction(1),),
        )
        g_enum = EnumerativeGenerator(spec, fast_cfg, PruningMode.RANGE)
        g_enum.add_counterexample(one_trace)
        expected = {c.key() for c in g_enum._survivors}

        g_smt = SmtGenerator(spec, fast_cfg, PruningMode.RANGE)
        g_smt.add_counterexample(one_trace)
        got = set()
        while True:
            cand = g_smt.propose()
            if cand is None:
                break
            got.add(cand.key())
            g_smt.block(cand)
        assert got == expected

    def test_alpha_rule_verifier_roundtrip(self, fast_cfg):
        """A pure-EWMA rule (cwnd = cwnd(t-1), no drive) pins at its
        initial value; it cannot guarantee utilization and must be
        refuted — through the alpha code path of the verifier."""
        h = fast_cfg.history
        alphas = [Fraction(0)] * h
        alphas[0] = Fraction(1)
        cand = CandidateCCA(tuple(alphas), (Fraction(0),) * h, Fraction(0))
        res = CcacVerifier(fast_cfg).find_counterexample(cand)
        assert not res.verified
        assert res.counterexample.check_environment() == []
