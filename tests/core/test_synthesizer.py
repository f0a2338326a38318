"""End-to-end synthesis tests (scaled-down versions of the paper's runs)."""

from fractions import Fraction

import pytest

from repro.cegis import PruningMode
from repro.core import (
    CcacVerifier,
    SMALL_DOMAIN,
    SynthesisQuery,
    TemplateSpec,
    brute_force,
    enumerate_all,
    is_rocc_family,
    synthesize,
    table1_spaces,
)
from repro.core.conditional import ConditionalSpec


@pytest.fixture
def tiny_spec(fast_cfg):
    """A deliberately small space that still contains RoCC variants."""
    return TemplateSpec(
        history=fast_cfg.history,
        use_cwnd_history=False,
        coeff_domain=(Fraction(-1), Fraction(0), Fraction(1)),
        const_domain=(Fraction(0), Fraction(1)),
    )


class TestSynthesize:
    def test_finds_verified_solution(self, fast_cfg, tiny_spec):
        query = SynthesisQuery(
            spec=tiny_spec, cfg=fast_cfg, pruning=PruningMode.RANGE,
            worst_case_cex=True, generator="enum",
        )
        result = synthesize(query)
        assert result.found
        # independently re-verify the synthesized rule
        assert CcacVerifier(fast_cfg).verify(result.first)

    def test_solution_is_telescoping(self, fast_cfg, tiny_spec):
        query = SynthesisQuery(
            spec=tiny_spec, cfg=fast_cfg, generator="enum", worst_case_cex=True
        )
        result = synthesize(query)
        assert result.found
        assert sum(result.first.betas, Fraction(0)) == 0

    def test_smt_generator_agrees(self, fast_cfg, tiny_spec):
        query = SynthesisQuery(
            spec=tiny_spec, cfg=fast_cfg, generator="smt", worst_case_cex=True
        )
        result = synthesize(query)
        assert result.found
        assert CcacVerifier(fast_cfg).verify(result.first)

    def test_iteration_budget(self, fast_cfg, tiny_spec):
        query = SynthesisQuery(
            spec=tiny_spec, cfg=fast_cfg, generator="enum", max_iterations=1
        )
        result = synthesize(query)
        assert result.iterations <= 1

    def test_unsatisfiable_thresholds_exhaust(self, fast_cfg):
        """At 100% utilization demanded under jitter, nothing survives."""
        cfg = fast_cfg.with_thresholds(util=Fraction(1), delay=Fraction(1, 10))
        spec = TemplateSpec(
            history=cfg.history, use_cwnd_history=False,
            coeff_domain=(Fraction(0), Fraction(1)), const_domain=(Fraction(0), Fraction(1)),
        )
        query = SynthesisQuery(spec=spec, cfg=cfg, generator="enum")
        result = synthesize(query)
        assert not result.found
        assert result.exhausted


class TestEnumerateAll:
    def test_all_solutions_verified_and_complete(self, fast_cfg, tiny_spec):
        query = SynthesisQuery(
            spec=tiny_spec, cfg=fast_cfg, generator="enum", worst_case_cex=True
        )
        result = enumerate_all(query)
        assert result.exhausted
        v = CcacVerifier(fast_cfg)
        keys = {c.key() for c in result.solutions}
        assert len(keys) == len(result.solutions)
        for cand in result.solutions:
            assert v.verify(cand)

    def test_matches_brute_force_ground_truth(self, fast_cfg):
        """CEGIS-all must find exactly the brute-force solution set
        (soundness AND completeness, the paper's §3.1.2 claim)."""
        spec = TemplateSpec(
            history=fast_cfg.history, use_cwnd_history=False,
            coeff_domain=(Fraction(-1), Fraction(1)),
            const_domain=(Fraction(1),),
        )
        cegis_result = enumerate_all(
            SynthesisQuery(spec=spec, cfg=fast_cfg, generator="enum",
                           worst_case_cex=True)
        )
        bf_result = brute_force(spec, fast_cfg, stop_at_first=False)
        assert {c.key() for c in cegis_result.solutions} == {
            c.key() for c in bf_result.solutions
        }


#: exhaustive solution sets (``pretty``) of the Table 1 3^4 row (h=3,
#: T=5) and of the guarded template's small space; SAT models and CEGIS
#: trajectories may change with the solver's search, these may not
SOLUTION_SETS = {
    "rp": {
        "cwnd(t) = ack(t-1) - ack(t-2) + 1",
        "cwnd(t) = ack(t-1) - ack(t-3) + 1",
        "cwnd(t) = ack(t-2) - ack(t-3) + 1",
    },
    "guarded": {
        "if queue_est(t) > 2: cwnd = 1 else: cwnd = 1*acked2rtt(t) + 1",
        "if queue_est(t) > 2: cwnd = 1*acked2rtt(t) + 1 "
        "else: cwnd = 1*acked2rtt(t) + 1",
    },
}


@pytest.mark.parametrize("row, worst_case", [
    ("rp", False), ("rp", True), ("guarded", False),
], ids=["rp", "rp_wce", "guarded"])
def test_exhaustive_solution_sets_are_pinned(fast_cfg, row, worst_case):
    spec = table1_spaces(3)["no_cwnd_small"] if row == "rp" else ConditionalSpec(
        threshold_domain=(Fraction(2),),
        mu_domain=(Fraction(0), Fraction(1)),
        delta_domain=(Fraction(0), Fraction(1)),
    )
    result = enumerate_all(SynthesisQuery(
        spec=spec, cfg=fast_cfg, generator="enum", worst_case_cex=worst_case,
        time_budget=600,
    ))
    assert result.exhausted
    assert {c.pretty() for c in result.solutions} == SOLUTION_SETS[row]


class TestBruteForce:
    def test_stop_at_first(self, fast_cfg):
        spec = TemplateSpec(
            history=fast_cfg.history, use_cwnd_history=False,
            coeff_domain=(Fraction(0), Fraction(1)), const_domain=(Fraction(1),),
        )
        result = brute_force(spec, fast_cfg, stop_at_first=True)
        if result.found:
            assert result.iterations <= spec.search_space_size

    def test_max_candidates_cap(self, fast_cfg, tiny_spec):
        result = brute_force(tiny_spec, fast_cfg, stop_at_first=False, max_candidates=5)
        assert result.iterations == 5
