"""Tests for assumption synthesis and differential comparison."""

from fractions import Fraction

from repro.core import (
    CcacVerifier,
    constant_cwnd,
    differential_comparison,
    initial_queue_budget,
    per_step_waste_budget,
    rocc,
    total_waste_budget,
    weakest_sufficient_assumption,
)


class TestWeakestAssumption:
    def test_fragile_cca_needs_real_constraint(self, fast_cfg):
        """The one-BDP window fails unconditionally, so its weakest
        sufficient waste budget must be strictly below the maximum."""
        template = total_waste_budget(fast_cfg)
        res = weakest_sufficient_assumption(
            constant_cwnd(1, fast_cfg.history), fast_cfg, template
        )
        assert res.found
        assert res.theta < template.hi
        assert "wastes at most" in res.assumption

    def test_robust_cca_needs_no_constraint(self, fast_cfg):
        """RoCC verifies unconditionally, so the weakest assumption is
        the vacuous one (theta = hi)."""
        template = total_waste_budget(fast_cfg)
        res = weakest_sufficient_assumption(rocc(fast_cfg.history), fast_cfg, template)
        assert res.found
        assert res.theta == template.hi

    def test_sufficiency_invariant(self, fast_cfg):
        """The returned theta must actually be sufficient (re-check)."""
        template = total_waste_budget(fast_cfg)
        cand = constant_cwnd(1, fast_cfg.history)
        res = weakest_sufficient_assumption(cand, fast_cfg, template)
        verifier = CcacVerifier(fast_cfg)
        assert verifier.find_counterexample(
            cand,
            extra_constraints=[template.build(verifier.network(), res.theta)],
        ).verified

    def test_per_step_family(self, fast_cfg):
        template = per_step_waste_budget(fast_cfg)
        res = weakest_sufficient_assumption(
            constant_cwnd(1, fast_cfg.history), fast_cfg, template
        )
        assert res.found

    def test_pinned_thetas_and_probes(self):
        """The binary search's answers and probe counts at T=5 (h=4)
        for both waste families."""
        from repro.ccac import ModelConfig

        cfg = ModelConfig(T=5)
        h = cfg.history
        expected = {
            total_waste_budget: {
                "rocc": (Fraction(5), 2),
                "const:1": (Fraction(95, 64), 9),
                "const:2": (Fraction(5), 2),
            },
            per_step_waste_budget: {
                "rocc": (Fraction(5), 2),
                "const:1": (Fraction(15, 32), 9),
                "const:2": (Fraction(5), 2),
            },
        }
        candidates = {
            "rocc": rocc(h),
            "const:1": constant_cwnd(1, h),
            "const:2": constant_cwnd(2, h),
        }
        for family, rows in expected.items():
            for name, (theta, probes) in rows.items():
                res = weakest_sufficient_assumption(
                    candidates[name], cfg, family(cfg)
                )
                assert (res.theta, res.probes) == (theta, probes), (
                    family.__name__, name,
                )

    def test_impossible_candidate(self, fast_cfg):
        """Bounding the initial queue cannot save a one-BDP window from
        the waste adversary at a 90% utilization demand: no theta in the
        family is sufficient."""
        cfg = fast_cfg.with_thresholds(util=Fraction(9, 10))
        template = initial_queue_budget(cfg)
        res = weakest_sufficient_assumption(constant_cwnd(1, cfg.history), cfg, template)
        assert not res.found

    def test_zero_waste_budget_vacuous_for_slow_senders(self, fast_cfg):
        """Structural property of the CCAC constraints: with the waste
        capped at zero, the lower service curve forces delivery at link
        rate, which makes slow-sender traces infeasible — so even a
        clamped-to-minimum window verifies vacuously.  (This is why waste
        *must* be free for the model to be meaningful, and why the paper
        calls building verifiers the hard part of generalizing CEGIS.)"""
        cfg = fast_cfg.with_thresholds(util=Fraction(9, 10))
        template = total_waste_budget(cfg)
        verifier = CcacVerifier(cfg)
        assert verifier.find_counterexample(
            constant_cwnd(0, cfg.history),
            extra_constraints=[template.build(verifier.network(), Fraction(0))],
        ).verified


class TestDifferential:
    def test_rocc_beats_constant(self, fast_cfg):
        diff = differential_comparison(
            rocc(fast_cfg.history),
            constant_cwnd(1, fast_cfg.history),
            fast_cfg,
            total_waste_budget(fast_cfg),
        )
        assert diff.theta_a is not None
        assert diff.theta_a > diff.theta_b
        assert "A tolerates strictly more" in diff.verdict

    def test_self_comparison_ties(self, fast_cfg):
        diff = differential_comparison(
            rocc(fast_cfg.history),
            rocc(fast_cfg.history),
            fast_cfg,
            total_waste_budget(fast_cfg),
        )
        assert diff.theta_a == diff.theta_b
        assert "same assumption" in diff.verdict
