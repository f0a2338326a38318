"""Verifier behaviour tests beyond the basic verdicts."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.core import CcacVerifier, CandidateCCA, constant_cwnd, rocc


class TestVerifierContract:
    def test_result_fields(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        res = v.find_counterexample(rocc(fast_cfg.history))
        assert res.verified
        assert res.counterexample is None
        assert res.wall_time > 0
        assert res.candidate is rocc(fast_cfg.history) or res.candidate.key() == rocc(fast_cfg.history).key()

    def test_stats_accumulate(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        v.find_counterexample(constant_cwnd(1, fast_cfg.history))
        v.find_counterexample(constant_cwnd(2, fast_cfg.history))
        assert v.calls == 2
        assert v.total_time > 0

    def test_history_mismatch_rejected(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        with pytest.raises(ValueError):
            v.verify(rocc(history=fast_cfg.history + 2))

    def test_verdict_deterministic(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        cand = constant_cwnd(1, fast_cfg.history)
        assert v.find_counterexample(cand).verified == v.find_counterexample(cand).verified


class TestThresholdMonotonicity:
    """Verification verdicts must be monotone in the thresholds: easier
    requirements keep verified candidates verified."""

    def test_relaxing_utilization_preserves_verification(self, fast_cfg):
        assert CcacVerifier(fast_cfg).verify(rocc(fast_cfg.history))
        easier = fast_cfg.with_thresholds(util=Fraction(1, 4))
        assert CcacVerifier(easier).verify(rocc(fast_cfg.history))

    def test_relaxing_delay_preserves_verification(self, fast_cfg):
        easier = fast_cfg.with_thresholds(delay=Fraction(10))
        assert CcacVerifier(easier).verify(rocc(fast_cfg.history))

    def test_tightening_refutes_eventually(self, fast_cfg):
        harder = fast_cfg.with_thresholds(util=Fraction(99, 100))
        assert not CcacVerifier(harder).verify(rocc(fast_cfg.history))


class TestScaleInvariance:
    def test_rocc_scales_with_link_rate(self, fast_cfg):
        """The model is normalized; verifying at C=2 needs the rule's
        additive term scaled, but the C=1 rule with gamma=1 still works
        at C=2 (gamma only helps more at lower rates... it must at least
        stay verified when gamma is scaled proportionally)."""
        from dataclasses import replace

        cfg2 = replace(
            fast_cfg,
            C=Fraction(2),
            initial_queue_max=fast_cfg.initial_queue_max * 2,
            initial_cwnd_max=fast_cfg.initial_cwnd_max * 2,
            cwnd_min=fast_cfg.cwnd_min * 2,
            delay_thresh=fast_cfg.delay_thresh,
        )
        h = fast_cfg.history
        betas = [Fraction(0)] * h
        betas[0], betas[2] = Fraction(1), Fraction(-1)
        scaled_rocc = CandidateCCA(
            tuple([Fraction(0)] * h), tuple(betas), Fraction(2)
        )
        assert CcacVerifier(cfg2).verify(scaled_rocc)


class TestWorstCase:
    def test_wce_verified_candidate_still_verified(self, fast_cfg):
        """WCE only changes which counterexample is returned, never the
        verdict."""
        v = CcacVerifier(fast_cfg)
        assert v.find_counterexample(rocc(fast_cfg.history), worst_case=True).verified

