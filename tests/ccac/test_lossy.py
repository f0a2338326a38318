"""Finite-buffer / lossy model tests (§4.1 environment extension)."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig, lossy_environment
from repro.ccac.lossy import LossyCcacModel, minimum_buffer
from repro.core import CcacVerifier, constant_cwnd, rocc
from repro.smt import Solver, sat, unsat


@pytest.fixture
def cfg():
    return ModelConfig(T=5, history=3)


def lossy_verifier(cfg, buffer):
    return CcacVerifier(cfg, environments=[lossy_environment(buffer=buffer)])


class TestModel:
    def test_requires_positive_buffer(self, cfg):
        with pytest.raises(ValueError):
            LossyCcacModel(cfg, Fraction(0))

    def test_environment_satisfiable(self, cfg):
        net = LossyCcacModel(cfg, Fraction(2))
        s = Solver()
        s.add(*net.constraints())
        assert s.check() is sat

    def test_queue_never_exceeds_buffer(self, cfg):
        net = LossyCcacModel(cfg, Fraction(2))
        s = Solver()
        s.add(*net.constraints())
        s.add(net.delivered(3) - net.S[3] > 2)
        assert s.check() is unsat

    def test_loss_only_when_full(self, cfg):
        net = LossyCcacModel(cfg, Fraction(2))
        s = Solver()
        s.add(*net.constraints())
        s.add(net.L[3] > net.L[2])
        s.add(net.delivered(3) - net.S[3] < 2)
        assert s.check() is unsat

    def test_lossless_limit(self, cfg):
        """With a huge buffer and losses pinned to zero, the lossy model
        admits the same ideal traces as the lossless one."""
        from repro.ccac import desired_property

        net = LossyCcacModel(cfg, Fraction(100))
        s = Solver()
        s.add(*net.constraints())
        s.add(*rocc(cfg.history).constraints_for(net))
        s.add(desired_property(net))
        assert s.check() is sat


class TestVerdicts:
    def test_rocc_fails_small_buffer(self, cfg):
        """RoCC's steady queue needs buffer; below it, drops exceed the
        loss budget every window and the rule never decreases."""
        res = lossy_verifier(cfg, Fraction(1)).find_counterexample(rocc(cfg.history))
        assert not res.verified
        assert res.counterexample.L[-1] > 0

    def test_rocc_survives_adequate_buffer(self, cfg):
        assert lossy_verifier(cfg, Fraction(8)).verify(rocc(cfg.history))

    def test_verdict_monotone_in_buffer(self, cfg):
        """Bigger buffers only remove adversarial traces."""
        verdicts = [
            lossy_verifier(cfg, b).verify(rocc(cfg.history))
            for b in (Fraction(1), Fraction(4), Fraction(8))
        ]
        seen_true = False
        for v in verdicts:
            if seen_true:
                assert v
            seen_true = seen_true or v

    def test_fragile_rule_still_fails_with_buffer(self, cfg):
        assert not lossy_verifier(cfg, Fraction(8)).verify(constant_cwnd(1, cfg.history))

    def test_counterexample_loss_trace_monotone(self, cfg):
        res = lossy_verifier(cfg, Fraction(1)).find_counterexample(rocc(cfg.history))
        losses = res.counterexample.L
        assert all(b >= a for a, b in zip(losses, losses[1:]))
        assert losses[0] == 0


class TestBufferSizing:
    def test_minimum_buffer_found(self, cfg):
        mb = minimum_buffer(rocc(cfg.history), cfg)
        assert mb is not None
        # RoCC's steady in-flight is ~3 C*D (2 BDP + increment) plus
        # jitter slack; the formal minimum lands just above 4
        assert Fraction(3) <= mb <= Fraction(6)

    def test_minimum_buffer_none_for_hopeless(self, cfg):
        assert minimum_buffer(constant_cwnd(1, cfg.history), cfg) is None
