"""Two-flow fairness / starvation tests (§4.1's open problem)."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig, multiflow_environment
from repro.ccac.multiflow import TwoFlowModel
from repro.core import CcacVerifier, constant_cwnd, rocc
from repro.smt import Solver, sat, unsat


@pytest.fixture
def mf_cfg():
    return ModelConfig(T=5, history=3)


def find_starvation(cfg, candidate, min_share, phi):
    env = multiflow_environment(min_share=min_share, phi=phi)
    return CcacVerifier(cfg, environments=[env]).find_counterexample(candidate)


class TestModel:
    def test_environment_satisfiable(self, mf_cfg):
        model = TwoFlowModel(mf_cfg)
        s = Solver()
        s.add(*model.constraints())
        assert s.check() is sat

    def test_aggregate_capacity_enforced(self, mf_cfg):
        model = TwoFlowModel(mf_cfg)
        s = Solver()
        s.add(*model.constraints())
        s.add(model.total_S(mf_cfg.T) > mf_cfg.C * mf_cfg.T)
        assert s.check() is unsat

    def test_min_share_bounds_split(self, mf_cfg):
        """With min_share=1/2 both backlogged flows split service
        exactly evenly; a grossly uneven split is inadmissible."""
        model = TwoFlowModel(mf_cfg, min_share=Fraction(1, 2))
        s = Solver()
        s.add(*model.constraints())
        # both always backlogged, flow 1 gets everything in step 2
        for t in range(mf_cfg.T + 1):
            s.add(model.flows[0]["A"][t] - model.flows[0]["S"][t] >= 1)
            s.add(model.flows[1]["A"][t] - model.flows[1]["S"][t] >= 1)
        s.add(model.flows[0]["S"][2] - model.flows[0]["S"][1] >= Fraction(3, 4))
        s.add(model.flows[1]["S"][2] - model.flows[1]["S"][1] <= Fraction(1, 8))
        s.add(model.total_S(2) - model.total_S(1) >= Fraction(7, 8))
        assert s.check() is unsat

    def test_invalid_min_share_rejected(self, mf_cfg):
        with pytest.raises(ValueError):
            TwoFlowModel(mf_cfg, min_share=Fraction(3, 4))

    def test_flow_view_interface(self, mf_cfg):
        model = TwoFlowModel(mf_cfg)
        view = model.flow_view(0)
        assert view.S_at(-1) is model.flows[0]["S_pre"][0]
        assert view.cwnd_at(2) is model.flows[0]["cwnd"][2]


class TestStarvation:
    def test_adversarial_split_starves_everything(self, mf_cfg):
        """With a fully adversarial scheduler (min_share=0), even RoCC
        can be starved — the multi-flow analogue of the starvation result
        the paper cites, and why the service-discipline assumption is
        load-bearing."""
        result = find_starvation(
            mf_cfg, rocc(mf_cfg.history), min_share=Fraction(0), phi=Fraction(1, 2)
        )
        assert not result.verified

    def test_fair_scheduler_prevents_starvation(self, mf_cfg):
        """With an exactly-fair scheduler (min_share=1/2), RoCC flows are
        provably not starved below a quarter of their fair share (jitter
        still costs throughput, so the guarantee is phi=1/4, not 1/2)."""
        result = find_starvation(
            mf_cfg, rocc(mf_cfg.history), min_share=Fraction(1, 2), phi=Fraction(1, 4)
        )
        assert result.verified

    def test_starvation_monotone_in_share(self, mf_cfg):
        """If a candidate avoids phi-starvation at some min_share, it
        also avoids it at a larger min_share (fewer admissible traces)."""
        cand = rocc(mf_cfg.history)
        shares = [Fraction(0), Fraction(1, 4), Fraction(1, 2)]
        verdicts = [
            find_starvation(mf_cfg, cand, min_share=s, phi=Fraction(1, 2)).verified
            for s in shares
        ]
        # once verified, stays verified as the assumption strengthens
        seen_true = False
        for v in verdicts:
            if seen_true:
                assert v
            seen_true = seen_true or v

    def test_starvation_trace_reports_throughputs(self, mf_cfg):
        result = find_starvation(
            mf_cfg, constant_cwnd(1, mf_cfg.history),
            min_share=Fraction(0), phi=Fraction(1, 2),
        )
        assert not result.verified
        throughputs = result.counterexample.throughputs()
        assert throughputs is not None
        assert len(throughputs) == 2
