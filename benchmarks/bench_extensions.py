"""Benchmarks for the paper-sketched extensions (§4.1, §5).

Not tied to a specific table — these regenerate the qualitative results of
the extensions: conditional-template verdicts, two-flow starvation under
scheduling assumptions, and verifier tuning over a heuristic panel.
"""

from fractions import Fraction

import pytest

from repro.ccac import lossy_environment, multiflow_environment
from repro.core import (
    CcacVerifier,
    aimd_candidate,
    constant_cwnd,
    rocc,
    rocc_conditional,
    total_waste_budget,
    tune_verifier,
)

from _bench_utils import BENCH_H


def test_conditional_aimd_refuted(benchmark, bench_cfg):
    verifier = CcacVerifier(bench_cfg)

    def run():
        return verifier.find_counterexample(aimd_candidate())

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.verified
    print(f"AIMD refuted: util={float(result.counterexample.utilization()):.2f}")


def test_conditional_rocc_verified(benchmark, bench_cfg):
    verifier = CcacVerifier(bench_cfg)

    def run():
        return verifier.verify(rocc_conditional())

    assert benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("share,expect_verified", [
    (Fraction(0), False),
    (Fraction(1, 2), True),
])
def test_starvation_vs_scheduler_share(benchmark, bench_cfg, share, expect_verified):
    env = multiflow_environment(min_share=share, phi=Fraction(1, 4))
    verifier = CcacVerifier(bench_cfg, environments=[env])
    cand = rocc(BENCH_H)

    def run():
        return verifier.find_counterexample(cand)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"min_share={share}: starvation-free={result.verified}")
    assert result.verified == expect_verified


def test_verifier_tuning_panel(benchmark, bench_cfg):
    template = total_waste_budget(bench_cfg)
    panel = [rocc(BENCH_H), constant_cwnd(1, BENCH_H)]

    def run():
        return tune_verifier(panel, bench_cfg, template)

    tuned = benchmark.pedantic(run, rounds=1, iterations=1)
    assert tuned.found
    print(f"tuned environment: {tuned.describe()} ({tuned.probes} probes)")


def test_lossy_buffer_sizing(benchmark, bench_cfg):
    """Finite-buffer extension: formally size the buffer RoCC needs."""
    from repro.ccac import minimum_buffer

    def run():
        return minimum_buffer(rocc(BENCH_H), bench_cfg)

    mb = benchmark.pedantic(run, rounds=1, iterations=1)
    assert mb is not None
    print(f"minimum verified buffer for RoCC: {mb} C*D")


def test_lossy_verdicts(benchmark, bench_cfg):
    """RoCC fails under-provisioned buffers and survives adequate ones."""
    def verified(buffer):
        env = lossy_environment(buffer=buffer)
        return CcacVerifier(bench_cfg, environments=[env]).verify(rocc(BENCH_H))

    def run():
        return verified(Fraction(1)), verified(Fraction(8))

    small, large = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not small and large


def test_scheduling_graham_bound(benchmark):
    """§5 scheduling domain: prove Graham's bound, refute below it."""
    from fractions import Fraction as F

    from repro.sched import SchedulingConfig, SchedulingVerifier

    cfg = SchedulingConfig(n_jobs=4, n_machines=2)
    verifier = SchedulingVerifier(cfg)

    def run():
        proved = verifier.verify_ratio(cfg.graham_ratio).verified
        refuted = verifier.verify_ratio(F(13, 10))
        return proved, refuted

    proved, refuted = benchmark.pedantic(run, rounds=1, iterations=1)
    assert proved and not refuted.verified
    print(f"Graham {cfg.graham_ratio} proved; rho=13/10 witness ratio="
          f"{refuted.witness.ratio}")
