#!/usr/bin/env python3
"""Conditional-template synthesis (paper §4.1's extension).

The paper proposes extending the linear template with guarded updates —
``if cond then cwnd <- expr1 else cwnd <- expr2`` — which can express
traditional CCAs like AIMD.  This example:

1. verifies AIMD (expressed in the conditional template) and shows it is
   *refuted*: the adversary jitters acks so the delay guard misfires —
   the same mechanism CCAC used against delay-signal CCAs;
2. verifies RoCC expressed in branch form (it passes: its branches don't
   depend on the unreliable guard);
3. runs CEGIS over the conditional space and prints the synthesized rule.

The guarded template goes through the same verifier (``CcacVerifier``)
and synthesis driver (``synthesize`` with the enumerative generator) as
the linear one.

Run:  python examples/conditional_synthesis.py
"""

from fractions import Fraction

from repro.ccac import ModelConfig
from repro.core import (
    CcacVerifier,
    ConditionalSpec,
    SynthesisQuery,
    aimd_candidate,
    rocc_conditional,
    synthesize,
)


def main() -> None:
    cfg = ModelConfig(T=5, history=3)
    verifier = CcacVerifier(cfg)

    aimd = aimd_candidate()
    print(f"AIMD in the conditional template:\n  {aimd.pretty()}")
    res = verifier.find_counterexample(aimd)
    if res.verified:
        print("  -> verified (unexpected)\n")
    else:
        tr = res.counterexample
        print(f"  -> REFUTED: util={float(tr.utilization()):.2f}, "
              f"max queue={float(tr.max_queue()):.2f} on an adversarial trace\n")

    rocc_c = rocc_conditional()
    print(f"RoCC in branch form:\n  {rocc_c.pretty()}")
    print(f"  -> {'PROVED correct' if verifier.verify(rocc_c) else 'refuted?!'}\n")

    spec = ConditionalSpec(
        threshold_domain=(Fraction(2),),
        mu_domain=(Fraction(0), Fraction(1, 2), Fraction(1)),
        delta_domain=(Fraction(0), Fraction(1)),
    )
    print(f"synthesizing over {spec.search_space_size} conditional candidates ...")
    result = synthesize(
        SynthesisQuery(spec=spec, cfg=cfg, generator="enum", time_budget=600)
    )
    print(f"  iterations: {result.iterations}")
    if result.solutions:
        sol = result.solutions[0]
        print(f"  synthesized: {sol.pretty()}")
        print(f"  AIMD-shaped: {sol.is_aimd_shaped()}")
    else:
        print("  no solution within budget")


if __name__ == "__main__":
    main()
