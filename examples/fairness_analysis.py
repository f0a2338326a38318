#!/usr/bin/env python3
"""Two-flow starvation analysis (the §4.1 open problem, made concrete).

"Recent work showed that network delays can cause competing flows to
starve for many known CCAs...  It is unknown if a CCA outside this class
can avoid starvation."  This example runs the two-flow CCAC model with
RoCC competing against itself and sweeps the one environment assumption
the multi-flow setting needs — the scheduler's minimum service share for
a backlogged flow:

* fully adversarial split (share 0): starvation traces exist, for any CCA;
* even split (share 1/2): RoCC is *provably* never starved below a
  quarter of its fair share.

Run:  python examples/fairness_analysis.py
"""

from fractions import Fraction

from repro.ccac import ModelConfig, multiflow_environment
from repro.core import CcacVerifier, rocc


def main() -> None:
    cfg = ModelConfig(T=5, history=3)
    cand = rocc(cfg.history)
    phi = Fraction(1, 4)
    print(f"candidate: {cand.pretty()}")
    print(f"starvation threshold: phi={phi} of fair share, T={cfg.T}\n")

    for share in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
        env = multiflow_environment(min_share=share, phi=phi)
        result = CcacVerifier(cfg, environments=[env]).find_counterexample(cand)
        print(f"scheduler min-share = {share}:")
        if result.verified:
            print(f"  PROVED: no admissible trace starves either flow "
                  f"({result.wall_time:.1f}s)")
        else:
            t1, t2 = result.counterexample.throughputs()
            print(f"  starvation trace found: throughputs "
                  f"{float(t1):.2f} vs {float(t2):.2f} "
                  f"(fair share {float(cfg.C * cfg.T / 2):.2f}) "
                  f"({result.wall_time:.1f}s)")
    print()
    print("Reading: multi-flow guarantees hinge on an explicit service-")
    print("discipline assumption — exactly the kind of constraint the")
    print("paper's assumption-synthesis agenda aims to surface.")


if __name__ == "__main__":
    main()
