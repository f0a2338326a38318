#!/usr/bin/env python
"""CI falsification smoke: a seeded ~2-minute adversarial budget.

Three phases, one deterministic seed:

1. **survive** — RoCC, SMT-verified, is hunted in-fragment.  It must
   survive every trace evaluation with a non-negative margin: a single
   violation here would be a sim-vs-SMT soundness incident.
2. **falsify** — the deliberately weakened AIMD (delay threshold 8,
   ``aimd:8``) must be falsified within the budget, and the minimized
   counterexample must still violate when replayed from its JSON form.
3. **grid** — a cross-validation grid fans out over worker processes
   and writes a repeatable experiment manifest; the verified CCA must
   show zero violating cells, the weakened one at least one.

Artifacts land in ``--out-dir`` (default ``falsify-artifacts/``): the
grid manifests plus any corpus cases or flight-recorder dumps produced.

Run from the repository root:

    python scripts/falsify_smoke.py [--seed N] [--budget EVALS]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.ccac import ModelConfig  # noqa: E402
from repro.falsify import (  # noqa: E402
    FalsifyBudget,
    GridSpec,
    TraceSchedule,
    falsify_cca,
    load_cases,
    resolve_cca,
    run_grid,
)


def fail(msg: str) -> int:
    print(f"[falsify-smoke] FAIL: {msg}", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=600,
                        help="trace evaluations per hunt (default 600, "
                             "roughly a 2-minute total run)")
    parser.add_argument("--out-dir", default="falsify-artifacts")
    args = parser.parse_args()

    cfg = ModelConfig(T=7)
    budget = FalsifyBudget(evaluations=args.budget, population=16)
    os.makedirs(args.out_dir, exist_ok=True)
    corpus_dir = os.path.join(args.out_dir, "corpus")
    # a soundness incident dumps the flight ring; land it in the
    # artifact directory so CI uploads it
    from repro.obs.flight import set_dump_dir

    set_dump_dir(args.out_dir)
    t0 = time.perf_counter()

    # phase 1: the verified CCA survives (zero false alarms)
    factory, smt_ok = resolve_cca("rocc", cfg)
    assert smt_ok
    report = falsify_cca(
        factory, cfg, spec="rocc", budget=budget, seed=args.seed,
        verified=True, corpus_dir=corpus_dir,
    )
    print(f"[falsify-smoke] {report.describe()}")
    if not report.survived:
        return fail("verified rocc was falsified in-fragment")
    if report.search.best_margin < 0:
        return fail(f"negative margin {report.search.best_margin} "
                    f"without a violation record")

    # phase 2: the weakened CCA falls, and its minimized case replays
    factory, _ = resolve_cca("aimd:8", cfg)
    report = falsify_cca(
        factory, cfg, spec="aimd:8", budget=budget, seed=args.seed,
        corpus_dir=corpus_dir,
    )
    print(f"[falsify-smoke] {report.describe()}")
    if report.survived:
        return fail(f"weakened aimd:8 survived {report.search.attempts} "
                    f"evaluations — the searcher lost its teeth")
    cases = [c for c in load_cases(corpus_dir) if c.cca == "aimd:8"]
    if not cases:
        return fail("no corpus case written for the aimd:8 violation")
    case = cases[0]
    from repro.falsify import PropertyOracle

    factory, _ = resolve_cca(case.cca, case.model_config())
    replayed = PropertyOracle(
        case.model_config(), covered_only=case.covered_only
    ).evaluate(factory(), TraceSchedule.from_dict(case.schedule))
    if not replayed.violated:
        return fail(f"minimized corpus case {case.name} no longer violates")
    print(f"[falsify-smoke] corpus case {case.name} replays exactly "
          f"(margin {case.verdict['margin']})")

    # phase 3: grid fan-out with manifests
    grid = GridSpec.from_model(cfg, ticks=40)
    for spec, expect_bad in (("rocc", False), ("aimd:8", True)):
        manifest = run_grid(
            spec, cfg, grid, jobs=2,
            manifest_path=os.path.join(
                args.out_dir, f"grid-{spec.replace(':', '-')}.json"
            ),
        )
        bad = len(manifest.violations)
        print(f"[falsify-smoke] {spec} grid: {manifest.describe()}")
        if expect_bad and bad == 0:
            return fail(f"{spec}: grid found no violating cells")
        if not expect_bad and bad:
            return fail(f"{spec}: {bad} violating grid cells on a "
                        f"verified CCA")

    print(f"[falsify-smoke] OK in {time.perf_counter() - t0:.1f}s "
          f"(seed {args.seed}, budget {args.budget})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
