#!/usr/bin/env python
"""Differential fuzzing of the SMT compile pipeline (CC-Fuzz-style).

Generates random small QF-LRA formulas and, for each one, checks

* **verdict parity** — solving through the staged compile pipeline
  (:mod:`repro.smt.compile`) and through the raw pre-pipeline encode
  path must agree (sat/unsat);
* **model validity** — every sat model (from either path) must satisfy
  the *raw* asserted formulas under the independent exact evaluator
  (:func:`repro.runtime.validate.validate_assignment`), which exercises
  the pipeline's variable-elimination reconstruction map;
* **optimum parity** — for a sat formula, maximizing a bounded
  variable (:func:`repro.smt.optimize.maximize`) must give the same
  exact optimum on both paths, with a model that passes the same
  independent evaluator;
* **primed parity** — a solver given the first formula, then
  :meth:`repro.smt.Solver.adopt`-ing a solver that solved that formula
  alone, then given the rest, must reach the fresh pipeline solver's
  verdict, with a model that passes the same independent evaluator
  (the CEGIS verifier's fast path: solve the base once, start every
  candidate's search from there).

Run directly::

    PYTHONPATH=src python scripts/smt_fuzz.py --n 200 --seed 7

or through pytest (``-m fuzz``, see tests/smt/test_fuzz.py).  Exits
nonzero on the first divergence, printing a reproducer seed.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from repro.runtime.errors import SoundnessError
from repro.runtime.validate import validate_assignment
from repro.smt import (
    And,
    Bool,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Real,
    RealVal,
    Solver,
    sat,
    unknown,
)
from repro.smt.optimize import maximize

REAL_VARS = [Real(n) for n in ("fa", "fb", "fc", "fd")]
BOOL_VARS = [Bool(n) for n in ("fp", "fq")]
#: the maximized variable, capped by a formula variable and a constant
OBJECTIVE = Real("fz")


def random_real(rng: random.Random, depth: int):
    """A random linear real term (ITEs included — the lifter's diet)."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        if rng.random() < 0.5:
            return rng.choice(REAL_VARS)
        return RealVal(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
    if roll < 0.6:
        return random_real(rng, depth - 1) + random_real(rng, depth - 1)
    if roll < 0.75:
        return rng.randint(-3, 3) * random_real(rng, depth - 1)
    if roll < 0.85:
        return -random_real(rng, depth - 1)
    return Ite(
        random_formula(rng, depth - 1),
        random_real(rng, depth - 1),
        random_real(rng, depth - 1),
    )


def random_atom(rng: random.Random, depth: int):
    lhs = random_real(rng, depth)
    rhs = random_real(rng, depth)
    op = rng.randrange(5)
    if op == 0:
        return lhs <= rhs
    if op == 1:
        return lhs < rhs
    if op == 2:
        return lhs >= rhs
    if op == 3:
        return lhs > rhs
    return lhs.eq(rhs)


def random_formula(rng: random.Random, depth: int):
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if rng.random() < 0.3:
            return rng.choice(BOOL_VARS)
        return random_atom(rng, max(depth, 1))
    if roll < 0.5:
        return And(*[random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    if roll < 0.7:
        return Or(*[random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))])
    if roll < 0.8:
        return Not(random_formula(rng, depth - 1))
    if roll < 0.9:
        return Implies(random_formula(rng, depth - 1), random_formula(rng, depth - 1))
    return Iff(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def check_one(seed: int, depth: int) -> str | None:
    """Run one differential case; returns an error string or None."""
    rng = random.Random(seed)
    formulas = [random_formula(rng, depth) for _ in range(rng.randint(1, 4))]

    compiled = Solver(compile_pipeline=True)
    compiled.add(*formulas)
    raw = Solver(compile_pipeline=False)
    raw.add(*formulas)

    v_compiled = compiled.check()
    v_raw = raw.check()
    if v_compiled is unknown or v_raw is unknown:
        return None  # budget artifacts are not divergences (none expected)
    if v_compiled is not v_raw:
        return (
            f"verdict divergence: pipeline={v_compiled.value} "
            f"raw={v_raw.value} formulas={formulas}"
        )
    primer = Solver()
    primer.add(formulas[0])
    primed = Solver()
    primed.add(formulas[0])
    if primer.check() is sat:
        primed.adopt(primer)
    primed.add(*formulas[1:])
    v_primed = primed.check()
    if v_primed is not v_compiled:
        return (
            f"verdict divergence: primed={v_primed.value} "
            f"pipeline={v_compiled.value} formulas={formulas}"
        )
    for name, solver, verdict in (
        ("pipeline", compiled, v_compiled),
        ("raw", raw, v_raw),
        ("primed", primed, v_primed),
    ):
        if verdict.value != "sat":
            continue
        bools, reals = solver.model().assignment()
        try:
            validate_assignment(formulas, bools, reals, context=f"fuzz[{name}]")
        except SoundnessError as exc:
            return f"invalid model ({name}): {exc}"
    if v_compiled is sat:
        return check_optimum(rng, formulas, compiled, raw)
    return None


def check_optimum(rng: random.Random, formulas, compiled, raw) -> str | None:
    """Maximize a fresh variable capped by a formula variable and a
    constant on both paths; the optima must agree and the models hold."""
    cap = [
        OBJECTIVE <= rng.choice(REAL_VARS),
        OBJECTIVE <= RealVal(rng.randint(-8, 8)),
    ]
    optima = []
    for name, solver in (("pipeline", compiled), ("raw", raw)):
        with solver.scope(*cap):
            res = maximize(solver, OBJECTIVE)
        if not res.feasible:
            return f"optimum infeasible ({name}) on a sat formula"
        bools, reals = res.model.assignment()
        try:
            validate_assignment(
                formulas + cap, bools, reals, context=f"fuzz-opt[{name}]"
            )
        except SoundnessError as exc:
            return f"invalid optimum model ({name}): {exc}"
        optima.append(res.best_value)
    if optima[0] != optima[1]:
        return (
            f"optimum divergence: pipeline={optima[0]} raw={optima[1]} "
            f"formulas={formulas}"
        )
    return None


def run(n: int, seed: int, depth: int, verbose: bool = False) -> int:
    failures = 0
    for i in range(n):
        case_seed = seed + i
        err = check_one(case_seed, depth)
        if err is not None:
            failures += 1
            print(f"FAIL seed={case_seed} depth={depth}: {err}", file=sys.stderr)
        elif verbose:
            print(f"ok seed={case_seed}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=200, help="number of random cases")
    ap.add_argument("--seed", type=int, default=20260807, help="base seed")
    ap.add_argument("--depth", type=int, default=3, help="formula depth bound")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    failures = run(args.n, args.seed, args.depth, args.verbose)
    if failures:
        print(f"{failures}/{args.n} cases diverged", file=sys.stderr)
        return 1
    print(
        f"all {args.n} cases agree (pipeline vs raw vs primed, "
        f"models and optima valid)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
