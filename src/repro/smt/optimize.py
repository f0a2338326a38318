"""Exact maximization of a real variable (OMT linear search).

The CCmatic *worst-case counterexample* optimization asks the verifier to
maximize ``min_t (u_t - l_t)`` (paper §3.1.2).  The paper drives Z3 by
binary search over the objective; this module computes the exact
optimum instead, as OptiMathSAT-style linear search:

* every SAT probe ends with a primal Simplex phase
  (:meth:`repro.smt.simplex.Simplex.maximize`) that pushes the objective
  to the optimum of the probe's Boolean region before the model is
  taken;
* the next probe asserts ``objective > r``, with ``r`` the real part of
  that optimum, which excludes the whole region (an optimum's δ-part is
  never positive);
* the first UNSAT probe proves ``r`` is the supremum.

Each Boolean region is visited at most once, so the search ends after
(number of regions that improve the objective) + 1 solves.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..obs import DEBUG, tracer
from .solver import CheckOptions, Model, Solver, _require_options, sat, unknown
from .terms import Sort, Term


@dataclass
class OptimizeResult:
    """Outcome of a maximization.

    ``best_value`` is the supremum of the objective (exact once the
    search ended on UNSAT); ``model`` is the last SAT probe's model,
    which attains it unless the supremum sits on a strict bound.
    ``unknown`` is True when the *initial* feasibility probe was
    inconclusive (conflict or wall-clock budget exhausted), i.e. the
    caller must not interpret ``feasible=False`` as a proof of
    infeasibility.
    """

    feasible: bool
    best_value: Optional[Fraction]
    model: Optional[Model]
    probes: int
    unknown: bool = False

    def __bool__(self) -> bool:  # pragma: no cover - guard against misuse
        # A dataclass instance is always truthy, so `if opt:` silently
        # meant "always" — never "feasible".  Mirror Result.__bool__.
        raise TypeError(
            "OptimizeResult is not a boolean; test .feasible (and .unknown) "
            "explicitly"
        )


def maximize(
    solver: Solver, objective: Term, options: Optional[CheckOptions] = None
) -> OptimizeResult:
    """Maximize the real variable ``objective`` over the solver's assertions.

    The first probe is a plain :meth:`Solver.check` under the current
    assertions; later probes each assert ``objective > r`` in a scope,
    so the assertion stack is unchanged on return.  The search stops at
    the first UNSAT probe, or at an inconclusive one (budgets go through
    ``options``), returning the best model so far.  ``feasible=False``
    means the first probe found no model (``unknown=True`` when it was
    inconclusive rather than unsat).  The bound comes from the model's
    stored optimum (:attr:`Model.optimum`), so a probe a query cache
    answers bounds the next one exactly as the solved probe did; a cached
    model stored without an optimum of ``objective`` (the cache keys on
    the assertions only) bounds on its objective value instead.
    Each probe is emitted as an ``opt.probe`` event when tracing is
    enabled.

    ``objective`` must be a real variable that survives compilation (tie
    an expression to a fresh variable with ``v <= expr``); an unbounded
    objective raises :class:`ValueError`.
    """
    opts = _require_options(options, "maximize")
    if not objective.is_var() or objective.sort is not Sort.REAL:
        raise ValueError(f"maximize needs a real variable, got {objective}")
    if objective in solver._elim:
        raise ValueError(
            f"objective {objective} was eliminated by the compile pipeline; "
            f"bound it before defining it"
        )
    theory = solver.theory
    tr = tracer()
    probes = 0
    best_value: Optional[Fraction] = None
    best_model: Optional[Model] = None
    theory.objective = objective
    try:
        while True:
            probes += 1
            solves = solver.checks
            frame = (
                nullcontext() if best_value is None
                else solver.scope(objective > best_value)
            )
            with frame:
                outcome = solver.check(opts)
                if outcome is sat:
                    model = solver.model()
                    if model.objective == objective.name:
                        value = model.optimum
                    elif solver.checks > solves:  # solved, not a cache hit
                        raise ValueError(f"objective {objective} is unbounded")
                    else:  # cached with no optimum, or another objective's
                        value = model.value(objective)
            if tr.enabled:
                tr.event(
                    "opt.probe",
                    level=DEBUG,
                    probe=probes,
                    bound=None if best_value is None else str(best_value),
                    result=outcome.value,
                )
            if outcome is not sat:
                break
            best_value, best_model = value, model
    finally:
        theory.objective = None
    if best_model is None:
        return OptimizeResult(False, None, None, probes, unknown=outcome is unknown)
    return OptimizeResult(True, best_value, best_model, probes)
