"""Objective optimization by binary search over a rational objective.

The CCmatic *worst-case counterexample* optimization asks the verifier to
maximize ``min_t (u_t - l_t)`` (paper §3.1.2) — "we maximize using binary
search".  This module provides exactly that primitive, generalized: given a
satisfiable constraint system and a real objective term, find (to a given
precision) the largest value ``m`` such that the system plus
``objective >= m`` is satisfiable, returning the maximizing model.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..obs import DEBUG, tracer
from .solver import CheckOptions, Model, Result, Solver, _require_options, sat, unknown
from .terms import Term


@dataclass
class OptimizeResult:
    """Outcome of a binary-search optimization.

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
    solver: Solver,
    objective: Term,
    lo: Fraction,
    hi: Fraction,
    precision: Fraction = Fraction(1, 64),
    options: Optional[CheckOptions] = None,
) -> OptimizeResult:
    """Maximize ``objective`` over the solver's current assertions.

    A solver with a query cache answers repeated probes from it.
    Per-probe budgets go through ``options`` (:class:`CheckOptions`).

    ``lo`` must be a value for which feasibility is *unknown or likely*;
    ``hi`` an upper limit of the search.  The solver is used through
    push/pop, so its assertion stack is unchanged on return.  Returns the
    best model found; ``feasible=False`` when even ``objective >= lo`` has
    no model (with ``unknown=True`` when that probe was inconclusive
    rather than unsat).  Each binary-search step is emitted as an
    ``opt.probe`` event when tracing is enabled.
    """
    opts = _require_options(options, "maximize")
    lo = Fraction(lo)
    hi = Fraction(hi)
    probes = 0
    tr = tracer()

    def probe(value: Fraction) -> tuple[Result, Optional[Model]]:
        nonlocal probes
        probes += 1
        solver.push()
        solver.add(objective >= value)
        outcome = solver.check(opts)
        model = solver.model() if outcome is sat else None
        solver.pop()
        if tr.enabled:
            tr.event(
                "opt.probe",
                level=DEBUG,
                probe=probes,
                value=str(value),
                result=outcome.value,
            )
        return outcome, model

    outcome, model = probe(lo)
    if outcome is not sat:
        return OptimizeResult(False, None, None, probes, unknown=outcome is unknown)
    best_value = model.value(objective)
    best_model = model

    # best_value may already exceed lo; start the search from it.
    low = max(lo, best_value)
    high = hi
    while high - low > precision:
        mid = (low + high) / 2
        outcome, model = probe(mid)
        if outcome is sat:
            achieved = model.value(objective)
            low = max(mid, achieved)
            if achieved > best_value:
                best_value = achieved
                best_model = model
        else:
            high = mid
    return OptimizeResult(True, best_value, best_model, probes)
