"""Independent result validation: re-check solver verdicts with no solver.

The reproduction replaces z3 with a from-scratch DPLL(T) solver
(:mod:`repro.smt`), so the paper's "provably correct" claim is only as
strong as that solver.  This module provides the compensating check: every
SAT model and every counterexample trace is re-validated by code that
shares *no search code* with the solver —

* :func:`evaluate_term` is a standalone exact-arithmetic (``Fraction``)
  interpreter over the term AST.  It deliberately re-implements the
  semantics instead of calling :func:`repro.smt.terms.evaluate` or
  :meth:`repro.smt.solver.Model.value`, so a bug in those paths cannot
  vouch for itself.
* :func:`validate_model` evaluates every *raw* asserted formula (before
  preprocessing) under the model's variable assignment; a single False
  raises :class:`~repro.runtime.errors.SoundnessError`.  Because the
  check runs on the raw formulas while the solver encodes the
  *compiled* form (:mod:`repro.smt.compile`), it also soundness-checks
  the compile pipeline itself: variables the pipeline eliminated appear
  in the model via the reconstruction map
  (:meth:`repro.smt.compile.CompiledQuery.reconstruct` — the solver
  extends its models with the recorded definitions), so any unsound
  simplification, inlining, or bounds fix shows up as a failed raw
  evaluation here.
* :func:`validate_counterexample` replays a trace against the CCAC
  environment constraints numerically, re-derives the candidate's cwnd
  trajectory from its coefficients (linear or guarded rule), and
  confirms the trace actually violates the desired property — a bogus
  counterexample fed to the generator would silently prune correct
  candidates.

Only the term *language* (:mod:`repro.smt.terms` data structures) is
shared; the SAT core, Simplex, and model construction are not on any
code path here.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from ..obs import DEBUG, metrics, tracer
from ..smt.terms import Kind, Sort, Term
from .errors import SoundnessError

__all__ = [
    "evaluate_term",
    "validate_assignment",
    "validate_counterexample",
    "validate_model",
]


def evaluate_term(
    term: Term,
    bools: Mapping[Term, bool],
    reals: Mapping[Term, Fraction],
):
    """Exact evaluation of ``term`` under a (possibly partial) assignment.

    Unassigned variables default to ``False`` / ``Fraction(0)``, matching
    the solver's don't-care convention, so a model that simply omits a
    variable agrees with this evaluator on what the variable means.
    """
    cache: dict[int, object] = {}
    # iterative post-order walk: validation runs on arbitrary user
    # formulas, so no recursion-depth assumption is made
    stack: list[tuple[Term, bool]] = [(term, False)]
    while stack:
        t, ready = stack.pop()
        if id(t) in cache:
            continue
        k = t.kind
        if not ready and t.args:
            stack.append((t, True))
            for a in t.args:
                stack.append((a, False))
            continue
        if k is Kind.CONST:
            val: object = t.value
        elif k is Kind.VAR:
            if t.sort is Sort.BOOL:
                val = bool(bools.get(t, False))
            else:
                val = Fraction(reals.get(t, Fraction(0)))
        else:
            args = [cache[id(a)] for a in t.args]
            if k is Kind.NOT:
                val = not args[0]
            elif k is Kind.AND:
                val = all(args)
            elif k is Kind.OR:
                val = any(args)
            elif k is Kind.IMPLIES:
                val = (not args[0]) or bool(args[1])
            elif k is Kind.IFF:
                val = bool(args[0]) == bool(args[1])
            elif k is Kind.ITE:
                val = args[1] if args[0] else args[2]
            elif k is Kind.ADD:
                val = sum(args[1:], args[0])
            elif k is Kind.NEG:
                val = -args[0]
            elif k is Kind.SCALE:
                if t.value is None:
                    val = args[0] * args[1]
                else:
                    val = t.value * args[0]
            elif k is Kind.LE:
                val = args[0] <= args[1]
            elif k is Kind.LT:
                val = args[0] < args[1]
            elif k is Kind.EQ:
                val = args[0] == args[1]
            else:  # pragma: no cover - the term language is closed
                raise SoundnessError(f"validator cannot evaluate kind {k}")
        cache[id(t)] = val
    return cache[id(term)]


def validate_assignment(
    assertions: Iterable[Term],
    bools: Mapping[Term, bool],
    reals: Mapping[Term, Fraction],
    context: str = "model",
) -> int:
    """Check that every assertion evaluates to True under the assignment.

    Returns the number of assertions checked; raises
    :class:`SoundnessError` on the first violation.
    """
    checked = 0
    for formula in assertions:
        checked += 1
        if evaluate_term(formula, bools, reals) is not True:
            raise SoundnessError(
                f"{context}: assertion #{checked} evaluates to False under "
                f"the solver's assignment (independent re-check): {formula}"
            )
    return checked


def validate_model(assertions: Iterable[Term], model, context: str = "model") -> int:
    """Validate a :class:`repro.smt.Model` against the raw assertions.

    ``model`` must expose ``assignment() -> (bools, reals)``.  The raw
    (pre-preprocessing) assertions are evaluated, so bugs in
    preprocessing, Tseitin conversion, the SAT core, or Simplex are all
    caught by the same check.
    """
    bools, reals = model.assignment()
    checked = validate_assignment(assertions, bools, reals, context=context)
    reg = metrics()
    reg.counter("runtime.models_validated").inc()
    tr = tracer()
    if tr.enabled:
        tr.event("runtime.validate", level=DEBUG, kind="model",
                 assertions=checked)
    return checked


def _desired_holds(trace) -> bool:
    """The trace's environment-specific desired property, numerically.

    Every trace class carries its own exact-arithmetic property check
    (:meth:`~repro.ccac.trace.CexTrace.desired_holds` for the paper's
    lossless property; the lossy subclass adds the loss-budget leg; the
    two-flow trace checks no-starvation), so this dispatch follows the
    counterexample's origin environment automatically.
    """
    return trace.desired_holds()


def _template_violations(trace, candidate) -> list[str]:
    """Re-derive the candidate's cwnd trajectory on the trace.

    Uses the candidate's raw fields directly (not its own
    ``next_cwnd``/``int_rule`` helpers) so the check stays
    independent of the template's evaluation code as well as the SMT
    encoding: the linear rule from ``alphas``/``betas``/``gamma``, the
    guarded rule (a candidate with a ``threshold``) from its threshold
    and per-branch ``mu``/``nu``/``delta``.  Every step reads the
    trace's recorded cwnd and acks.  A two-flow trace runs the check
    once per flow (both flows execute the same candidate on their own
    observations).
    """
    flows = getattr(trace, "flows", None)
    if flows is not None:
        errors = []
        for i, flow in enumerate(flows, start=1):
            errors.extend(
                f"flow {i}: {e}" for e in _template_violations(flow, candidate)
            )
        return errors
    cfg = trace.cfg
    rule = _guarded_rule if hasattr(candidate, "threshold") else _linear_rule
    errors: list[str] = []
    for t in range(cfg.T + 1):
        expected = max(rule(trace, candidate, t), cfg.cwnd_min)
        if trace.cwnd[t] != expected:
            errors.append(
                f"cwnd({t}) = {trace.cwnd[t]} but template rule gives {expected}"
            )
    return errors


def _linear_rule(trace, candidate, t: int) -> Fraction:
    """``sum_i alpha_i*cwnd(t-i) + beta_i*ack(t-i) + gamma`` (unclamped)."""
    total = Fraction(candidate.gamma)
    for i in range(1, len(candidate.betas) + 1):
        back = t - i
        if candidate.alphas[i - 1] != 0:
            total += candidate.alphas[i - 1] * trace.cwnd_at(back)
        if candidate.betas[i - 1] != 0:
            total += candidate.betas[i - 1] * trace.ack_at(back)
    return total


def _guarded_rule(trace, candidate, t: int) -> Fraction:
    """The congested branch when ``cwnd(t-1) - (ack(t-1) - ack(t-2))``
    exceeds the threshold, else the clear branch; each branch is
    ``mu*cwnd(t-1) + nu*(ack(t-1) - ack(t-3)) + delta`` (unclamped)."""
    cwnd_prev = trace.cwnd_at(t - 1)
    queue_est = cwnd_prev - (trace.ack_at(t - 1) - trace.ack_at(t - 2))
    acked2 = trace.ack_at(t - 1) - trace.ack_at(t - 3)
    if queue_est > candidate.threshold:
        mu, nu, delta = (
            candidate.mu_congested, candidate.nu_congested,
            candidate.delta_congested,
        )
    else:
        mu, nu, delta = (
            candidate.mu_clear, candidate.nu_clear, candidate.delta_clear,
        )
    return mu * cwnd_prev + nu * acked2 + delta


def validate_counterexample(trace, candidate=None, must_violate: bool = True) -> None:
    """Replay a counterexample trace before it is fed to the generator.

    Three independent checks, any failure raising :class:`SoundnessError`:

    1. the trace satisfies every environment constraint of its origin
       environment (monotonicity, token bucket, service bounds, eager
       sender; loss semantics for finite-buffer traces; aggregate
       service splits and the min-share assumption for two-flow traces)
       under exact arithmetic — each trace class replays its own
       environment's constraints;
    2. if ``candidate`` is given, the trace's cwnd trajectory matches the
       candidate's template rule at every step (per flow for two-flow
       traces);
    3. if ``must_violate``, the trace actually violates its
       environment's desired property — otherwise it would wrongly prune
       correct candidates.
    """
    errors = trace.check_environment()
    if errors:
        raise SoundnessError(
            "counterexample violates its environment constraints: "
            + "; ".join(errors)
        )
    if candidate is not None:
        errors = _template_violations(trace, candidate)
        if errors:
            raise SoundnessError(
                "counterexample does not follow the candidate's rule: "
                + "; ".join(errors)
            )
    if must_violate and _desired_holds(trace):
        raise SoundnessError(
            "counterexample satisfies the desired property — it refutes "
            "nothing and would corrupt the generator's pruning"
        )
    reg = metrics()
    reg.counter("runtime.cex_validated").inc()
    tr = tracer()
    if tr.enabled:
        tr.event("runtime.validate", level=DEBUG, kind="counterexample")

