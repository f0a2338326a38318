"""The CEGIS generator as an incremental SMT query (paper §3.1).

One solver session lives across the whole CEGIS run.  The template's
holes are real variables restricted to the discrete coefficient domain;
every counterexample trace adds a block of constraints describing how a
candidate *would have behaved* on that trace and requiring the
specification ``feasible => desired`` to hold there.

Linearization (paper §3.1.2, "Time per iteration"): the only non-linear
terms are products ``alpha_i * cwnd(t-i)`` of two unknowns.  Because the
coefficient domain is discrete, each product is expanded into the
case-split ``alpha_i == a  =>  prod == a * cwnd(t-i)`` over the domain —
the paper's ``sum(ite(v == a, a*u, 0))`` rewriting.  Products with trace
constants (``beta_i * ack(t-i)``) are linear as-is.

Pruning modes (paper §3.1.2, "Number of iterations"):

* EXACT (baseline): feasibility on a recorded trace means reproducing its
  exact cumulative sends, so each trace eliminates a single behaviour;
* RANGE: feasibility means staying inside the interval
  ``[S_t, C*t - W_t]`` (or ``[S_t, inf)`` where the waste stayed flat),
  so each trace eliminates a whole range of behaviours.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from ..ccac import CexTrace, ModelConfig
from ..cegis import PruningMode
from ..smt import (
    And,
    Implies,
    Not,
    Or,
    Real,
    RealVal,
    SolverSession,
    Sum,
    Term,
    encode_max,
    sat,
)
from .template import CandidateCCA, TemplateSpec


class SmtGenerator:
    """Incremental SMT generator over a :class:`TemplateSpec`."""

    def __init__(
        self,
        spec: TemplateSpec,
        cfg: ModelConfig,
        pruning: PruningMode = PruningMode.RANGE,
    ):
        if not isinstance(spec, TemplateSpec):
            raise ValueError(
                f"SmtGenerator encodes the linear template only, not "
                f"{type(spec).__name__}; use generator='enum'"
            )
        self.spec = spec
        self.cfg = cfg
        self.pruning = pruning
        self.solver = SolverSession()
        self._trace_count = 0
        h = spec.history
        # hole variables
        self.alpha_vars = [Real(f"hole_alpha_{i}") for i in range(1, h + 1)]
        self.beta_vars = [Real(f"hole_beta_{i}") for i in range(1, h + 1)]
        self.gamma_var = Real("hole_gamma")
        self._assert_domains()

    # ------------------------------------------------------------------

    def _assert_domains(self) -> None:
        spec = self.spec
        for a in self.alpha_vars:
            if spec.use_cwnd_history:
                self.solver.add(Or(*[a.eq(RealVal(v)) for v in spec.coeff_domain]))
            else:
                self.solver.add(a.eq(0))
        for b in self.beta_vars:
            self.solver.add(Or(*[b.eq(RealVal(v)) for v in spec.coeff_domain]))
        self.solver.add(
            Or(*[self.gamma_var.eq(RealVal(v)) for v in spec.gamma_domain])
        )

    # ------------------------------------------------------------------

    def _rule_term(self, k: int, t: int, cwnd_vars: dict[int, Term], trace: CexTrace) -> Term:
        """The template RHS at time t on trace k.

        ``cwnd_vars`` maps in-trace times to the candidate's cwnd
        variables; negative times read the trace's recorded pre-history.
        ``ack`` values come from the trace (they are observations).
        """
        spec = self.spec
        parts: list[Term] = [self.gamma_var]
        for i in range(1, spec.history + 1):
            back = t - i
            # beta_i * ack(t-i): ack is a trace constant -> linear
            ack_const = RealVal(trace.ack_at(back))
            parts.append(self.beta_vars[i - 1] * ack_const)
            if spec.use_cwnd_history:
                if back < 0:
                    # pre-history cwnd is a trace constant -> linear
                    parts.append(
                        self.alpha_vars[i - 1] * RealVal(trace.cwnd_at(back))
                    )
                else:
                    # alpha_i * cwnd-variable: case-split over the domain
                    prod = Real(f"g{k}_prod_{i}_{t}")
                    for v in spec.coeff_domain:
                        self.solver.add(
                            Implies(
                                self.alpha_vars[i - 1].eq(RealVal(v)),
                                prod.eq(RealVal(v) * cwnd_vars[back]),
                            )
                        )
                    parts.append(prod)
        return Sum(parts)

    def add_counterexample(self, trace: CexTrace) -> None:
        """Constrain future proposals to satisfy the spec on this trace.

        Counterexamples are applied under their *origin environment's*
        semantics (a tag carried by the trace): lossless-family traces
        use the paper's exact/range pruning; lossy and two-flow traces
        use conservative exact replay (see
        :mod:`repro.ccac.environments`), so pruning across the matrix
        stays sound.
        """
        kind = trace.environment.kind
        if kind == "multiflow":
            self._add_twoflow_counterexample(trace)
            return
        if kind == "lossy":
            self._add_lossy_counterexample(trace)
            return
        k = self._trace_count
        self._trace_count += 1
        # a jitter/threshold environment overrides fields of the query
        # config; the trace carries the effective one
        cfg = trace.cfg
        T = cfg.T
        # candidate cwnd and eager-sender trajectories on this trace
        cwnd_vars, A_vars = self._candidate_trajectories(
            k, trace, cfg, lambda t: trace.S[t - 1]
        )
        A0 = RealVal(trace.A[0])

        # feasibility of this trace under the candidate
        feas_parts: list[Term] = []
        # the recorded initial queue must fit the candidate's initial window
        feas_parts.append(A0 <= RealVal(trace.S_pre[0]) + cwnd_vars[0])
        if self.pruning is PruningMode.EXACT:
            for t in range(1, T + 1):
                feas_parts.append(A_vars[t].eq(RealVal(trace.A[t])))
        else:
            for t, bound in enumerate(trace.range_bounds()):
                if t == 0:
                    continue
                feas_parts.append(A_vars[t] >= RealVal(bound.lower))
                if bound.upper is not None:
                    feas_parts.append(A_vars[t] <= RealVal(bound.upper))
        feasible = And(*feas_parts)

        # desired property with the candidate's A/cwnd and the trace's S
        util_target = cfg.util_thresh * cfg.C * cfg.T
        util_ok = (trace.S[T] - trace.S[0]) >= util_target  # a constant
        limit = RealVal(cfg.delay_thresh * cfg.C * cfg.D)
        queue_parts = [A0 - RealVal(trace.S[0]) <= limit]
        for t in range(1, T + 1):
            queue_parts.append(A_vars[t] - RealVal(trace.S[t]) <= limit)
        desired = And(
            Or(_const_bool(util_ok), cwnd_vars[T] > cwnd_vars[0]),
            Or(And(*queue_parts), cwnd_vars[T] < cwnd_vars[0]),
        )
        self.solver.add(Implies(feasible, desired))

    def _candidate_trajectories(self, k: int, trace, cfg, window_base):
        """Per-trace cwnd variables plus the send recurrence under a
        given per-step window base (``S_{t-1}`` lossless,
        ``S_{t-1} + L_{t-1}`` lossy); returns ``(cwnd_vars, A_vars)``."""
        T = cfg.T
        cwnd_vars: dict[int, Term] = {
            t: Real(f"g{k}_cwnd_{t}") for t in range(T + 1)
        }
        floor = RealVal(cfg.cwnd_min)
        for t in range(T + 1):
            rule = self._rule_term(k, t, cwnd_vars, trace)
            self.solver.add(encode_max(cwnd_vars[t], [rule, floor]))
        A_vars: dict[int, Term] = {
            t: Real(f"g{k}_A_{t}") for t in range(1, T + 1)
        }
        prev: Term = RealVal(trace.A[0])
        for t in range(1, T + 1):
            window_point = RealVal(window_base(t)) + cwnd_vars[t]
            self.solver.add(encode_max(A_vars[t], [prev, window_point]))
            prev = A_vars[t]
        return cwnd_vars, A_vars

    def _exact_feasibility(self, trace, cwnd_vars, A_vars, cfg) -> list[Term]:
        """Exact-replay feasibility: the recorded initial queue fits the
        candidate's initial window and the recorded sends are reproduced
        step for step.  Used for non-lossless traces regardless of the
        requested pruning mode — range intervals are a lossless-only
        construction, and exact replay is the conservative sound choice
        (a diverging candidate is simply not pruned by this trace)."""
        parts: list[Term] = []
        if trace.S_pre:
            parts.append(
                RealVal(trace.A[0]) <= RealVal(trace.S_pre[0]) + cwnd_vars[0]
            )
        for t in range(1, cfg.T + 1):
            parts.append(A_vars[t].eq(RealVal(trace.A[t])))
        return parts

    def _add_lossy_counterexample(self, trace) -> None:
        """A finite-buffer counterexample: exact replay under the lossy
        send recurrence; the desired property gains the loss-budget leg.
        Because feasibility pins the sends to the recorded trace, the
        utilization/queue/loss legs are trace constants — only the cwnd
        comparison legs stay symbolic."""
        k = self._trace_count
        self._trace_count += 1
        cfg = trace.cfg
        T = cfg.T
        cwnd_vars, A_vars = self._candidate_trajectories(
            k, trace, cfg, lambda t: trace.S[t - 1] + trace.L[t - 1]
        )
        feasible = And(*self._exact_feasibility(trace, cwnd_vars, A_vars, cfg))
        limit = cfg.delay_thresh * cfg.C * cfg.D
        util_ok = trace.S[T] - trace.S[0] >= cfg.util_thresh * cfg.C * cfg.T
        queue_ok = all(trace.A[t] - trace.S[t] <= limit for t in range(T + 1))
        loss_ok = trace.L[T] <= trace.loss_thresh * cfg.C * cfg.D
        increases = cwnd_vars[T] > cwnd_vars[0]
        decreases = cwnd_vars[T] < cwnd_vars[0]
        desired = And(
            Or(_const_bool(util_ok), increases),
            Or(_const_bool(queue_ok), decreases),
            Or(_const_bool(loss_ok), decreases),
        )
        self.solver.add(Implies(feasible, desired))

    def _add_twoflow_counterexample(self, trace) -> None:
        """A starvation counterexample: both flows replay the candidate
        exactly on their own observations; the desired property is
        per-flow "phi-fair throughput OR cwnd still growing", with the
        throughputs being trace constants under exact replay."""
        cfg = trace.cfg
        T = cfg.T
        fair = cfg.C * cfg.T / 2
        feas_parts: list[Term] = []
        desired_parts: list[Term] = []
        for flow in trace.flows:
            k = self._trace_count
            self._trace_count += 1
            cwnd_vars, A_vars = self._candidate_trajectories(
                k, flow, cfg, lambda t, flow=flow: flow.S[t - 1]
            )
            feas_parts.extend(
                self._exact_feasibility(flow, cwnd_vars, A_vars, cfg)
            )
            thr_ok = flow.S[T] - flow.S[0] >= trace.phi * fair
            desired_parts.append(
                Or(_const_bool(thr_ok), cwnd_vars[T] > cwnd_vars[0])
            )
        self.solver.add(
            Implies(And(*feas_parts), And(*desired_parts))
        )

    # ------------------------------------------------------------------

    def propose(self) -> Optional[CandidateCCA]:
        """Solve the accumulated constraints; None when UNSAT."""
        if self.solver.check() is not sat:
            return None
        model = self.solver.model()
        alphas = tuple(model.value(a) for a in self.alpha_vars)
        betas = tuple(model.value(b) for b in self.beta_vars)
        gamma = model.value(self.gamma_var)
        return CandidateCCA(alphas, betas, gamma)

    def propose_batch(self, k: int) -> list[CandidateCCA]:
        """Up to ``k`` *distinct* candidates for one portfolio round.

        Diversity is forced with temporary blocking constraints inside a
        pushed frame, popped before returning — so no candidate is
        permanently excluded by having been proposed (only
        :meth:`block` does that)."""
        batch: list[CandidateCCA] = []
        self.solver.push()
        try:
            for _ in range(max(k, 1)):
                candidate = self.propose()
                if candidate is None:
                    break
                batch.append(candidate)
                self.solver.add(Not(self._assignment_term(candidate)))
        finally:
            self.solver.pop()
        return batch

    def _assignment_term(self, candidate: CandidateCCA) -> Term:
        """The conjunction pinning the holes to this candidate."""
        parts = [
            a.eq(RealVal(v)) for a, v in zip(self.alpha_vars, candidate.alphas)
        ] + [
            b.eq(RealVal(v)) for b, v in zip(self.beta_vars, candidate.betas)
        ] + [self.gamma_var.eq(RealVal(candidate.gamma))]
        return And(*parts)

    def block(self, candidate: CandidateCCA) -> None:
        """Exclude exactly this hole assignment (all-solutions mode)."""
        self.solver.add(Not(self._assignment_term(candidate)))


def _const_bool(value: bool) -> Term:
    from ..smt import FALSE, TRUE

    return TRUE if value else FALSE
