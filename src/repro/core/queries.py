"""Assumption synthesis and differential comparison (paper §2 and §4.1).

The paper's second and third query types ask for *environment assumptions*
— human-interpretable logical constraints on network behaviour — instead
of concrete counterexamples:

* **Identifying assumptions**: "does there exist an assumption such that
  for all traces, the trace ensures the desired property iff it satisfies
  the assumption".  §4.1 notes that the practical target is the *weakest
  sufficient* assumption.
* **Differential comparison**: given CCAs A and B, what additional
  constraints does B need on top of the environments where A works.

We implement the parameterized-inequality template §4.1 suggests ("a set
of parameterized inequalities, similar to [40]").  Each
:class:`AssumptionTemplate` is a family of constraints monotone in one
rational parameter theta (larger theta = weaker assumption = more network
behaviours allowed); the weakest sufficient theta is found by binary
search, each probe being one verifier call with the assumption conjoined
to the environment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ..ccac import CcacModel, ModelConfig
from ..ccac.environments import EnvironmentSpec, lossless_environment
from ..smt import And, CheckOptions, RealVal, Term
from .template import CandidateCCA
from .verifier import CcacVerifier


@dataclass(frozen=True)
class AssumptionTemplate:
    """A one-parameter family of environment assumptions.

    ``build(model, theta)`` returns the assumption constraint for a given
    parameter value.  The family must be monotone: any trace satisfying
    the assumption at theta also satisfies it at any theta' >= theta.
    ``lo``/``hi`` bracket the search; ``describe`` renders the synthesized
    assumption as the human-readable constraint the paper advertises.
    """

    name: str
    build: Callable[[CcacModel, Fraction], Term]
    lo: Fraction
    hi: Fraction
    describe: Callable[[Fraction], str]


def total_waste_budget(cfg: ModelConfig) -> AssumptionTemplate:
    """Assumption family: "the network wastes at most theta tokens over
    the trace" — i.e. bounds ACK aggregation / link stalls."""
    return AssumptionTemplate(
        name="total_waste",
        build=lambda net, theta: net.W[cfg.T] <= RealVal(theta),
        lo=Fraction(0),
        hi=Fraction(cfg.C * cfg.T),
        describe=lambda theta: f"network wastes at most {theta} * C*D tokens per {cfg.T} RTTs",
    )


def per_step_waste_budget(cfg: ModelConfig) -> AssumptionTemplate:
    """Assumption family: "waste grows at most theta per RTT" — a bound on
    instantaneous jitter."""

    def build(net: CcacModel, theta: Fraction) -> Term:
        limit = RealVal(theta)
        return And(
            *[net.W[t] - net.W[t - 1] <= limit for t in range(1, cfg.T + 1)]
        )

    return AssumptionTemplate(
        name="per_step_waste",
        build=build,
        lo=Fraction(0),
        hi=Fraction(cfg.C * cfg.T),
        describe=lambda theta: f"network wastes at most {theta} * C*D tokens per RTT",
    )


def initial_queue_budget(cfg: ModelConfig) -> AssumptionTemplate:
    """Assumption family: "the flow starts with at most theta queued"."""
    return AssumptionTemplate(
        name="initial_queue",
        build=lambda net, theta: net.A[0] <= RealVal(theta),
        lo=Fraction(0),
        hi=Fraction(cfg.initial_queue_max),
        describe=lambda theta: f"initial queue is at most {theta} * C*D bytes",
    )


@dataclass
class AssumptionResult:
    """Outcome of a weakest-sufficient-assumption query."""

    candidate: CandidateCCA
    template: AssumptionTemplate
    theta: Optional[Fraction]  # None: no theta in [lo, hi] suffices
    assumption: Optional[str]
    probes: int
    wall_time: float
    #: probes the solver could not decide within the given
    #: :class:`~repro.smt.CheckOptions` budget (counted as insufficient)
    unknown_probes: int = 0

    @property
    def found(self) -> bool:
        return self.theta is not None


def weakest_theta(
    sufficient: Callable[[Fraction], bool],
    template: AssumptionTemplate,
    precision: Fraction,
) -> Optional[Fraction]:
    """The largest theta in ``[template.lo, template.hi]``, to within
    ``precision``, at which the monotone predicate ``sufficient`` holds;
    None when it fails already at ``lo``.

    Probes ``lo``, then ``hi``, then bisects between them; the one search
    of :func:`weakest_sufficient_assumption` and
    :func:`~repro.core.verifier_tuning.tune_verifier`.
    """
    lo, hi = template.lo, template.hi
    if not sufficient(lo):
        return None
    if sufficient(hi):
        return hi
    # invariant: sufficient(lo), not sufficient(hi)
    while hi - lo > precision:
        mid = (lo + hi) / 2
        if sufficient(mid):
            lo = mid
        else:
            hi = mid
    return lo


def weakest_sufficient_assumption(
    candidate: CandidateCCA,
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction = Fraction(1, 16),
    environment: EnvironmentSpec = lossless_environment(),
    options: Optional[CheckOptions] = None,
    cache=None,
) -> AssumptionResult:
    """Binary-search the weakest (largest-theta) sufficient assumption.

    Querying only for *sufficiency* would trivially return the assumption
    "False" (paper §4.1); restricting to a monotone family and maximizing
    theta is the paper's "weakest sufficient assumption" resolution.

    ``environment`` runs the query in another cell of the CCAC matrix
    (the assumption template must build over that cell's model
    variables); ``options`` carries the per-probe solver budget
    (``deadline`` bounds each probe's wall clock).
    """
    start = time.perf_counter()
    probes = 0
    unknown_probes = 0
    verifier = CcacVerifier(cfg, cache=cache, environments=(environment,))
    net = verifier.network()
    opts = options or CheckOptions()

    def sufficient(theta: Fraction) -> bool:
        nonlocal probes, unknown_probes
        probes += 1
        result = verifier.find_counterexample(
            candidate,
            max_conflicts=opts.max_conflicts,
            deadline=opts.deadline,
            extra_constraints=[template.build(net, theta)],
        )
        if result.unknown:
            unknown_probes += 1
        return result.verified

    theta = weakest_theta(sufficient, template, precision)
    return AssumptionResult(
        candidate,
        template,
        theta,
        None if theta is None else template.describe(theta),
        probes,
        time.perf_counter() - start,
        unknown_probes,
    )


@dataclass
class DifferentialResult:
    """Outcome of a differential comparison between two CCAs."""

    template: AssumptionTemplate
    theta_a: Optional[Fraction]
    theta_b: Optional[Fraction]
    verdict: str

    def gap(self) -> Optional[Fraction]:
        if self.theta_a is None or self.theta_b is None:
            return None
        return self.theta_a - self.theta_b


def differential_comparison(
    cand_a: CandidateCCA,
    cand_b: CandidateCCA,
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction = Fraction(1, 16),
    environment: EnvironmentSpec = lossless_environment(),
    options: Optional[CheckOptions] = None,
) -> DifferentialResult:
    """Compare two CCAs through the lens of one assumption family:
    which tolerates a weaker (larger-theta) environment assumption?

    This answers the paper's operator question "what heuristic should I
    deploy in my custom system" with an interpretable constraint rather
    than individual traces.
    """
    ra = weakest_sufficient_assumption(
        cand_a, cfg, template, precision,
        environment=environment, options=options,
    )
    rb = weakest_sufficient_assumption(
        cand_b, cfg, template, precision,
        environment=environment, options=options,
    )
    if ra.theta is None and rb.theta is None:
        verdict = "neither CCA meets the property under any assumption in the family"
    elif rb.theta is None:
        verdict = "A works under some assumption; B under none in the family"
    elif ra.theta is None:
        verdict = "B works under some assumption; A under none in the family"
    elif ra.theta > rb.theta:
        verdict = (
            f"A tolerates strictly more network behaviours "
            f"({template.describe(ra.theta)} vs {template.describe(rb.theta)})"
        )
    elif ra.theta < rb.theta:
        verdict = (
            f"B tolerates strictly more network behaviours "
            f"({template.describe(rb.theta)} vs {template.describe(ra.theta)})"
        )
    else:
        verdict = f"A and B tolerate the same assumption ({template.describe(ra.theta)})"
    return DifferentialResult(template, ra.theta, rb.theta, verdict)
