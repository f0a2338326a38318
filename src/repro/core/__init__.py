"""CCmatic: CEGIS-based synthesis of provably robust congestion control.

The paper's primary contribution.  Public surface:

* :class:`TemplateSpec` / :class:`CandidateCCA` — the search space;
  :class:`ConditionalSpec` / :class:`ConditionalCCA` — the guarded
  template of §4.1, run by the same generator, verifier and driver.
* :func:`synthesize` / :func:`enumerate_all` / :func:`brute_force` —
  the synthesis drivers.
* :class:`CcacVerifier` — per-candidate verification against CCAC-lite.
* :mod:`repro.core.solutions` — classification of synthesized rules.
* :mod:`repro.core.queries` — assumption synthesis and differential
  comparison.
"""

from .conditional import (
    ConditionalCCA,
    ConditionalSpec,
    aimd_candidate,
    rocc_conditional,
)
from .generator_enum import EnumerativeGenerator, satisfies_spec
from .generator_smt import SmtGenerator
from .queries import (
    AssumptionResult,
    AssumptionTemplate,
    DifferentialResult,
    differential_comparison,
    initial_queue_budget,
    per_step_waste_budget,
    total_waste_budget,
    weakest_sufficient_assumption,
)
from .solutions import (
    SolutionReport,
    SteadyState,
    classify,
    history_histogram,
    is_rocc_family,
    is_shift_invariant,
    steady_state,
    summarize,
)
from .synthesizer import (
    SynthesisQuery,
    SynthesisResult,
    brute_force,
    enumerate_all,
    make_generator,
    synthesize,
)
from .template import (
    LARGE_DOMAIN,
    SMALL_DOMAIN,
    CandidateCCA,
    TemplateSpec,
    constant_cwnd,
    named_cca,
    paper_eq_iii,
    rocc,
    table1_spaces,
)
from .verifier import CcacVerifier, VerificationResult
from .verifier_tuning import TunedVerifier, tune_verifier

__all__ = [
    "AssumptionResult",
    "ConditionalCCA",
    "ConditionalSpec",
    "TunedVerifier",
    "aimd_candidate",
    "rocc_conditional",
    "tune_verifier",
    "AssumptionTemplate",
    "CandidateCCA",
    "CcacVerifier",
    "DifferentialResult",
    "EnumerativeGenerator",
    "LARGE_DOMAIN",
    "SMALL_DOMAIN",
    "SmtGenerator",
    "SolutionReport",
    "SteadyState",
    "SynthesisQuery",
    "SynthesisResult",
    "VerificationResult",
    "TemplateSpec",
    "brute_force",
    "classify",
    "constant_cwnd",
    "named_cca",
    "differential_comparison",
    "enumerate_all",
    "history_histogram",
    "is_rocc_family",
    "is_shift_invariant",
    "make_generator",
    "paper_eq_iii",
    "per_step_waste_budget",
    "initial_queue_budget",
    "rocc",
    "satisfies_spec",
    "steady_state",
    "summarize",
    "synthesize",
    "table1_spaces",
    "total_waste_budget",
    "weakest_sufficient_assumption",
]
