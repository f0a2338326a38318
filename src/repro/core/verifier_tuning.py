"""Verifier tuning (paper §5, "Generalizing to other domains").

Building verifiers is the hard part of porting CEGIS to a new domain:
they must "capture diverse/realistic behaviors while avoiding adversarial
behaviors that no heuristics can handle".  The paper proposes using the
CEGIS loop itself to tune a verifier:

    "We can synthesize verifier constraints by asking: ∃ constraints on
    system parameters such that ∀ traces that satisfy these constraints,
    at least one known heuristic achieves its desired goals.  The
    intuition is that different heuristics are designed for different
    realistic environments.  The union of traces over all heuristics
    captures a broad set of behaviors that realistic systems can
    exhibit."

Implementation: given a *panel* of known-good heuristics and a monotone
one-parameter family of environment constraints (the same
:class:`~repro.core.queries.AssumptionTemplate` machinery), find the
weakest parameter such that every panel member provably meets the
property under the constraint.  The resulting constraint is the tuned
verifier environment: adversarial enough that it exercises real
behaviours, tame enough that known-good algorithms survive it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ..ccac import ModelConfig
from ..obs import DEBUG, tracer
from .queries import AssumptionTemplate, _holds_under
from .template import CandidateCCA
from .verifier import CcacVerifier


@dataclass
class TunedVerifier:
    """Outcome of verifier tuning: the synthesized environment constraint."""

    template: AssumptionTemplate
    theta: Optional[Fraction]
    panel: Sequence[CandidateCCA]
    probes: int
    wall_time: float

    @property
    def found(self) -> bool:
        return self.theta is not None

    def describe(self) -> str:
        if self.theta is None:
            return "no environment in the family admits the whole panel"
        return self.template.describe(self.theta)


def tune_verifier(
    panel: Sequence[CandidateCCA],
    cfg: ModelConfig,
    template: AssumptionTemplate,
    precision: Fraction = Fraction(1, 16),
) -> TunedVerifier:
    """Weakest theta under which *every* panel heuristic is verified.

    Monotonicity makes the conjunction over the panel monotone too, so a
    single binary search suffices; each probe is one verifier call per
    panel member (short-circuited on the first failure).
    """
    start = time.perf_counter()
    probes = 0
    tr = tracer()
    # one verifier per panel member: probes alternate between members,
    # so each member keeps its own candidate solver warm across theta
    verifiers = [CcacVerifier(cfg) for _ in panel]

    def panel_holds(theta: Fraction) -> bool:
        nonlocal probes
        for cand, verifier in zip(panel, verifiers):
            probes += 1
            holds = _holds_under(cand, cfg, template, theta, verifier=verifier)
            tr.event(
                "tuning.probe", level=DEBUG, probe=probes,
                theta=str(theta), candidate=str(cand), holds=holds,
            )
            if not holds:
                return False
        return True

    with tr.span("tuning.run", panel=len(panel)):
        lo, hi = template.lo, template.hi
        if not panel_holds(lo):
            return TunedVerifier(template, None, panel, probes, time.perf_counter() - start)
        if panel_holds(hi):
            best = hi
        else:
            best = lo
            while hi - lo > precision:
                mid = (lo + hi) / 2
                if panel_holds(mid):
                    best = mid
                    lo = mid
                else:
                    hi = mid
    return TunedVerifier(template, best, panel, probes, time.perf_counter() - start)
