"""Adversarial falsification fleet.

Everything the SMT verifier *claims* gets hunted here: a CC-Fuzz-style
genetic search (:mod:`~repro.falsify.search`) evolves trace schedules
(:mod:`~repro.falsify.schedule`) toward violations of the paper's
desired property as judged on concrete simulator runs
(:mod:`~repro.falsify.oracle`); mass cross-validation grids
(:mod:`~repro.falsify.grid`) sweep link-rate/jitter/policy/buffer
configurations across worker processes; and every disagreement between
the simulator and an SMT verdict is minimized into a committed
regression corpus (:mod:`~repro.falsify.corpus`) that pytest replays
forever.

The dividing line throughout is :meth:`TraceSchedule.in_fragment`: a
violation found *inside* the SMT model's fragment on a verified CCA is
a soundness incident (``SoundnessError`` + flight dump + corpus case);
one found *beyond* the fragment is a model-gap finding — interesting,
reported, but not a contradiction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .corpus import (
    CorpusCase,
    default_corpus_dir,
    load_cases,
    make_case,
    minimize_schedule,
    write_case,
)
from .grid import ExperimentManifest, GridPoint, GridSpec, run_grid
from .oracle import PropertyOracle, TraceVerdict, WindowReport
from .schedule import (
    SEGMENT_POLICIES,
    ScheduleSpace,
    Segment,
    TraceSchedule,
    constant_schedule,
    run_schedule,
)
from .search import (
    FalsifyBudget,
    FalsifyResult,
    FoundViolation,
    TraceSearch,
    replay_schedule,
)
from .session import FalsifyReport, falsify_cca

__all__ = [
    "SEGMENT_POLICIES",
    "CorpusCase",
    "ExperimentManifest",
    "FalsifyBudget",
    "FalsifyReport",
    "FalsifyResult",
    "FoundViolation",
    "GridPoint",
    "GridSpec",
    "PropertyOracle",
    "ScheduleSpace",
    "Segment",
    "TraceSchedule",
    "TraceSearch",
    "TraceVerdict",
    "WindowReport",
    "constant_schedule",
    "default_corpus_dir",
    "falsify_cca",
    "load_cases",
    "make_case",
    "minimize_schedule",
    "replay_schedule",
    "resolve_cca",
    "run_grid",
    "run_schedule",
    "write_case",
]


def resolve_cca(spec: str) -> tuple[Callable[[], object], bool]:
    """Resolve a CLI CCA spec into ``(factory, smt_verifiable)``.

    ``factory`` builds a fresh executable CCA per call.  ``smt_verifiable``
    is True when the spec names a template the SMT verifier can also
    judge (so falsification can be cross-checked against a verdict).

    Specs::

        rocc            TemplateCCA of the paper's RoCC template
        eq3             TemplateCCA of the paper's equation (iii)
        const:<cwnd>    TemplateCCA of a constant-cwnd template
        rocc-native     the hand-written RoCC (executable only)
        aimd[:<thresh>] AIMD with optional delay threshold
                        (aimd:8 is the deliberately weakened demo)
        cubic[:<thresh>], vegas, copa
    """
    from ..ccas import AIMD, CopaLike, CubicLike, RoCC, TemplateCCA, VegasLike
    from ..core import named_cca

    candidate = named_cca(spec)
    if candidate is not None:
        return (lambda: TemplateCCA(candidate)), True
    if spec == "rocc-native":
        return (lambda: RoCC()), False
    if spec == "aimd" or spec.startswith("aimd:"):
        thresh = Fraction(spec.split(":", 1)[1]) if ":" in spec else Fraction(2)
        return (lambda: AIMD(delay_threshold=thresh)), False
    if spec == "cubic" or spec.startswith("cubic:"):
        thresh = Fraction(spec.split(":", 1)[1]) if ":" in spec else Fraction(2)
        return (lambda: CubicLike(delay_threshold=thresh)), False
    if spec == "vegas":
        return (lambda: VegasLike()), False
    if spec == "copa":
        return (lambda: CopaLike()), False
    raise ValueError(
        f"unknown CCA spec {spec!r} (try rocc, eq3, const:<cwnd>, "
        f"aimd[:<thresh>], cubic[:<thresh>], vegas, copa, rocc-native)"
    )
