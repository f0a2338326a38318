"""Falsification sessions: search + verdict semantics + corpus wiring.

:func:`falsify_cca` runs one genetic hunt and applies the fleet's
verdict discipline:

* **in-fragment violation, SMT-verified CCA** — the simulator (a
  refinement of the model) and the solver disagree: that is a soundness
  incident.  The flight recorder dumps, the schedule is minimized into
  a committed corpus case tagged ``origin=soundness``, and
  :class:`~repro.runtime.errors.SoundnessError` is raised.  Soundness
  failures are never downgraded to a report.
* **in-fragment violation, unverified CCA** — an honest falsification
  (the whole point of ``ccmatic falsify aimd:8``): minimized, recorded
  with ``origin=falsified``, reported.
* **beyond-fragment violation** — a model-gap finding: the behaviour
  is outside what the SMT encoding can express, so there is no verdict
  to contradict.  Recorded with ``origin=model-gap``, reported as
  advisory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from ..obs import metrics, tracer
from ..obs.flight import dump_flight
from ..runtime.errors import SoundnessError
from .corpus import make_case, minimize_schedule, write_case
from .oracle import PropertyOracle
from .schedule import ScheduleSpace, TraceSchedule
from .search import FalsifyBudget, FalsifyResult, TraceSearch

__all__ = ["FalsifyReport", "falsify_cca"]


@dataclass
class FalsifyReport:
    """Outcome of one falsification session (non-soundness paths)."""

    cca: str
    in_fragment: bool
    verified: bool
    search: FalsifyResult
    #: minimized violating schedules, parallel to ``corpus_paths``
    minimized: list[TraceSchedule] = field(default_factory=list)
    corpus_paths: list[Path] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return self.search.survived

    def describe(self) -> str:
        scope = "in-fragment" if self.in_fragment else "beyond-fragment"
        head = f"{self.cca} [{scope}]: {self.search.describe()}"
        if self.survived:
            return head
        lines = [head]
        for schedule, path in zip(self.minimized, self.corpus_paths):
            where = str(path) if path else "(not recorded)"
            lines.append(f"  minimized {schedule.describe()} -> {where}")
        if not self.in_fragment:
            lines.append(
                "  note: beyond-fragment finding — outside the SMT model, "
                "no verdict contradicted"
            )
        return "\n".join(lines)


def falsify_cca(
    factory: Callable[[], object],
    cfg,
    *,
    spec: str = "<anonymous>",
    budget: FalsifyBudget = FalsifyBudget(),
    seed: int = 0,
    ticks: int = 120,
    in_fragment: bool = True,
    verified: bool = False,
    space: Optional[ScheduleSpace] = None,
    corpus_dir: Optional[Path] = None,
    write_corpus: bool = True,
) -> FalsifyReport:
    """Hunt for property violations of one CCA; apply verdict semantics.

    ``verified=True`` asserts an SMT "verified" verdict exists for this
    CCA under ``cfg`` — an in-fragment violation then raises
    :class:`SoundnessError` (after dumping flight state and committing
    the minimized corpus case).
    """
    if space is None:
        space = (
            ScheduleSpace.from_model(cfg, ticks=ticks)
            if in_fragment
            else ScheduleSpace.beyond_fragment(cfg, ticks=ticks)
        )
    oracle = PropertyOracle(cfg, covered_only=in_fragment)
    tr = tracer()
    reg = metrics()
    with tr.span("falsify.session", cca=spec, seed=seed,
                 in_fragment=in_fragment, verified=verified):
        result = TraceSearch(factory, oracle, space, budget, seed=seed).run()
        report = FalsifyReport(
            cca=spec, in_fragment=in_fragment, verified=verified,
            search=result,
        )
        if result.survived:
            return report

        def violates(schedule: TraceSchedule) -> bool:
            return oracle.evaluate(factory(), schedule).violated

        if in_fragment and verified:
            origin = "soundness"
        elif in_fragment:
            origin = "falsified"
        else:
            origin = "model-gap"
        for found in result.violations:
            minimized = minimize_schedule(violates, found.schedule)
            verdict = oracle.evaluate(factory(), minimized)
            report.minimized.append(minimized)
            path: Optional[Path] = None
            if write_corpus:
                case = make_case(
                    spec, cfg, minimized, verdict,
                    provenance={
                        "seed": found.seed,
                        "generation": found.generation,
                        "index": found.index,
                        "origin": origin,
                        "evaluations": budget.evaluations,
                        "population": budget.population,
                    },
                )
                path = write_case(case, corpus_dir)
            report.corpus_paths.append(path)
        if origin == "soundness":
            reg.counter("falsify.soundness").inc()
            dump_flight("falsify-disagreement")
            recorded = ", ".join(str(p) for p in report.corpus_paths if p)
            raise SoundnessError(
                f"falsifier refuted SMT-verified CCA {spec!r}: in-fragment "
                f"schedule {report.minimized[0].describe()} violates the "
                f"desired property ({result.violations[0].verdict.describe()})"
                + (f"; corpus case(s): {recorded}" if recorded else "")
            )
        return report
