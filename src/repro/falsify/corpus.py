"""Regression corpus: every falsified verdict becomes a committed test.

When the falsifier finds a violating trace, the schedule is minimized by
greedy shrinking (:func:`minimize_schedule`) and written as a JSON
:class:`CorpusCase` into ``tests/corpus/cases/``.  The pytest collector
in ``tests/corpus/test_replay.py`` globs that directory and replays each
case forever: the CCA is rebuilt from its spec, the schedule re-run, and
the recorded verdict (violated flag and exact margin) asserted with
``==`` — Fractions are round-tripped as strings, so replay is bit-exact.

A case carries its full provenance — the search seed/generation/index
that found it and the reason it was recorded (``model-gap`` vs
``soundness``) — so a failing replay points straight back at the hunt
that produced it.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from ..runtime.serialize import decode_config, encode_config
from .schedule import SCHEMA_VERSION, Segment, TraceSchedule

__all__ = [
    "CorpusCase",
    "default_corpus_dir",
    "load_cases",
    "minimize_schedule",
    "write_case",
]

CASE_SCHEMA = 1


def default_corpus_dir() -> Path:
    """The committed corpus location (tests/corpus/cases at repo root)."""
    return Path(__file__).resolve().parents[3] / "tests" / "corpus" / "cases"


# -- greedy minimization ------------------------------------------------------


def minimize_schedule(
    violates: Callable[[TraceSchedule], bool],
    schedule: TraceSchedule,
    max_checks: int = 400,
) -> TraceSchedule:
    """Greedy shrink of a violating schedule, preserving the violation.

    Tries, in order, per fixed-point round: dropping whole segments,
    halving then decrementing segment durations, zeroing the initial
    queue, and normalizing policy/jitter to the quiet baseline
    (``ideal``/1).  Each candidate is kept only if ``violates`` still
    returns True, so the result is a local minimum: no single remaining
    simplification can be applied without losing the violation.
    """
    if not violates(schedule):
        raise ValueError("minimize_schedule needs a violating schedule")
    checks = 0

    def still_violates(candidate: TraceSchedule) -> bool:
        nonlocal checks
        if checks >= max_checks:
            return False
        checks += 1
        return violates(candidate)

    current = schedule
    changed = True
    while changed and checks < max_checks:
        changed = False

        # drop whole segments
        if len(current.segments) > 1:
            for i in range(len(current.segments)):
                segs = current.segments[:i] + current.segments[i + 1:]
                cand = TraceSchedule(segs, current.initial_queue)
                if still_violates(cand):
                    current = cand
                    changed = True
                    break
            if changed:
                continue

        # shrink durations: halve, then single-tick trims
        for i, seg in enumerate(current.segments):
            for ticks in (seg.ticks // 2, seg.ticks - 1):
                if ticks < 1 or ticks >= seg.ticks:
                    continue
                segs = list(current.segments)
                segs[i] = Segment(ticks, seg.rate, seg.policy, seg.jitter)
                cand = TraceSchedule(tuple(segs), current.initial_queue)
                if still_violates(cand):
                    current = cand
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue

        # drain the initial queue
        if current.initial_queue > 0:
            cand = TraceSchedule(current.segments, Fraction(0))
            if still_violates(cand):
                current = cand
                changed = True
                continue

        # quiet the adversary: ideal policy, baseline jitter
        for i, seg in enumerate(current.segments):
            for quiet in (
                Segment(seg.ticks, seg.rate, "ideal", seg.jitter),
                Segment(seg.ticks, seg.rate, seg.policy, min(seg.jitter, 1)),
            ):
                if quiet == seg:
                    continue
                segs = list(current.segments)
                segs[i] = quiet
                cand = TraceSchedule(tuple(segs), current.initial_queue)
                if still_violates(cand):
                    current = cand
                    changed = True
                    break
            if changed:
                break

    return current


# -- case records -------------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    """One committed regression case: a falsified verdict, minimized."""

    name: str
    #: CCA spec string understood by :func:`repro.falsify.resolve_cca`
    cca: str
    #: ModelConfig fields as :func:`repro.runtime.serialize.encode_config`
    #: writes them (Fractions as strings)
    cfg: dict
    #: :meth:`TraceSchedule.to_dict` payload
    schedule: dict
    #: where the hunt found it: seed/generation/index/origin
    provenance: dict
    #: the asserted outcome: violated flag + exact margin/util/max_queue
    verdict: dict
    schema: int = CASE_SCHEMA

    @property
    def covered_only(self) -> bool:
        """The oracle mode that judged this case: ``model-gap`` cases
        were found beyond the fragment (every window counts); soundness
        and plain falsifications only count model-covered windows."""
        return self.provenance.get("origin") != "model-gap"

    def model_config(self):
        return decode_config(self.cfg)

    def trace_schedule(self) -> TraceSchedule:
        return TraceSchedule.from_dict(self.schedule)


def make_case(
    cca_spec: str,
    cfg,
    schedule: TraceSchedule,
    verdict,
    provenance: dict,
    name: Optional[str] = None,
) -> CorpusCase:
    """Build a :class:`CorpusCase` from a falsification outcome."""
    if name is None:
        slug = re.sub(r"[^a-z0-9]+", "-", cca_spec.lower()).strip("-")
        name = (
            f"{slug}-s{provenance.get('seed', 0)}"
            f"g{provenance.get('generation', 0)}"
            f"i{provenance.get('index', 0)}"
        )
    w = verdict.witness
    return CorpusCase(
        name=name,
        cca=cca_spec,
        cfg=encode_config(cfg),
        schedule=schedule.to_dict(),
        provenance=dict(provenance),
        verdict={
            "violated": verdict.violated,
            "margin": str(verdict.margin),
            "window_start": None if w is None else w.start,
            "util": None if w is None else str(w.util),
            "max_queue": None if w is None else str(w.max_queue),
        },
    )


def write_case(case: CorpusCase, corpus_dir: Optional[Path] = None) -> Path:
    """Persist a case as ``<corpus_dir>/<name>.json``; returns the path."""
    directory = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    path.write_text(json.dumps(asdict(case), indent=2, sort_keys=True) + "\n")
    return path


def load_cases(corpus_dir: Optional[Path] = None) -> list[CorpusCase]:
    """Load every committed case, sorted by name (deterministic order)."""
    directory = Path(corpus_dir) if corpus_dir else default_corpus_dir()
    if not directory.is_dir():
        return []
    cases = []
    for path in sorted(directory.glob("*.json")):
        data = json.loads(path.read_text())
        if data.get("schema") != CASE_SCHEMA:
            raise ValueError(
                f"{path}: unsupported corpus schema {data.get('schema')!r}"
            )
        if data.get("schedule", {}).get("schema") != SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported schedule schema")
        cases.append(CorpusCase(**data))
    return cases
