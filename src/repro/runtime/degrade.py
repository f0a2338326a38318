"""Graceful degradation ladder: finish with *some* verdict, honestly.

A long synthesis should not die because the worst-case-counterexample
search (an expensive binary-search maximization) times out, nor loop
forever on a verifier that keeps answering ``unknown``.  The ladder
weakens the search in controlled, recorded steps:

1. **worst-case fallback** — a worst-case search that comes back
   ``unknown`` is retried as a plain counterexample search (any
   counterexample still makes progress, it just prunes less);
2. **worst-case disable** — after ``wce_fail_limit`` fallbacks the
   worst-case search is skipped outright;
3. **precision step-down** — after ``unknown_threshold`` consecutive
   inconclusive calls, ``wce_precision`` is coarsened (doubled, up to 1)
   so future binary searches need fewer probes.

Every step emits a structured ``runtime.degrade`` event and is appended
to :attr:`ResilientVerifier.degradations`, so a run that finishes
degraded carries an explicit record of exactly what was weakened.
Results produced after (or because of) a degradation are flagged
``degraded=True``; the CEGIS loop reports them as ``stop_reason
= degraded`` rather than pretending the budget simply ran out.

:class:`~repro.runtime.errors.SoundnessError` is deliberately *not*
handled anywhere in this module: validation failures must crash the run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from ..obs import WARN, metrics, tracer

__all__ = ["ResilientVerifier", "default_precision_ladder"]


def default_precision_ladder(start: Fraction) -> tuple[Fraction, ...]:
    """Coarsening schedule for ``wce_precision``: double up to 1."""
    rungs = [Fraction(start)]
    while rungs[-1] < 1:
        rungs.append(min(rungs[-1] * 2, Fraction(1)))
    return tuple(rungs)


def _mark_degraded(result):
    """Flag a verification result as degraded (best effort, duck-typed)."""
    try:
        result.degraded = True
    except AttributeError:  # pragma: no cover - frozen result types
        pass
    return result


class ResilientVerifier:
    """Wraps a verifier with the degradation ladder.

    ``base`` is any object with the :class:`repro.cegis.interfaces.Verifier`
    shape whose results carry ``unknown``; ``wce_precision`` is stepped on
    the base when it exposes that attribute (both
    :class:`repro.core.CcacVerifier` and
    :class:`repro.engine.portfolio.PortfolioVerifier` do).
    """

    def __init__(
        self,
        base,
        precision_ladder: Optional[Sequence[Fraction]] = None,
        unknown_threshold: int = 2,
        wce_fail_limit: int = 3,
    ):
        self.base = base
        if precision_ladder is None:
            start = getattr(base, "wce_precision", None)
            precision_ladder = (
                default_precision_ladder(start) if start is not None else ()
            )
        self.precision_ladder = tuple(Fraction(p) for p in precision_ladder)
        self.unknown_threshold = unknown_threshold
        self.wce_fail_limit = wce_fail_limit
        self.degradations: list[dict] = []
        self.calls = 0
        self._rung = 0
        self._unknown_streak = 0
        self._wce_failures = 0
        self._wce_disabled = False

    # -- bookkeeping ----------------------------------------------------------

    def _degrade(self, kind: str, msg: str, **detail) -> None:
        event = {"kind": kind, "call": self.calls, **detail}
        self.degradations.append(event)
        metrics().counter("runtime.degradations").inc()
        tr = tracer()
        if tr.enabled:
            tr.event("runtime.degrade", level=WARN, msg=f"[runtime] {msg}", **event)

    def _step_precision(self) -> bool:
        """Coarsen the base's ``wce_precision`` one rung; False at bottom."""
        if self._rung + 1 >= len(self.precision_ladder):
            return False
        if not hasattr(self.base, "wce_precision"):
            return False
        old = self.precision_ladder[self._rung]
        self._rung += 1
        new = self.precision_ladder[self._rung]
        self.base.wce_precision = new
        self._degrade(
            "wce_precision",
            f"stepping wce_precision {old} -> {new} after "
            f"{self._unknown_streak} consecutive unknowns",
            old=str(old),
            new=str(new),
        )
        return True

    # -- the ladder -----------------------------------------------------------

    def _climb(self, attempt, worst_case: bool):
        """Run one verifier call through the ladder.

        ``attempt(wce)`` makes the call and returns ``(outcome, result)``
        — the value handed back to the caller and the verification
        result the ladder judges (for a single candidate they are the
        same object; for a portfolio round the result is the verdict's).
        """
        self.calls += 1
        want_wce = worst_case and not self._wce_disabled
        # the caller asked for wce and isn't getting it
        degraded_call = worst_case and self._wce_disabled
        outcome, result = attempt(want_wce)
        if want_wce and getattr(result, "unknown", False):
            # rung 1: worst-case search timed out -> plain counterexample
            self._wce_failures += 1
            self._degrade(
                "wce_fallback",
                "worst-case counterexample search inconclusive; "
                "falling back to plain search",
                failures=self._wce_failures,
            )
            degraded_call = True
            outcome, result = attempt(False)
            if not self._wce_disabled and self._wce_failures >= self.wce_fail_limit:
                self._wce_disabled = True
                self._degrade(
                    "wce_disabled",
                    f"disabling worst-case search after "
                    f"{self._wce_failures} failures",
                )
        if getattr(result, "unknown", False):
            self._unknown_streak += 1
            degraded_call = True
            if self._unknown_streak >= self.unknown_threshold:
                # rung 2: repeated unknowns -> coarsen the wce precision
                if self._step_precision():
                    self._unknown_streak = 0
        else:
            self._unknown_streak = 0
        if degraded_call:
            _mark_degraded(result)
        return outcome

    # -- the verifier protocol ------------------------------------------------

    def find_counterexample(self, candidate, worst_case: bool = False, deadline=None):
        def attempt(wce):
            result = self.base.find_counterexample(
                candidate, worst_case=wce, deadline=deadline
            )
            return result, result

        return self._climb(attempt, worst_case)

    def verify(self, candidate) -> bool:
        return self.find_counterexample(candidate).verified

    # -- batched rounds (only exposed when the base is batch-capable) ---------

    def __getattr__(self, name):
        # hasattr(wrapper, "verify_batch") must mirror the base: the
        # CEGIS loop feature-detects batch support, and advertising it
        # over a non-batch base would break portfolio fallback
        if name == "verify_batch" and hasattr(self.base, "verify_batch"):
            return self._verify_batch
        raise AttributeError(name)

    def _verify_batch(self, candidates, worst_case: bool = False, deadline=None):
        """One portfolio round under the same degradation ladder: a
        round nobody won carries an unknown result."""
        def attempt(wce):
            verdict = self.base.verify_batch(
                candidates, worst_case=wce, deadline=deadline
            )
            return verdict, verdict.result

        return self._climb(attempt, worst_case)
