"""Replay every committed corpus case, forever.

Each JSON file in ``tests/corpus/cases/`` is a minimized counterexample
a falsification hunt once found (see ``repro.falsify.corpus``).  This
collector rebuilds the CCA from its spec, re-runs the recorded schedule
under the recorded model config, and asserts the verdict **exactly** —
violated flag and bit-for-bit margin.  A regression here means either
the simulator, the oracle, or the CCA changed behaviour on a trace that
once refuted a verdict.
"""

from fractions import Fraction

import pytest

from repro.falsify import PropertyOracle, load_cases, resolve_cca
from repro.falsify.corpus import default_corpus_dir

CASES = load_cases()


def test_corpus_directory_is_where_cases_land():
    assert default_corpus_dir().name == "cases"
    assert default_corpus_dir().parent.name == "corpus"


def test_committed_demo_case_present():
    """The weakened-AIMD demo counterexample ships with the repo; if it
    vanishes, falsification lost its committed regression anchor."""
    assert any(c.cca == "aimd:8" for c in CASES)


@pytest.mark.parametrize(
    "case", CASES, ids=[c.name for c in CASES] or None
)
def test_replay(case):
    cfg = case.model_config()
    factory, _ = resolve_cca(case.cca, cfg)
    oracle = PropertyOracle(cfg, covered_only=case.covered_only)
    verdict = oracle.evaluate(factory(), case.trace_schedule())

    assert verdict.violated == case.verdict["violated"], (
        f"corpus case {case.name}: recorded "
        f"violated={case.verdict['violated']} but replay says "
        f"{verdict.violated} — found by seed={case.provenance.get('seed')} "
        f"gen={case.provenance.get('generation')} "
        f"origin={case.provenance.get('origin')}"
    )
    assert verdict.margin == Fraction(case.verdict["margin"]), (
        f"corpus case {case.name}: margin drifted "
        f"({case.verdict['margin']} -> {verdict.margin})"
    )
    if case.verdict["window_start"] is not None:
        assert verdict.witness is not None
        assert verdict.witness.start == case.verdict["window_start"]
        assert verdict.witness.util == Fraction(case.verdict["util"])
        assert verdict.witness.max_queue == Fraction(case.verdict["max_queue"])
