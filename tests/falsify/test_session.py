"""Session verdict semantics: falsified / soundness / survived paths."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.ccas import AIMD, RoCC
from repro.falsify import FalsifyBudget, falsify_cca, load_cases, resolve_cca
from repro.runtime.errors import SoundnessError

BUDGET = FalsifyBudget(evaluations=400, population=16)


class TestVerdictPaths:
    def test_falsified_path_writes_corpus(self, tmp_path):
        cfg = ModelConfig()
        report = falsify_cca(
            lambda: AIMD(delay_threshold=Fraction(8)), cfg,
            spec="aimd:8", budget=BUDGET, corpus_dir=tmp_path,
        )
        assert not report.survived
        assert report.minimized and report.corpus_paths
        cases = load_cases(tmp_path)
        assert len(cases) == len(report.corpus_paths)
        assert cases[0].provenance["origin"] == "falsified"
        assert "FALSIFIED" in report.describe()
        assert "minimized" in report.describe()

    def test_soundness_path_raises_and_records(self, tmp_path):
        """An in-fragment violation of a (claimed) verified CCA is a
        soundness incident: the case is committed, then the error flies."""
        cfg = ModelConfig()
        with pytest.raises(SoundnessError, match="aimd:8"):
            falsify_cca(
                lambda: AIMD(delay_threshold=Fraction(8)), cfg,
                spec="aimd:8", budget=BUDGET, verified=True,
                corpus_dir=tmp_path,
            )
        cases = load_cases(tmp_path)
        assert cases
        assert cases[0].provenance["origin"] == "soundness"

    def test_survived_path(self, tmp_path):
        cfg = ModelConfig()
        report = falsify_cca(
            RoCC, cfg, spec="rocc",
            budget=FalsifyBudget(evaluations=150), verified=True,
            corpus_dir=tmp_path,
        )
        assert report.survived
        assert report.corpus_paths == []
        assert load_cases(tmp_path) == []
        assert report.search.attempts == 150

    def test_beyond_fragment_is_advisory(self, tmp_path):
        """RoCC beyond the fragment (outages, rate steps): any violation
        is a model-gap finding — no SoundnessError even with
        verified=True, origin recorded as model-gap."""
        cfg = ModelConfig()
        report = falsify_cca(
            RoCC, cfg, spec="rocc", budget=BUDGET, seed=1,
            in_fragment=False, verified=True, corpus_dir=tmp_path,
        )
        for case in load_cases(tmp_path):
            assert case.provenance["origin"] == "model-gap"
            assert not case.covered_only
        if not report.survived:
            assert "beyond-fragment finding" in report.describe()

    def test_stats_count_failed_hunts_as_non_survivals(self, tmp_path):
        cfg = ModelConfig()
        report = falsify_cca(
            lambda: AIMD(delay_threshold=Fraction(8)), cfg,
            spec="aimd:8", budget=BUDGET, corpus_dir=tmp_path,
        )
        assert report.search.attempts > 0
        assert not report.survived


class TestResolveCca:
    def test_known_specs(self):
        for spec, verifiable in (
            ("rocc", True), ("eq3", True), ("const:2", True),
            ("aimd", False), ("aimd:8", False), ("rocc-native", False),
        ):
            factory, smt_ok = resolve_cca(spec)
            assert smt_ok is verifiable
            assert factory() is not factory()  # fresh instance per call

    def test_unknown_spec(self):
        with pytest.raises(ValueError, match="unknown CCA spec"):
            resolve_cca("bbr")
