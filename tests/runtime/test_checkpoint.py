"""Atomic checkpoints: exact round-trips, fingerprint guards, crash safety."""

import json
import os
from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.cegis import StopReason
from repro.core import SynthesisQuery, constant_cwnd, synthesize
from repro.runtime import (
    CheckpointError,
    CheckpointMismatchError,
    CheckpointStore,
    RuntimeOptions,
    decode_query,
    decode_trace,
    encode_query,
    encode_trace,
    query_fingerprint,
    resume_synthesis,
    run_synthesis,
)
from repro.runtime.runner import make_checkpoint_store
from repro.runtime.serialize import decode_candidate, encode_candidate


class TestSerialization:
    def test_candidate_round_trip_preserves_fractions(self):
        cand = constant_cwnd(Fraction(3, 2))
        data = json.loads(json.dumps(encode_candidate(cand)))
        back = decode_candidate(data)
        assert back == cand
        assert back.gamma == Fraction(3, 2)

    def test_trace_round_trip_is_exact(self, fast_cfg):
        from repro.core import CcacVerifier

        cfg = ModelConfig(T=5)
        res = CcacVerifier(cfg).find_counterexample(constant_cwnd(Fraction(1)))
        trace = res.counterexample
        assert trace is not None
        data = json.loads(json.dumps(encode_trace(trace)))
        back = decode_trace(data, cfg)
        assert back == trace  # frozen dataclass: exact Fraction equality

    def test_query_round_trip(self, tiny_query):
        data = json.loads(json.dumps(encode_query(tiny_query)))
        back = decode_query(data)
        assert back == tiny_query

    def test_fingerprint_stable_and_semantic(self, tiny_query):
        import dataclasses

        fp = query_fingerprint(tiny_query)
        assert fp == query_fingerprint(tiny_query)
        # volatile knobs do not change identity
        more_budget = dataclasses.replace(tiny_query, time_budget=9999)
        assert query_fingerprint(more_budget) == fp
        # semantic fields do
        other_cfg = dataclasses.replace(
            tiny_query, cfg=ModelConfig(T=6, history=3)
        )
        assert query_fingerprint(other_cfg) != fp


class TestCheckpointStore:
    def _store(self, tmp_path, fingerprint="fp"):
        return CheckpointStore(str(tmp_path / "run.ckpt"), fingerprint=fingerprint)

    def _save_some(self, store, stop_reason=None):
        store.save(
            stats={"iterations": 3, "counterexamples": 2},
            solutions=["s1"],
            counterexamples=["c1", "c2"],
            blocked=["b1"],
            stop_reason=stop_reason,
        )

    def test_round_trip(self, tmp_path):
        store = self._store(tmp_path)
        assert store.load() is None
        self._save_some(store)
        state = store.load()
        assert state.stats["iterations"] == 3
        assert state.solutions == ["s1"]
        assert state.counterexamples == ["c1", "c2"]
        assert state.blocked == ["b1"]
        assert state.stop_reason is None
        assert not state.complete

    def test_final_save_records_stop_reason(self, tmp_path):
        store = self._store(tmp_path)
        self._save_some(store, stop_reason="solution")
        assert store.load().complete

    def test_no_tmp_file_left_behind(self, tmp_path):
        store = self._store(tmp_path)
        self._save_some(store)
        assert os.path.exists(store.path)
        assert not os.path.exists(store.path + ".tmp")

    def test_fingerprint_mismatch_is_hard_error(self, tmp_path):
        self._save_some(self._store(tmp_path, fingerprint="aaa"))
        other = self._store(tmp_path, fingerprint="bbb")
        with pytest.raises(CheckpointMismatchError):
            other.load()

    def test_torn_file_is_checkpoint_error(self, tmp_path):
        store = self._store(tmp_path)
        with open(store.path, "w") as f:
            f.write('{"version": 1, "trunc')
        with pytest.raises(CheckpointError, match="not valid JSON"):
            store.load()

    def test_wrong_schema_rejected(self, tmp_path):
        store = self._store(tmp_path)
        with open(store.path, "w") as f:
            json.dump({"version": 999}, f)
        with pytest.raises(CheckpointError, match="schema"):
            store.load()

    def test_read_meta(self, tmp_path):
        store = CheckpointStore(
            str(tmp_path / "m.ckpt"), fingerprint="xyz", meta={"k": "v"}
        )
        self._save_some(store)
        fp, meta = CheckpointStore.read_meta(store.path)
        assert fp == "xyz"
        assert meta == {"k": "v"}


class TestSynthesisCheckpointing:
    def test_checkpointed_run_matches_plain_run(self, tmp_path, tiny_query):
        plain = synthesize(tiny_query)
        ckpt = run_synthesis(
            tiny_query,
            RuntimeOptions(checkpoint_path=str(tmp_path / "run.ckpt")),
        )
        assert ckpt.solutions == plain.solutions
        assert ckpt.iterations == plain.iterations
        assert ckpt.stop_reason is plain.stop_reason is StopReason.SOLUTION

    def test_resume_after_partial_run_reaches_same_answer(
        self, tmp_path, tiny_query
    ):
        import dataclasses

        path = str(tmp_path / "run.ckpt")
        full = synthesize(tiny_query)

        # cut the run off after a few iterations (simulated crash: the
        # stored state has no stop_reason because max_iterations exits
        # are overwritten below)
        partial_q = dataclasses.replace(tiny_query, max_iterations=4)
        partial = run_synthesis(partial_q, RuntimeOptions(checkpoint_path=path))
        assert partial.stop_reason is StopReason.MAX_ITERATIONS

        # strip the final verdict so the checkpoint looks mid-flight
        with open(path) as f:
            raw = json.load(f)
        raw["stop_reason"] = None
        with open(path, "w") as f:
            json.dump(raw, f)

        resumed = run_synthesis(tiny_query, RuntimeOptions(checkpoint_path=path))
        assert resumed.resumed
        assert resumed.solutions == full.solutions
        assert resumed.iterations == full.iterations
        assert resumed.counterexamples == full.counterexamples
        assert resumed.stop_reason is full.stop_reason

    def test_resume_mid_portfolio_matrix_run(self, tmp_path, tiny_query):
        """A multi-environment run checkpoints counterexamples from every
        cell, each tagged with its origin, and resumes to the same
        verdict the uninterrupted run reaches."""
        import dataclasses

        from repro.ccac import lossless_environment, lossy_environment

        matrix_q = dataclasses.replace(
            tiny_query,
            environments=[lossless_environment(),
                          lossy_environment(buffer=2)],
        )
        full = synthesize(matrix_q)
        path = str(tmp_path / "matrix.ckpt")
        partial_q = dataclasses.replace(matrix_q, max_iterations=6)
        run_synthesis(partial_q, RuntimeOptions(checkpoint_path=path))
        with open(path) as f:
            raw = json.load(f)
        raw["stop_reason"] = None
        with open(path, "w") as f:
            json.dump(raw, f)

        resumed = run_synthesis(matrix_q, RuntimeOptions(checkpoint_path=path))
        assert resumed.resumed
        assert resumed.stop_reason is full.stop_reason
        assert resumed.iterations == full.iterations
        assert resumed.counterexamples == full.counterexamples
        assert resumed.solutions == full.solutions

        state = make_checkpoint_store(matrix_q, path).load()
        tags = {
            trace.environment.key()
            for trace in state.counterexamples
            if getattr(trace, "environment", None) is not None
        }
        assert "lossless" in tags
        assert "lossy:buffer=2,loss_thresh=1" in tags

    def test_resume_of_an_older_builds_checkpoint(self, tmp_path, tiny_query):
        """Checkpoints written before the falsification counters left
        CegisStats and ``max_solutions`` left the query carry both; the
        resume ignores them and reaches the uninterrupted answer."""
        import dataclasses

        path = str(tmp_path / "run.ckpt")
        full = synthesize(tiny_query)
        partial_q = dataclasses.replace(tiny_query, max_iterations=4)
        run_synthesis(partial_q, RuntimeOptions(checkpoint_path=path))
        with open(path) as f:
            raw = json.load(f)
        raw["stop_reason"] = None
        raw["stats"].update(falsification_attempts=0, falsification_survivals=0)
        raw["meta"]["query"]["max_solutions"] = None
        with open(path, "w") as f:
            json.dump(raw, f)

        resumed = resume_synthesis(path, max_iterations=100_000)
        assert resumed.resumed
        assert resumed.solutions == full.solutions
        assert resumed.iterations == full.iterations
        assert resumed.stop_reason is full.stop_reason

    def test_resume_under_different_query_refused(self, tmp_path, tiny_query):
        import dataclasses

        path = str(tmp_path / "run.ckpt")
        run_synthesis(tiny_query, RuntimeOptions(checkpoint_path=path))
        other = dataclasses.replace(tiny_query, cfg=ModelConfig(T=6, history=3))
        with pytest.raises(CheckpointMismatchError):
            run_synthesis(other, RuntimeOptions(checkpoint_path=path))

    def test_store_codecs_round_trip_cegis_state(self, tmp_path, tiny_query):
        path = str(tmp_path / "run.ckpt")
        run_synthesis(tiny_query, RuntimeOptions(checkpoint_path=path))
        store = make_checkpoint_store(tiny_query, path)
        state = store.load()
        assert state.complete
        for cand in state.solutions:
            # decoded back into real CandidateCCA objects
            assert hasattr(cand, "gamma")
        for trace in state.counterexamples:
            assert trace.check_environment() == []
