"""Proof-producing solves: certificates exist, check, and survive push/pop."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.core import CcacVerifier, constant_cwnd, rocc
from repro.smt import CheckOptions, Real, Solver, sat, unsat
from repro.trust import ProofError, certify_certificate, check_certificate

from .conftest import _unsat_solver


class TestCertificateLifecycle:
    def test_unsat_certificate_checks(self, certificate):
        report = check_certificate(certificate)
        assert report.steps == len(certificate.steps)
        assert report.theory_lemmas > 0  # the query forces theory conflicts
        assert report.rup_additions > 0

    def test_certify_summary_counters(self, certificate):
        summary = certify_certificate(certificate)
        assert summary.checked
        assert summary.steps == len(certificate.steps)
        assert summary.theory_lemmas > 0

    def test_sat_result_has_no_certificate(self):
        x = Real("tm_x")
        s = Solver(produce_proofs=True)
        s.add(x >= 1)
        assert s.check() is sat
        with pytest.raises(ProofError):
            s.certificate()


    def test_proofs_are_armed_at_construction_only(self):
        # one way to arm proofs: a check cannot turn them on later
        with pytest.raises(TypeError):
            CheckOptions(produce_proofs=True)
        assert not Solver().proof_mode
        assert Solver(produce_proofs=True).proof_mode


class TestPushPop:
    def test_certificate_after_pop_covers_disabled_frames(self):
        x = Real("pp_x")
        s = Solver(produce_proofs=True)
        s.add(x >= 0)
        s.push()
        s.add(x >= 10)
        assert s.check() is sat
        s.pop()
        s.push()
        s.add(x <= -1)
        assert s.check() is unsat
        cert = s.certificate()
        assert cert.disabled_guards  # one popped frame
        check_certificate(cert)

    def test_session_skips_cache_in_proof_mode(self, tmp_path):
        x = Real("pp_y")
        base = (x >= 1, x <= 0)
        from repro.engine import QueryCache

        cache = QueryCache(str(tmp_path))
        plain = Solver(cache=cache)
        plain.add(*base)
        assert plain.check() is unsat  # populates the cache
        proving = Solver(cache=cache, produce_proofs=True)
        proving.add(*base)
        assert proving.check() is unsat  # must re-solve: cached unsat has no proof
        assert proving.checks == 1
        check_certificate(proving.certificate())


class TestVerifierCertify:
    def test_verified_candidate_is_certified(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg, certify=True)
        res = verifier.find_counterexample(rocc(fast_cfg.history))
        assert res.verified and res.certified
        assert res.certificate.checked
        assert verifier.certified == 1

    def test_refuted_candidate_is_not_certified(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg, certify=True)
        res = verifier.find_counterexample(
            constant_cwnd(Fraction(1), fast_cfg.history)
        )
        assert not res.verified and res.counterexample is not None
        assert not res.certified and res.certificate is None

    def test_worst_case_verified_candidate_is_certified(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg, certify=True)
        res = verifier.find_counterexample(rocc(fast_cfg.history), worst_case=True)
        assert res.verified and res.certified

    def test_worst_case_proof_takes_one_check(self, fast_cfg):
        """The worst-case search's first probe is a plain check under
        the call's frames, so its UNSAT verdict is certified as is."""
        verifier = CcacVerifier(fast_cfg, certify=True)
        res = verifier.find_counterexample(rocc(fast_cfg.history), worst_case=True)
        assert res.verified and res.certified
        assert res.solver_checks == 1

    def test_reused_session_certifies(self, fast_cfg):
        """Two probes on one candidate share its solver; each gets its
        own checked certificate."""
        from repro.core.queries import total_waste_budget

        verifier = CcacVerifier(fast_cfg, certify=True)
        budget = total_waste_budget(fast_cfg)
        net = verifier.network()
        cand = rocc(fast_cfg.history)
        sessions = []
        for theta in (Fraction(0), Fraction(1)):
            res = verifier.find_counterexample(
                cand, extra_constraints=[budget.build(net, theta)]
            )
            assert res.verified and res.certified
            sessions.append(verifier._env_states()[0].solver)
        assert sessions[0] is sessions[1]
        assert verifier.certified == 2


class TestDeterminism:
    def test_same_query_same_proof(self):
        a = _unsat_solver()
        b = _unsat_solver()
        assert a.check() is unsat
        assert b.check() is unsat
        assert a.certificate().steps == b.certificate().steps
