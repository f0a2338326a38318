"""Proof-producing solves: certificates exist, check, and survive push/pop."""

from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.core import CcacVerifier, constant_cwnd, rocc
from repro.smt import CheckOptions, Real, Solver, SolverSession, sat, unsat
from repro.trust import ProofError, certify_certificate, check_certificate

from .conftest import PROOF_OPTS, _unsat_solver


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
        assert s.check(PROOF_OPTS) is sat
        with pytest.raises(ProofError):
            s.certificate()

    def test_arming_a_used_solver_is_refused(self):
        x = Real("tm_y")
        s = Solver()
        s.add(x >= 1)
        assert s.check() is sat
        # the existing clauses were never logged; a late proof would lie
        with pytest.raises(ProofError):
            s.check(PROOF_OPTS)

    def test_lazy_arming_on_pristine_solver(self):
        x = Real("tm_z")
        s = Solver()  # proofs not requested at construction
        assert s.check(PROOF_OPTS) is sat  # arms the pristine solver
        s.add(x >= 1, x <= 0)
        assert s.check(PROOF_OPTS) is unsat
        check_certificate(s.certificate())


class TestPushPop:
    def test_certificate_after_pop_covers_disabled_frames(self):
        x = Real("pp_x")
        s = Solver(produce_proofs=True)
        s.add(x >= 0)
        s.push()
        s.add(x >= 10)
        assert s.check(PROOF_OPTS) is sat
        s.pop()
        s.push()
        s.add(x <= -1)
        assert s.check(PROOF_OPTS) is unsat
        cert = s.certificate()
        assert cert.disabled_guards  # one popped frame
        check_certificate(cert)

    def test_session_skips_cache_in_proof_mode(self, tmp_path):
        x = Real("pp_y")
        base = (x >= 1, x <= 0)
        from repro.engine import QueryCache

        cache = QueryCache(str(tmp_path))
        plain = SolverSession(base, cache=cache)
        assert plain.check() is unsat  # populates the cache
        proving = SolverSession(base, cache=cache, produce_proofs=True)
        assert proving.check() is unsat  # must re-solve: cached unsat has no proof
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

    def test_reused_session_certifies(self, fast_cfg):
        """Two probes on one candidate share its session; each gets its
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
            sessions.append(verifier._env_states()[0].session)
        assert sessions[0] is sessions[1]
        assert verifier.certified == 2


class TestDeterminism:
    def test_same_query_same_proof(self):
        a = _unsat_solver()
        b = _unsat_solver()
        assert a.check(PROOF_OPTS) is unsat
        assert b.check(PROOF_OPTS) is unsat
        assert a.certificate().steps == b.certificate().steps
