"""``Solver.adopt`` and ``CcacVerifier.prime`` on the verifier's CCAC queries.

Adopting a primer that never searched must leave a solver
indistinguishable from a fresh one (verdict, model and work counts), so
the adopted heuristics and tableau are copied faithfully; a solver that
adopts a searched primer must derive nothing from that search and must
never write back into the primer.  At the CEGIS level, priming must keep
runs reproducible: a warm query cache replays a cold run exactly, and a
certified run still certifies.
"""

import time
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.ccac import ModelConfig
from repro.ccac.environments import lossless_environment, parse_environment
from repro.core import (
    CcacVerifier,
    SynthesisQuery,
    constant_cwnd,
    rocc,
    synthesize,
    table1_spaces,
)
from repro.engine import QueryCache
from repro.runtime import RuntimeOptions, run_synthesis
from repro.runtime.serialize import encode_trace
from repro.smt import Or, Real, RealVal, Solver, sat, unsat
from repro.smt.optimize import maximize
from repro.trust.certify import certify_certificate

ENVIRONMENTS = (lossless_environment(), parse_environment("lossy:buffer=8"))


def _query(env, candidate, cfg):
    """The verifier's base and candidate formulas for one environment."""
    net = CcacVerifier(cfg, environments=(env,)).network()
    base = (*net.constraints(), env.negated_desired(net))
    return net, base, tuple(env.candidate_constraints(net, candidate))


def _primer(base, search=True, **kwargs):
    primer = Solver(**kwargs)
    primer.add(*base)
    if search:
        assert primer.check() is sat
    return primer


def _solver(base, cand, primer=None, **kwargs):
    """A solver as the verifier builds one: base, adopt, candidate."""
    s = Solver(**kwargs)
    s.add(*base)
    if primer is not None:
        s.adopt(primer)
    s.add(*cand)
    return s


def _wce_objective(env, net, cfg):
    """The worst-case objective the verifier maximizes."""
    m = Real(f"{net.prefix}_wce_m")
    hi = RealVal(Fraction(cfg.C * cfg.T + cfg.initial_queue_max))
    return m, [m >= 0, m <= hi] + [
        Or(flat, width >= m) for flat, width in env.wce_widths(net)
    ]


def _outcome(s, result):
    model = s.model().assignment() if result is sat else None
    return result, model, s.checks, s.theory.simplex.pivots


def _snapshot(s):
    core, simplex = s.sat_core, s.theory.simplex
    return (
        [list(c.lits) for c in core.clauses],
        len(core.learned),
        list(core.trail),
        list(core.activity),
        list(core.saved_phase),
        core.var_inc,
        {b: dict(row) for b, row in simplex.rows.items()},
        dict(simplex.den),
        set(simplex.basic),
        list(simplex.assign),
    )


@pytest.mark.parametrize("env", ENVIRONMENTS, ids=lambda e: e.key())
class TestAdoptingAnUnsearchedPrimerChangesNothing:
    @pytest.mark.parametrize("candidate", [constant_cwnd(1, 3), rocc(3)],
                             ids=["const1", "rocc"])
    def test_plain_check(self, env, candidate, fast_cfg):
        _net, base, cand = _query(env, candidate, fast_cfg)
        fresh = _solver(base, cand)
        adopted = _solver(base, cand, _primer(base, search=False))
        assert _outcome(adopted, adopted.check()) == _outcome(fresh, fresh.check())

    def test_maximize(self, env, fast_cfg):
        net, base, cand = _query(env, constant_cwnd(1, 3), fast_cfg)
        m, objective = _wce_objective(env, net, fast_cfg)
        results = []
        for primer in (None, _primer(base, search=False)):
            s = _solver(base, cand, primer)
            with s.scope(*objective):
                opt = maximize(s, m)
                results.append((
                    opt.feasible, opt.best_value, opt.probes,
                    opt.model.assignment(), s.checks, s.theory.simplex.pivots,
                ))
        assert results[0] == results[1]
        assert results[0][0]

    def test_extras_in_a_scope(self, env, fast_cfg):
        net, base, cand = _query(env, constant_cwnd(1, 3), fast_cfg)
        extra = [net.S[0] >= 0]
        outcomes = []
        for primer in (None, _primer(base, search=False)):
            s = _solver(base, cand, primer)
            with s.scope(*extra):
                first = _outcome(s, s.check())
            outcomes.append((first, _outcome(s, s.check())))
        assert outcomes[0] == outcomes[1]

    def test_certified_unsat(self, env, fast_cfg):
        _net, base, cand = _query(env, rocc(3), fast_cfg)
        fresh = _solver(base, cand, produce_proofs=True)
        adopted = _solver(
            base, cand, _primer(base, search=False, produce_proofs=True),
            produce_proofs=True,
        )
        outcome = _outcome(adopted, adopted.check())
        assert outcome == _outcome(fresh, fresh.check())
        assert outcome[0] is unsat
        assert certify_certificate(adopted.certificate()) is not None
        assert len(adopted.certificate().steps) == len(fresh.certificate().steps)


class TestAdopt:
    def test_adopting_solver_leaves_the_primer_untouched(self, fast_cfg):
        net, base, cand = _query(lossless_environment(), constant_cwnd(1, 3), fast_cfg)
        primer = _primer(base)
        before = _snapshot(primer)
        s = _solver(base, cand, primer)
        assert s.check() is sat
        with s.scope(net.S[0] >= 1):
            s.check()
        s.push()
        s.add(net.S[1] <= 0)
        s.check()
        s.pop()
        assert _snapshot(primer) == before

    def test_adopted_solver_holds_nothing_the_search_derived(self, fast_cfg):
        _net, base, _cand = _query(lossless_environment(), rocc(3), fast_cfg)
        primer = _primer(base, produce_proofs=True)
        assert primer.sat_core.conflicts > 0
        fresh = _primer(base, search=False, produce_proofs=True)
        adopted = Solver(produce_proofs=True)
        adopted.add(*base)
        adopted.adopt(primer)
        core = adopted.sat_core
        assert core.learned == []
        assert core.trail == fresh.sat_core.trail
        assert [c.lits for c in core.clauses] == [
            c.lits for c in fresh.sat_core.clauses
        ]
        assert adopted._proof.steps == fresh._proof.steps
        # what it does take: where the primer's search ended
        assert core.activity == primer.sat_core.activity
        assert core.activity != fresh.sat_core.activity
        assert adopted.theory.simplex.basic == primer.theory.simplex.basic

    @pytest.mark.parametrize("candidate", [constant_cwnd(1, 3), rocc(3)],
                             ids=["const1", "rocc"])
    def test_adopted_solver_keeps_the_verdict(self, candidate, fast_cfg):
        _net, base, cand = _query(lossless_environment(), candidate, fast_cfg)
        adopted = _solver(base, cand, _primer(base))
        assert adopted.check() is _solver(base, cand).check()

    def test_adopt_needs_the_same_assertions(self, fast_cfg):
        _net, base, _cand = _query(lossless_environment(), rocc(3), fast_cfg)
        s = Solver()
        s.add(*base[:-1])
        with pytest.raises(ValueError, match="same assertions"):
            s.adopt(_primer(base))

    def test_adopt_inside_a_frame_is_refused(self, fast_cfg):
        _net, base, _cand = _query(lossless_environment(), rocc(3), fast_cfg)
        s = Solver()
        s.add(*base)
        s.push()
        with pytest.raises(ValueError, match="no open frame"):
            s.adopt(_primer(base))


class TestVerifierPrime:
    def test_prime_is_idempotent(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        v.prime()
        primer = v._env_states()[0].primer
        assert primer is not None
        v.prime()
        assert v._env_states()[0].primer is primer

    def test_unknown_leaves_it_unprimed_and_a_later_call_retries(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        v.prime(deadline=time.perf_counter() - 1)
        assert v._env_states()[0].primer is None
        v.prime()
        assert v._env_states()[0].primer is not None

    def test_a_single_call_does_not_prime(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        assert v.find_counterexample(constant_cwnd(1, 3)).counterexample
        assert v._env_states()[0].primer is None


class TestPooledWorkerKeepsItsPrimer:
    def test_drop_solvers_keeps_network_and_primer(self, fast_cfg):
        v = CcacVerifier(fast_cfg)
        v.prime()
        v.find_counterexample(constant_cwnd(1, 3))
        state = v._env_states()[0]
        base, primer = state.base, state.primer
        v.drop_solvers()
        assert (state.solver, state.candidate) == (None, None)
        assert state.base is base and state.primer is primer

    def test_a_cancelled_task_keeps_the_primer(self, fast_cfg, monkeypatch):
        from repro.engine import portfolio
        from repro.runtime.workers import TaskCancelled

        warm = {}
        monkeypatch.setattr(portfolio, "_WORKER_STATE", warm)
        run = portfolio._pooled_verify_candidate_task
        assert run(fast_cfg, rocc(3), False, None, None).counterexample is None
        (verifier,) = warm.values()
        state = verifier._env_states()[0]
        primer = state.primer
        assert primer is not None

        def cancelled(*args, **kwargs):
            raise TaskCancelled()

        verifier.find_counterexample = cancelled
        with pytest.raises(TaskCancelled):
            run(fast_cfg, constant_cwnd(1, 3), False, None, None)
        del verifier.find_counterexample
        assert list(warm.values()) == [verifier]
        assert state.solver is None and state.primer is primer
        assert run(fast_cfg, constant_cwnd(1, 3), False, None, None).counterexample
        assert state.primer is primer


class RecordingVerifier(CcacVerifier):
    """Records every counterexample it returns, encoded."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cexes = []

    def find_counterexample(self, candidate, **kwargs):
        res = super().find_counterexample(candidate, **kwargs)
        if res.counterexample is not None:
            self.cexes.append((candidate.key(), encode_trace(res.counterexample)))
        return res


#: the 3^4 Table 1 row under range pruning
T1_QUERY = SynthesisQuery(
    spec=table1_spaces(3)["no_cwnd_small"], cfg=ModelConfig(T=5, history=3),
    generator="enum", worst_case_cex=False, time_budget=600,
)


def _cold_then_warm(query, cache_dir):
    """Two runs of ``query`` over one cache directory: iterations,
    counterexamples and cache stats of each."""
    runs = []
    for _ in range(2):
        cache = QueryCache(cache_dir)
        verifier = RecordingVerifier(query.cfg, cache=cache)
        result = synthesize(query, verifier=verifier)
        runs.append((result.iterations, verifier.cexes, cache.stats()))
    return runs


class TestPrimedCegis:
    def test_warm_cache_replays_a_cold_run(self, tmp_path):
        runs = _cold_then_warm(T1_QUERY, str(tmp_path / "qcache"))
        (cold_it, cold_cex, cold), (warm_it, warm_cex, warm) = runs
        assert warm_it == cold_it
        assert warm_cex == cold_cex
        assert cold["hits"] == 0
        assert warm["hits"] > 0

    def test_warm_cache_replays_a_cold_worst_case_run(self, tmp_path):
        """A cached probe bounds the next one by the optimum stored with
        its model, exactly as the solved probe did."""
        query = replace(T1_QUERY, worst_case_cex=True)
        runs = _cold_then_warm(query, str(tmp_path / "qcache"))
        (cold_it, cold_cex, cold), (warm_it, warm_cex, warm) = runs
        assert warm_it == cold_it
        assert warm_cex == cold_cex
        assert cold["hits"] == 0
        assert warm["hits"] > 0 and warm["misses"] == 0

    def test_primed_certified_run_certifies(self):
        result = run_synthesis(T1_QUERY, RuntimeOptions(certify=True))
        assert result.solutions
        assert result.certified_verdicts == len(result.solutions)
