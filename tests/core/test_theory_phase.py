"""Theory-aware phases: who decides by the Simplex point, and what it keeps.

An unprimed candidate solver of :class:`~repro.core.verifier.CcacVerifier`
(every single verification call) decides each theory atom the way the
current Simplex assignment satisfies it.  That may change how a search
runs, never what it answers: a panel of calls keeps the verdicts of
saved-phase search, and every certified UNSAT still checks.  The primer,
the solvers that adopt it and the SMT generator keep saved phases, since
their SAT models are what CEGIS consumes: the Table 1 counterexample and
proposal sequences below are pinned at their saved-phase values.
"""

import hashlib
import json

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
from repro.core import synthesizer
from repro.core.generator_smt import SmtGenerator
from repro.runtime.serialize import encode_trace
from repro.smt import Real, Solver
from repro.smt.linarith import normalize_atom
from repro.smt.theory import LraTheory
from repro.trust.checker import check_certificate

PANEL_ENVIRONMENTS = (lossless_environment(), parse_environment("lossy:buffer=8"))
PANEL_CANDIDATES = [rocc(3)] + [constant_cwnd(g, history=3) for g in range(4)]


def _phases(solver: Solver) -> bool:
    return solver._core.theory_phases


class TestTheoryHook:
    def _theory(self, atom_term):
        theory = LraTheory()
        theory.register_atom(normalize_atom(atom_term), 1)
        return theory, theory.var_of_term[Real("phase_x")]

    @pytest.mark.parametrize("value, expected", [(0, 1), (1, 1), (2, -1)])
    def test_phase_is_the_polarity_the_assignment_satisfies(self, value, expected):
        theory, svar = self._theory(Real("phase_x") <= 1)
        theory.simplex.assign[svar] = (value, 0, 1)
        assert theory.phase(1) == expected

    def test_strict_atom_compares_with_the_delta_part(self):
        theory, svar = self._theory(Real("phase_x") < 1)
        theory.simplex.assign[svar] = (1, 0, 1)
        assert theory.phase(1) == -1  # x = 1 violates x < 1
        theory.simplex.assign[svar] = (1, -1, 1)
        assert theory.phase(1) == 1  # x = 1 - δ satisfies it


class TestWhoDecidesByTheory:
    def test_a_single_call_decides_by_theory(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg)
        verifier.find_counterexample(rocc(3))
        assert _phases(verifier._env_states()[0].solver)

    def test_primer_and_adopted_solvers_keep_saved_phases(self, fast_cfg):
        verifier = CcacVerifier(fast_cfg)
        verifier.prime()
        verifier.find_counterexample(constant_cwnd(1, history=3))
        state = verifier._env_states()[0]
        assert state.primer is not None
        assert not _phases(state.primer)
        assert not _phases(state.solver)

    def test_smt_generator_keeps_saved_phases(self, fast_cfg):
        gen = SmtGenerator(table1_spaces(3)["no_cwnd_small"], fast_cfg)
        assert gen.propose() is not None
        assert not _phases(gen.solver)

    def test_setting_the_rule_encodes_nothing(self):
        s = Solver()
        s.add(Real("phase_y") >= 1)
        s.decide_by_theory()
        assert s._unencoded and s._core.nvars == 0


def _verdict(result):
    if result.unknown:
        return "unknown"
    if result.verified:
        return "verified"
    return f"cex:{result.environment.key()}"


@pytest.mark.parametrize("T", [5, 7])
@pytest.mark.parametrize("env", PANEL_ENVIRONMENTS, ids=lambda e: e.key())
def test_panel_keeps_its_verdicts_and_certifies(T, env, monkeypatch):
    cfg = ModelConfig(T=T, history=3)
    verdicts, certified = [], 0
    for candidate in PANEL_CANDIDATES:
        verifier = CcacVerifier(cfg, certify=True, environments=(env,))
        result = verifier.find_counterexample(candidate)
        verdicts.append(_verdict(result))
        if result.verified:
            assert result.certified
            solver = verifier._env_states()[0].solver
            assert _phases(solver)
            assert check_certificate(solver.certificate()).theory_lemmas > 0
            certified += 1
    assert certified >= 1  # RoCC proves in every panel cell
    with monkeypatch.context() as m:  # saved phases, as before the rule
        m.setattr(Solver, "decide_by_theory", lambda self: None)
        expected = [
            _verdict(CcacVerifier(cfg, environments=(env,)).find_counterexample(c))
            for c in PANEL_CANDIDATES
        ]
    assert verdicts == expected


# -- saved-phase solvers: pinned sequences -----------------------------------


class _RecordingVerifier(CcacVerifier):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cexes = []

    def find_counterexample(self, candidate, **kwargs):
        res = super().find_counterexample(candidate, **kwargs)
        if res.counterexample is not None:
            self.cexes.append(encode_trace(res.counterexample))
        return res


#: (worst case) -> (iterations, sha256 of the encoded counterexamples) of
#: the primed 3^4 Table 1 row (h=3, T=5, enum, range pruning)
T1_CEXES = {
    False: (10, "81f0912f7e5530aec7ec67a28d9c687064fc12339e9dabc9e6e22cac13a4697b"),
    True: (10, "0e9403adce1e090a716cb8f0cf00f93c12e7f837da09de68687feeb9f193efb8"),
}


@pytest.mark.parametrize("worst_case", [False, True], ids=["rp", "rp_wce"])
def test_primed_counterexample_sequence_is_pinned(worst_case):
    query = SynthesisQuery(
        spec=table1_spaces(3)["no_cwnd_small"], cfg=ModelConfig(T=5, history=3),
        generator="enum", worst_case_cex=worst_case, time_budget=600,
    )
    verifier = _RecordingVerifier(query.cfg)
    result = synthesize(query, verifier=verifier)
    digest = hashlib.sha256(
        json.dumps(verifier.cexes, sort_keys=True).encode()
    ).hexdigest()
    assert (result.iterations, digest) == T1_CEXES[worst_case]


#: SmtGenerator proposals (betas | gamma; the no-cwnd spaces have α = 0)
SMT_PROPOSALS = {
    (3, False): ["1 1 1 | 1", "1 0 -1 | 1"],
    (4, False): [
        "1 1 1 1 | 1", "1 1 1 1 | 0", "1 1 1 1 | -1", "1 1 1 0 | -1",
        "1 1 1 -1 | -1", "-1 1 -1 -1 | 1", "-1 0 -1 -1 | 1",
        "-1 0 -1 1 | 1", "0 1 -1 1 | 0", "0 1 -1 1 | 1", "0 1 0 1 | 1",
        "0 1 -1 -1 | 1", "0 1 -1 0 | 1",
    ],
    (4, True): [
        "1 1 1 1 | 1", "1 0 -1 1 | 1", "1 0 0 1 | 1", "1 0 1 1 | 1",
        "1 0 -1 -1 | 1", "1 -1 -1 -1 | 1", "1 0 -1 0 | 1",
    ],
}


@pytest.mark.parametrize(
    "history, worst_case", list(SMT_PROPOSALS),
    ids=lambda v: {3: "3^4", 4: "3^5", False: "rp", True: "rp_wce"}[v],
)
def test_smt_generator_proposal_sequence_is_pinned(monkeypatch, history, worst_case):
    proposed = []

    class Recording(SmtGenerator):
        def propose(self, deadline=None):
            cand = super().propose(deadline)
            if cand is not None:
                proposed.append(
                    " ".join(str(b) for b in cand.betas) + f" | {cand.gamma}"
                )
            return cand

    monkeypatch.setattr(synthesizer, "SmtGenerator", Recording)
    result = synthesize(SynthesisQuery(
        spec=table1_spaces(history)["no_cwnd_small"],
        cfg=ModelConfig(T=5, history=history), generator="smt",
        worst_case_cex=worst_case, time_budget=600,
    ))
    assert result.solutions
    assert proposed == SMT_PROPOSALS[history, worst_case]
