"""The enumerative generator's integer pruning kernel.

* Its mask equals the scalar ``Fraction`` replay (``replay_oracle``) on
  random traces of every environment kind, for candidates of all four
  Table 1 spaces and of the guarded template, under RANGE and EXACT.
* The Table 1 rows the benchmark runs propose the same candidates, in
  the same order, whether the generator prunes with the kernel or with
  the scalar replay.
* Synthesis never imports numpy (its import alone costs more set-up time
  and memory than a Table 1 row's whole budget allows).
"""

import itertools
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
import repro.core.synthesizer as synthesizer
from repro.ccac import (
    CexTrace,
    LossyCexTrace,
    ModelConfig,
    TwoFlowCexTrace,
    environment,
    lossy_environment,
    multiflow_environment,
)
from repro.cegis import PruningMode
from repro.core import EnumerativeGenerator, SynthesisQuery, rocc, table1_spaces
from repro.core.conditional import ConditionalCCA, ConditionalSpec
from tests.core.replay_oracle import oracle_satisfies, replay_cwnd

KINDS = ("lossless", "jitter", "thresholds", "lossy", "multiflow")


def _frac(rng, lo, hi):
    den = rng.choice((1, 2, 3, 4, 6, 10))
    return Fraction(rng.randint(lo * den, hi * den), den)


def _candidates(rng, h):
    cands = [rocc(h)]
    for space in table1_spaces(h).values():
        cands.extend(space.random_candidate(rng) for _ in range(6))
    guarded = ConditionalSpec()
    domains = (
        guarded.threshold_domain, guarded.mu_domain, guarded.delta_domain,
        guarded.mu_domain, guarded.delta_domain, guarded.nu_domain,
        guarded.nu_domain,
    )
    cands.extend(
        ConditionalCCA(*(rng.choice(d) for d in domains)) for _ in range(8)
    )
    return cands


def _flow(rng, cfg, driver, W, losses=None):
    """A flow whose arrivals are the eager sends of ``driver`` (so some
    candidates replay it exactly), sometimes perturbed."""
    h, T = cfg.history, cfg.T
    S = [Fraction(0)]
    for _ in range(T):
        S.append(S[-1] + _frac(rng, 0, 1))
    S_pre, s = [], Fraction(0)
    for _ in range(h):
        s -= _frac(rng, 0, 1)
        S_pre.append(s)
    zeros = tuple([Fraction(0)] * (T + 1))
    flow = CexTrace(
        cfg=cfg, A=zeros, S=tuple(S), W=W, cwnd=zeros, S_pre=tuple(S_pre),
        cwnd_pre=tuple(cfg.cwnd_min + _frac(rng, 0, 4) for _ in range(h)),
        ack_offset=_frac(rng, 0, 20),
    )
    cwnd = replay_cwnd(driver, flow, cfg)
    A = [max(Fraction(0), S_pre[0] + cwnd[0] - _frac(rng, -1, 4))]
    for t in range(1, T + 1):
        base = S[t - 1] + (losses[t - 1] if losses else 0)
        A.append(max(A[-1], base + cwnd[t]))
    if rng.random() < 0.15:
        t = rng.randint(1, T)
        A[t] += rng.choice((Fraction(-1, 2), Fraction(1, 3)))
    return replace(flow, A=tuple(A), cwnd=tuple(cwnd))


def random_trace(rng, kind, h, cands):
    """A random trace of history ``h`` tagged with an environment of
    ``kind``: values with small mixed denominators, not necessarily a
    model behaviour (the kernel and the oracle must agree on any
    values)."""
    base = ModelConfig(
        T=rng.choice((5, 6)), history=h,
        C=rng.choice((Fraction(1), Fraction(3, 2))),
        cwnd_min=rng.choice((Fraction(1, 10), Fraction(1, 3), Fraction(1))),
        util_thresh=rng.choice((Fraction(1, 2), Fraction(3, 5), Fraction(1))),
        delay_thresh=rng.choice((Fraction(1), Fraction(5, 2), Fraction(4))),
    )
    env = {
        "lossless": lambda: environment("lossless"),
        "jitter": lambda: environment("jitter", jitter=rng.choice((0, 2))),
        "thresholds": lambda: environment(
            "thresholds", util_thresh=_frac(rng, 0, 1),
            delay_thresh=_frac(rng, 1, 5),
        ),
        "lossy": lambda: lossy_environment(
            buffer=_frac(rng, 1, 4), loss_thresh=_frac(rng, 0, 2)
        ),
        "multiflow": lambda: multiflow_environment(
            phi=rng.choice((Fraction(1, 2), Fraction(1)))
        ),
    }[kind]()
    cfg = env.model_config(base)
    driver = rng.choice(cands)
    W = [Fraction(0)]
    for _ in range(cfg.T):
        W.append(W[-1] if rng.random() < 0.4 else W[-1] + _frac(rng, 0, 1))
    W = tuple(W)
    if kind == "multiflow":
        flows = tuple(_flow(rng, cfg, driver, W) for _ in range(2))
        return TwoFlowCexTrace(cfg=cfg, W=W, flows=flows, environment=env)
    if kind == "lossy":
        L = [Fraction(0)]
        for _ in range(cfg.T):
            L.append(L[-1] + (0 if rng.random() < 0.5 else _frac(rng, 0, 1)))
        flow = _flow(rng, cfg, driver, W, losses=L)
        return LossyCexTrace(**{**vars(flow), "environment": env}, L=tuple(L))
    trace = replace(_flow(rng, cfg, driver, W), environment=env)
    # range bounds just above the driver's sends, so ranges admit some
    # rules; a flat W step leaves that step unbounded
    W = [Fraction(0)]
    for t in range(1, cfg.T + 1):
        flat = rng.random() < 0.4
        W.append(W[-1] if flat else cfg.C * t - trace.A[t] - _frac(rng, 0, 2))
    return replace(trace, W=tuple(W))


class TestKernelMatchesOracle:
    @pytest.mark.parametrize("kind", KINDS)
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_mask_equals_fraction_replay(self, kind, seed):
        rng = random.Random(seed)
        h = rng.choice((3, 4))
        cands = _candidates(rng, h)
        trace = random_trace(rng, kind, h, cands)
        rules = [c.int_rule() for c in cands]
        for pruning in PruningMode:
            mask = trace.environment.replay_mask(rules, trace, pruning)
            expected = [oracle_satisfies(c, trace, pruning) for c in cands]
            assert mask == expected, (pruning, trace)

    def test_space_denominator_gives_the_same_mask(self):
        rng = random.Random(7)
        spec = table1_spaces(4)["cwnd_large"]
        cands = [spec.random_candidate(rng) for _ in range(40)]
        for kind in KINDS:
            trace = random_trace(rng, kind, 4, cands)
            for pruning in PruningMode:
                own = [c.int_rule() for c in cands]
                shared = [c.int_rule(spec.denominator * 3) for c in cands]
                env = trace.environment
                assert env.replay_mask(own, trace, pruning) == env.replay_mask(
                    shared, trace, pruning
                ) == [oracle_satisfies(c, trace, pruning) for c in cands]

    def test_denominator_must_clear_the_coefficients(self):
        with pytest.raises(ValueError, match="denominator"):
            table1_spaces(4)["no_cwnd_large"].make([Fraction(1, 2)] * 5).int_rule(3)


def _slots(rule):
    return tuple(getattr(rule, name) for name in rule.__slots__)


@pytest.mark.parametrize("spec", [
    table1_spaces(3)["no_cwnd_small"], table1_spaces(1)["cwnd_large"],
    table1_spaces(2)["cwnd_small"], ConditionalSpec(),
], ids=["3^4", "cwnd_large_h1", "cwnd_small_h2", "guarded"])
def test_space_compiles_from_its_domains(spec):
    """A space enumerates the candidates ``make`` builds, in product
    order, and ``int_rules`` equals compiling each of them over the
    space's denominator."""
    cands = list(spec.iterate_candidates())
    if hasattr(spec, "make"):
        slots = spec.parameter_count - 1
        assert cands == [
            spec.make([*coeffs, gamma])
            for coeffs in itertools.product(spec.coeff_domain, repeat=slots)
            for gamma in spec.gamma_domain
        ]
    assert len(cands) == spec.search_space_size
    q = spec.denominator
    assert [_slots(r) for r in spec.int_rules()] == [
        _slots(c.int_rule(q)) for c in cands
    ]


#: (pruning, worst-case) -> iterations of the benchmark's Table 1 row
#: (no_cwnd_small, h=3, T=5) with the generator pruning through the
#: scalar Fraction replay
T1_ITERATIONS = {
    (PruningMode.RANGE, False): 10,
    (PruningMode.RANGE, True): 10,
    (PruningMode.EXACT, False): 11,
    (PruningMode.EXACT, True): 12,
}


def _proposals(monkeypatch, pruning, worst_case, oracle):
    """The row's proposal sequence and iteration count, with the
    generator pruning through the int kernel or, with ``oracle``, through
    the Fraction replay of every survivor."""
    proposed = []

    class Recording(EnumerativeGenerator):
        def propose(self, deadline=None):
            cand = super().propose(deadline)
            if cand is not None:
                proposed.append(cand.key())
            return cand

        def add_counterexample(self, trace):
            if not oracle:
                return super().add_counterexample(trace)
            self._traces.append(trace)
            self._keep([
                oracle_satisfies(c, trace, self.pruning) for c in self._survivors
            ])

    monkeypatch.setattr(synthesizer, "EnumerativeGenerator", Recording)
    result = synthesizer.synthesize(SynthesisQuery(
        spec=table1_spaces(3)["no_cwnd_small"], cfg=ModelConfig(T=5, history=3),
        generator="enum", pruning=pruning, worst_case_cex=worst_case,
        time_budget=600,
    ))
    return proposed, result.iterations


@pytest.mark.parametrize(
    "pruning, worst_case", list(T1_ITERATIONS),
    ids=lambda v: v.name if isinstance(v, PruningMode) else ("wce" if v else "plain"),
)
def test_table1_proposal_sequence_is_pinned(monkeypatch, pruning, worst_case):
    """The Table 1 row the benchmark runs proposes the same candidates,
    in the same order, whether the generator prunes with the int kernel
    or with the scalar Fraction replay."""
    oracle = _proposals(monkeypatch, pruning, worst_case, oracle=True)
    kernel = _proposals(monkeypatch, pruning, worst_case, oracle=False)
    assert kernel == oracle
    assert oracle[1] == T1_ITERATIONS[pruning, worst_case]


def test_synthesis_does_not_import_numpy():
    code = (
        "import sys\n"
        "from repro.ccac import ModelConfig\n"
        "from repro.core import SynthesisQuery, synthesize, table1_spaces\n"
        "r = synthesize(SynthesisQuery(spec=table1_spaces(3)['no_cwnd_small'],"
        " cfg=ModelConfig(T=5, history=3), generator='enum', time_budget=600))\n"
        "assert r.solutions\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
