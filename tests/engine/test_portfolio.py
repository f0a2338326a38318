"""Portfolio races on the worker pool: first conclusive verdict wins,
losers are cancelled, no zombies."""

import multiprocessing
import time

import pytest

from repro.engine import PortfolioVerifier, verifier_pool
from repro.runtime.errors import SoundnessError, WorkerError
from repro.runtime.workers import WorkerLimits
from repro.service import WorkerPool

pytestmark = [pytest.mark.engine, pytest.mark.runtime]


# top-level so they are picklable by the fork start method
def _fast(value):
    return value


def _slow(value, delay=30.0):
    time.sleep(delay)
    return value


def _boom():
    raise RuntimeError("worker exploded")


def _soundness():
    raise SoundnessError("fabricated model")


def _no_zombies():
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


def _race(tasks, **kwargs):
    """One race on a fresh pool with a lane per task."""
    with WorkerPool(size=len(tasks)) as pool:
        return pool.run_batch(tasks, **kwargs)


def test_fast_task_beats_sleepers():
    """The race returns as soon as one worker is conclusive; the sleepers
    are cancelled rather than awaited (30s sleeps, sub-30s wall)."""
    start = time.perf_counter()
    outcome = _race(
        [(_slow, ("a",)), (_fast, ("b",)), (_slow, ("c",))],
        wall_time=25.0,
    )
    wall = time.perf_counter() - start
    assert outcome.winner == 1
    assert outcome.result == "b"
    assert outcome.cancelled == [0, 2]
    assert wall < 20.0
    assert _no_zombies()


def test_accept_filters_results():
    """A result the acceptor rejects does not win the race."""
    outcome = _race(
        [(_fast, ("reject",)), (_fast, ("take",))],
        accept=lambda r: r == "take",
        wall_time=25.0,
    )
    assert outcome.result == "take"
    assert _no_zombies()


def test_all_errors_raises_worker_error():
    with pytest.raises(WorkerError):
        _race([(_boom, ()), (_boom, ())], wall_time=25.0)
    assert _no_zombies()


def test_soundness_error_propagates():
    """Soundness is never racy: a SoundnessError in any worker aborts
    the whole round even if another worker would have won."""
    with pytest.raises(SoundnessError):
        _race(
            [(_soundness, ()), (_slow, ("x",))],
            wall_time=25.0,
        )
    assert _no_zombies()


def test_race_timeout_reports_all_workers():
    outcome = _race([(_slow, ("a", 30.0))], wall_time=1.0)
    assert outcome.winner is None
    assert outcome.reports[0].status == "timeout"
    assert _no_zombies()


def _traced(value):
    from repro.obs import metrics, tracer

    with tracer().span("child.solve"):
        metrics().counter("test.portfolio.relay").inc(1)
    return value


def test_race_merges_worker_telemetry():
    """Every finishing worker's spans come back tagged with its lane and
    task and anchored under the batch span — winner and losers alike."""
    from repro.obs import Sink, metrics, tracer

    class Rec(Sink):
        def __init__(self):
            self.records = []

        def emit(self, record):
            self.records.append(record)

    tr = tracer()
    sink = tr.add_sink(Rec())
    before = metrics().counter("test.portfolio.relay").value
    try:
        outcome = _race(
            [(_traced, ("a",)), (_traced, ("b",))], wall_time=25.0
        )
    finally:
        tr.remove_sink(sink)
    assert outcome.winner is not None
    # the winner's frame always merges; a loser that finished before the
    # cancel may add its own
    assert metrics().counter("test.portfolio.relay").value > before
    race = [r for r in sink.records
            if r.get("type") == "span" and r["name"] == "service.pool.batch"]
    assert len(race) == 1 and race[0]["attrs"]["relayed"] >= 1
    # task tokens are "b<batch>:<index>:a<attempt>"
    runs = [r for r in sink.records
            if r.get("type") == "span" and r["name"] == "worker.run"
            and r["attrs"]["task"].split(":")[1] == str(outcome.winner)]
    assert len(runs) == 1
    assert runs[0]["attrs"]["worker"] in ("p0", "p1")
    assert runs[0]["parent"] == race[0]["id"]
    assert _no_zombies()


def test_verifier_batch_verdicts_match_sequential(fast_cfg):
    """The portfolio verifier's winning verdict agrees with a plain
    in-process verification of the same candidate."""
    from repro.core import constant_cwnd, rocc
    from repro.core.verifier import CcacVerifier

    candidates = [constant_cwnd(1, 3), rocc(3)]
    with verifier_pool(2, WorkerLimits()) as pool:
        verdict = PortfolioVerifier(fast_cfg, pool).verify_batch(candidates)
    assert verdict.winner is not None
    assert verdict.launched == 2

    sequential = CcacVerifier(fast_cfg).find_counterexample(
        candidates[verdict.winner]
    )
    assert verdict.result.verified == sequential.verified
    assert (verdict.result.counterexample is None) == (
        sequential.counterexample is None
    )
    assert _no_zombies()


def test_single_candidate_path(fast_cfg):
    from repro.core import rocc

    with verifier_pool(2, WorkerLimits()) as pool:
        result = PortfolioVerifier(fast_cfg, pool).find_counterexample(rocc(3))
    assert result.verified
    assert _no_zombies()


def test_jobs_validation():
    """The portfolio width is the pool size, validated there."""
    with pytest.raises(ValueError):
        verifier_pool(0, WorkerLimits())


def test_environment_grid_requires_every_cell_unsat(fast_cfg):
    """In matrix mode a candidate only wins as verified when every
    environment answered UNSAT; any cell's counterexample wins outright,
    tagged with its origin."""
    from repro.ccac import lossless_environment, lossy_environment
    from repro.core import rocc

    envs = [lossless_environment(), lossy_environment(buffer=8)]
    with verifier_pool(2, WorkerLimits()) as pool:
        portfolio = PortfolioVerifier(fast_cfg, pool, environments=envs)
        verdict = portfolio.verify_batch([rocc(3)])
    assert verdict.winner == 0
    assert verdict.result.verified
    assert verdict.result.counterexample is None
    assert _no_zombies()

    tiny = [lossless_environment(), lossy_environment(buffer=1)]
    with verifier_pool(2, WorkerLimits()) as pool:
        portfolio = PortfolioVerifier(fast_cfg, pool, environments=tiny)
        verdict = portfolio.verify_batch([rocc(3)])
    assert verdict.winner == 0
    assert not verdict.result.verified
    cex = verdict.result.counterexample
    assert cex is not None
    assert cex.environment is not None
    assert cex.environment.kind == "lossy"
    assert _no_zombies()


def test_synthesis_verdict_identical_across_jobs(fast_cfg):
    """jobs=1 and jobs=3 reach the same verdict on the same query (the
    winning solutions are independently proven, so verdict-level equality
    is the right equivalence)."""
    from repro.core import SynthesisQuery, synthesize, table1_spaces
    from repro.ccac import ModelConfig

    cfg = ModelConfig(T=5)
    spec = table1_spaces()["no_cwnd_small"]
    results = {}
    for jobs in (1, 3):
        query = SynthesisQuery(
            spec=spec, cfg=cfg, generator="enum",
            worst_case_cex=False, jobs=jobs,
        )
        results[jobs] = synthesize(query)
    assert results[1].found == results[3].found
    assert results[1].exhausted == results[3].exhausted
    assert _no_zombies()
