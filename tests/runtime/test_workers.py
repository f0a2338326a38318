"""Out-of-process solver calls on the worker pool: watchdog kills,
memory caps, retry policy, and the run-level pool lifecycle.

Marked ``runtime``: each test forks real processes, so the module is
slower than the rest of the suite (`-m "not runtime"` skips it).
"""

import multiprocessing
import os
import signal
import time
from dataclasses import replace
from fractions import Fraction

import pytest

import repro.engine.portfolio as portfolio_mod
from repro.ccac import ModelConfig
from repro.core import constant_cwnd, rocc
from repro.engine import PortfolioVerifier, verifier_pool
from repro.runtime import (
    RuntimeOptions,
    SoundnessError,
    WorkerError,
    WorkerLimits,
    run_synthesis,
)
from repro.service import WorkerPool

pytestmark = pytest.mark.runtime


# accept arbitrary args so these can also stand in for the pooled
# verifier task (pickled by reference: they must be module-level)
def _sleep_forever(*args):
    time.sleep(3600)
    return "never"


def _allocate(mb: int) -> int:
    block = bytearray(mb * 1024 * 1024)
    return len(block)


def _raise_soundness(*args):
    raise SoundnessError("injected: model refuted in worker")


def _raise_value_error(*args):
    raise ValueError("deterministic bug")


def _return_value():
    return {"answer": 42}


def _traced_task():
    from repro.obs import metrics, tracer

    with tracer().span("child.solve"):
        metrics().counter("test.relay.checks").inc(5)
    return "traced"


#: file the crashing task appends one line to per execution (set by the
#: test before the pool forks, so the children inherit it)
_CALL_LOG = None


def _crash_and_count(*args):
    with open(_CALL_LOG, "a") as f:
        f.write("call\n")
    os.kill(os.getpid(), signal.SIGKILL)


def _run_one(fn, args=(), wall_time=30.0, memory_mb=None, kill_grace=1.0):
    """One task on a fresh pool of one; returns its report."""
    with WorkerPool(size=1, memory_mb=memory_mb, kill_grace=kill_grace) as pool:
        outcome = pool.run_batch(
            [(fn, args)], accept=lambda _r: False, wall_time=wall_time
        )
    return outcome.reports[0]


def _no_children():
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


class TestRunIsolated:
    def test_ok_result_round_trips(self):
        report = _run_one(_return_value)
        assert report.ok
        assert report.result == {"answer": 42}

    def test_hung_worker_killed_on_wall_clock(self):
        start = time.perf_counter()
        report = _run_one(_sleep_forever, wall_time=0.3, kill_grace=0.5)
        assert report.status == "timeout"
        assert time.perf_counter() - start < 10

    def test_memory_hog_reported_as_oom(self):
        report = _run_one(_allocate, args=(512,), wall_time=60, memory_mb=64)
        assert report.status == "oom"

    def test_soundness_error_propagates_verbatim(self):
        with pytest.raises(SoundnessError, match="injected"):
            _run_one(_raise_soundness)

    def test_child_exception_reported_not_raised(self):
        """One task's exception is a report; the batch (and the worker)
        carries on.  Only an all-error batch raises WorkerError."""
        with WorkerPool(size=1) as pool:
            outcome = pool.run_batch(
                [(_raise_value_error, ()), (_return_value, ())],
                accept=lambda _r: False,
            )
            assert pool.stats.respawns == 0
        assert outcome.reports[0].status == "error"
        assert "ValueError" in outcome.reports[0].detail
        assert outcome.reports[1].result == {"answer": 42}


class TestWorkerLimits:
    def test_budget_escalates_per_attempt(self):
        limits = WorkerLimits(wall_time=10.0, escalation=2.0)
        assert limits.budget(0) == 10.0
        assert limits.budget(1) == 20.0
        assert limits.budget(2) == 40.0


_KILL_LIMITS = WorkerLimits(
    wall_time=0.2, retries=1, escalation=1.0, kill_grace=0.3
)


class TestPoolOfOneVerifier:
    """``--isolate``: a PortfolioVerifier on a pool of one."""

    def test_verdicts_match_inline_verifier(self):
        limits = WorkerLimits(wall_time=300, retries=0)
        with verifier_pool(1, limits) as pool:
            pv = PortfolioVerifier(ModelConfig(T=5), pool, limits=limits)
            assert pv.find_counterexample(rocc()).verified
            refuted = pv.find_counterexample(constant_cwnd(Fraction(1)))
        assert not refuted.verified
        assert refuted.counterexample is not None
        assert refuted.counterexample.check_environment() == []
        assert pv.kills == 0

    def test_killed_worker_degrades_to_unknown(self, recording_sink, monkeypatch):
        """A worker that never returns is killed, retried, and finally
        reported as an honest (degraded) unknown with runtime.degrade
        events — never a crash, never a verdict."""
        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _sleep_forever
        )
        monkeypatch.setattr(PortfolioVerifier, "WATCHDOG_SLACK", 1.0)
        with verifier_pool(1, _KILL_LIMITS) as pool:
            pv = PortfolioVerifier(ModelConfig(T=5), pool, limits=_KILL_LIMITS)
            result = pv.find_counterexample(rocc())
        assert result.unknown
        assert result.degraded
        assert not result.verified
        assert pv.kills == 2  # first attempt + one retry
        events = recording_sink.events("runtime.degrade")
        assert len(events) == 2
        assert all(e["attrs"]["kind"] == "worker_killed" for e in events)

    def test_deterministic_child_error_raises_worker_error(self, monkeypatch):
        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _raise_value_error
        )
        with verifier_pool(1, WorkerLimits()) as pool:
            pv = PortfolioVerifier(ModelConfig(T=5), pool)
            with pytest.raises(WorkerError, match="ValueError"):
                pv.find_counterexample(rocc())

    def test_soundness_error_in_worker_propagates(self, monkeypatch):
        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _raise_soundness
        )
        with verifier_pool(1, WorkerLimits()) as pool:
            pv = PortfolioVerifier(ModelConfig(T=5), pool)
            with pytest.raises(SoundnessError):
                pv.find_counterexample(rocc())


class TestTelemetryRelay:
    """Real-fork relay: child spans and metric deltas reach the parent."""

    def test_child_spans_relayed_with_worker_tag(self, recording_sink):
        from repro.obs import metrics

        before = metrics().counter("test.relay.checks").value
        report = _run_one(_traced_task)
        assert report.status == "ok" and report.result == "traced"
        # the child's counter delta merged into the parent registry
        assert metrics().counter("test.relay.checks").value == before + 5
        spans = {
            r["name"]: r for r in recording_sink.records
            if r.get("type") == "span"
        }
        # relayed child spans carry the lane tag of the pool worker
        assert spans["worker.run"]["attrs"]["worker"] == "p0"
        assert spans["child.solve"]["attrs"]["worker"] == "p0"
        batch = spans["service.pool.batch"]
        assert spans["worker.run"]["parent"] == batch["id"]
        assert spans["child.solve"]["parent"] == spans["worker.run"]["id"]

    def test_killed_worker_dumps_flight_recorder(
        self, recording_sink, monkeypatch, tmp_path
    ):
        """Exhausting retries on a hung worker leaves a parseable black
        box (the worker-escalation dump)."""
        import repro.obs.flight as flight
        from repro.obs import tracer
        from repro.obs.report import load_trace

        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _sleep_forever
        )
        monkeypatch.setattr(PortfolioVerifier, "WATCHDOG_SLACK", 1.0)
        saved = flight._RECORDER, flight._DUMP_DIR
        flight._RECORDER, flight._DUMP_DIR = None, None
        try:
            flight.ensure_flight_recorder()
            flight.set_dump_dir(str(tmp_path))
            with verifier_pool(1, _KILL_LIMITS) as pool:
                pv = PortfolioVerifier(
                    ModelConfig(T=5), pool, limits=_KILL_LIMITS
                )
                result = pv.find_counterexample(rocc())
            assert result.unknown and result.degraded
            dumps = list(tmp_path.glob("flightrec-worker-escalation-*.jsonl"))
            assert len(dumps) == 1
            summary = load_trace(str(dumps[0]))
            assert summary.malformed == 0
            assert summary.meta and summary.meta.get("flight_recorder")
            # the batch spans of the killed attempts made it into the ring
            assert summary.spans["service.pool.batch"].count == 2
        finally:
            if flight._RECORDER is not None:
                tracer().remove_sink(flight._RECORDER)
            flight._RECORDER, flight._DUMP_DIR = saved


class TestRunPoolLifecycle:
    """A run that starts its own pool stops it; an injected one survives."""

    def test_jobs_run_leaves_no_children(self, tiny_query):
        result = run_synthesis(replace(tiny_query, jobs=2))
        assert result.found
        assert _no_children()

    def test_soundness_error_leaves_no_children(self, tiny_query, monkeypatch):
        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _raise_soundness
        )
        with pytest.raises(SoundnessError):
            run_synthesis(replace(tiny_query, jobs=2))
        assert _no_children()

    def test_injected_pool_left_running(self, tiny_query):
        with WorkerPool(size=2) as pool:
            result = run_synthesis(
                replace(tiny_query, jobs=2), RuntimeOptions(worker_pool=pool)
            )
            assert result.found
            assert pool.stats.batches > 0
            assert set(pool.probe().values()) == {"idle"}
        assert _no_children()

    def test_killed_call_runs_one_plus_retries_times(
        self, tiny_query, monkeypatch, tmp_path
    ):
        """The verifier's ladder is the only retry: the pool's own crash
        re-queue must not multiply the attempts."""
        log = tmp_path / "calls.log"
        monkeypatch.setattr(
            portfolio_mod, "_pooled_verify_candidate_task", _crash_and_count
        )
        monkeypatch.setitem(globals(), "_CALL_LOG", str(log))
        options = RuntimeOptions(isolate=True, retries=2)
        result = run_synthesis(tiny_query, options)
        assert not result.found
        assert len(log.read_text().splitlines()) == 1 + options.retries
        kills = [d for d in result.degradations if d["kind"] == "worker_killed"]
        assert [k["status"] for k in kills] == ["crash"] * 3
        assert _no_children()
