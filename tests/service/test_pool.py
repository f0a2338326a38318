"""WorkerPool behaviour: batches, cancellation, death and rebirth."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.runtime.errors import SoundnessError, WorkerError
from repro.service import WorkerPool

pytestmark = [pytest.mark.service, pytest.mark.runtime]


# top-level so they are picklable by the fork start method
def _add(a, b):
    return a + b


def _slow_add(a, b, delay=30.0):
    time.sleep(delay)
    return a + b


def _boom():
    raise RuntimeError("worker exploded")


def _soundness():
    raise SoundnessError("fabricated verdict")


def _pid():
    return os.getpid()


def _no_zombies():
    deadline = time.time() + 5.0
    while time.time() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return False


def test_wait_all_batch_returns_every_result():
    with WorkerPool(size=2) as pool:
        outcome = pool.run_batch(
            [(_add, (1, 2)), (_add, (3, 4)), (_add, (5, 6))],
            accept=lambda _r: False,
        )
    assert outcome.winner is None
    assert {i: r.result for i, r in outcome.reports.items()} == {
        0: 3, 1: 7, 2: 11,
    }
    assert _no_zombies()


def test_first_winner_cancels_losers_but_keeps_workers():
    pool = WorkerPool(size=2, kill_grace=2.0)
    with pool:
        outcome = pool.run_batch(
            [(_slow_add, (1, 2)), (_add, (3, 4))], wall_time=25.0
        )
        assert outcome.winner == 1
        assert outcome.result == 7
        assert outcome.cancelled == [0]
        # the loser acknowledged SIGUSR1 cooperatively, so its worker
        # must still be alive and serving (keep, not respawn)
        assert pool.stats.respawns == 0
        verdicts = pool.probe()
        assert set(verdicts.values()) == {"idle"}
        again = pool.run_batch([(_add, (10, 20))])
        assert again.result == 30
    assert _no_zombies()


def test_workers_persist_across_batches():
    with WorkerPool(size=1) as pool:
        first = pool.run_batch([(_pid, ())]).result
        second = pool.run_batch([(_pid, ())]).result
        assert first == second  # same process served both batches
        assert pool.stats.spawns == 1
    assert _no_zombies()


@pytest.mark.chaos
def test_sigkill_mid_task_is_retried_not_lost():
    """Satellite: a pooled worker SIGKILLed mid-job is respawned and the
    job re-queued — the batch still completes with the right answer."""
    pool = WorkerPool(size=1, retries=1, kill_grace=2.0)
    with pool:
        victim = pool._lanes[0].proc.pid

        def _assassin():
            time.sleep(0.4)
            try:
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Thread(target=_assassin)
        killer.start()
        outcome = pool.run_batch(
            [(_slow_add, (100, 5), {"delay": 1.5})],
            accept=lambda _r: False,
            wall_time=60.0,
        )
        killer.join()
    assert outcome.reports[0].status == "ok"
    assert outcome.reports[0].result == 105
    assert pool.stats.respawns >= 1
    assert pool.stats.retries == 1
    assert _no_zombies()


@pytest.mark.chaos
def test_repeated_crashes_exhaust_retries():
    pool = WorkerPool(size=1, retries=0, kill_grace=2.0)
    with pool:
        victim = pool._lanes[0]

        def _assassin():
            time.sleep(0.4)
            try:
                os.kill(victim.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Thread(target=_assassin)
        killer.start()
        outcome = pool.run_batch(
            [(_slow_add, (1, 1), {"delay": 30.0})],
            accept=lambda _r: False,
            wall_time=20.0,
        )
        killer.join()
    assert outcome.reports[0].status == "crash"
    assert "died" in outcome.reports[0].detail
    assert _no_zombies()


def test_timed_out_task_counts_as_a_lane_kill():
    """A task that overruns the batch's wall time is traced as a kill
    on its lane, and ``ccmatic report`` shows it in the lane table."""
    import io

    from repro.obs import JsonlSink, tracer
    from repro.obs.report import parse_trace

    buf = io.StringIO()
    sink = tracer().add_sink(JsonlSink(buf))
    try:
        with WorkerPool(size=1, kill_grace=2.0) as pool:
            outcome = pool.run_batch(
                [(_slow_add, (1, 1), {"delay": 30.0})],
                accept=lambda _r: False,
                wall_time=0.5,
            )
    finally:
        tracer().remove_sink(sink)
    assert outcome.reports[0].status == "timeout"
    summary = parse_trace(buf.getvalue().splitlines())
    assert summary.workers["p0"].kills == 1
    assert _no_zombies()


def test_all_errors_raise_worker_error():
    with WorkerPool(size=2) as pool:
        with pytest.raises(WorkerError, match="worker exploded"):
            pool.run_batch([(_boom, ()), (_boom, ())])
    assert _no_zombies()


def test_soundness_error_propagates(tmp_path):
    from repro.obs import set_dump_dir

    set_dump_dir(str(tmp_path))
    with WorkerPool(size=1) as pool:
        with pytest.raises(SoundnessError, match="fabricated"):
            pool.run_batch([(_soundness, ())])
    assert _no_zombies()


def test_error_does_not_kill_the_worker():
    """A task-level exception is a report, not a worker death."""
    with WorkerPool(size=1) as pool:
        outcome = pool.run_batch(
            [(_boom, ()), (_add, (2, 2))], accept=lambda _r: False
        )
        assert outcome.reports[0].status == "error"
        assert outcome.reports[1].result == 4
        assert pool.stats.respawns == 0
    assert _no_zombies()


def test_recycle_after_task_quota():
    pool = WorkerPool(size=1, max_tasks_per_worker=1)
    with pool:
        first = pool.run_batch([(_pid, ())]).result
        assert pool.stats.recycles >= 1
        second = pool.run_batch([(_pid, ())]).result
        assert first != second  # quota hit -> fresh process
    assert _no_zombies()


def test_probe_respawns_dead_idle_worker():
    pool = WorkerPool(size=2, kill_grace=2.0)
    with pool:
        os.kill(pool._lanes[0].proc.pid, signal.SIGKILL)
        pool._lanes[0].proc.join(5.0)
        verdicts = pool.probe()
        assert verdicts[0] == "dead"
        assert verdicts[1] == "idle"
        assert pool.stats.respawns == 1
        # the respawned lane serves immediately
        outcome = pool.run_batch([(_add, (7, 8))])
        assert outcome.result == 15
    assert _no_zombies()


def test_prime_runs_on_spawn_and_respawn():
    events = []

    with WorkerPool(size=1, prime=(_pid, (), {})) as pool:
        events.append(pool.run_batch([(_add, (1, 1))]).result)
    assert events == [2]
    assert _no_zombies()
