"""Parallel portfolio verification: many candidates, first verdict wins.

The CEGIS loop spends nearly all wall-clock time inside verifier SMT
checks, and a single check pins one core.  A *portfolio* round evaluates
several candidate CCAs concurrently on a persistent
:class:`repro.service.pool.WorkerPool` and cancels the losers the moment
one worker returns a *conclusive* result — a counterexample to feed the
generator, or a verified candidate.  This is the CC-Fuzz observation
(Ray & Seshan 2022) applied to synthesis: stress-search over CCA
behaviours scales near-linearly with workers because any one discovered
trace advances the loop.

:class:`PortfolioVerifier` is the one out-of-process verifier: a pool of
one is ``--isolate`` (every call out of process, under the
:class:`~repro.runtime.workers.WorkerLimits` caps), a pool of ``jobs``
lanes is the ``--jobs N`` race.  Killed workers walk an escalation
ladder — retried with a grown budget after a seeded full-jitter backoff
— and finally degrade to an honest ``unknown``.

Cancellation is safe for soundness: a cancelled worker's verdict is
simply never used, and candidates whose verification was cancelled stay
in the generator's space to be re-proposed later.  A
:class:`SoundnessError` raised in *any* worker — even one about to be
cancelled — aborts the whole round and propagates.
"""

from __future__ import annotations

import contextlib
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Optional, Sequence

from ..ccac.environments import EnvironmentSpec, default_environments
from ..chaos.supervisor import full_jitter_backoff
from ..obs import DEBUG, WARN, metrics, tracer
from ..obs.flight import dump_flight
from ..runtime.workers import WorkerLimits, WorkerReport

__all__ = ["PortfolioOutcome", "PortfolioVerifier", "verifier_pool"]

#: report statuses that mean the worker was killed (not a verdict)
_KILLED = ("timeout", "oom", "crash")


@dataclass
class PortfolioOutcome:
    """Result of one portfolio race."""

    #: index of the task whose result won the race (None: nobody accepted)
    winner: Optional[int]
    #: the winning result (None when winner is None)
    result: Any
    #: indices of tasks cancelled while still running
    cancelled: list[int]
    #: per-index reports for tasks that finished on their own
    reports: dict[int, WorkerReport] = field(default_factory=dict)
    wall_time: float = 0.0
    #: telemetry frames received per task index (merged by the pool;
    #: kept for callers that want per-worker attribution)
    telemetry: dict[int, list] = field(default_factory=dict)


def verifier_pool(size: int, limits: WorkerLimits, pool=None):
    """Context manager yielding the pool a :class:`PortfolioVerifier`
    runs on.

    An injected ``pool`` (the service's) is yielded as is and left
    running.  Otherwise a fresh :class:`~repro.service.pool.WorkerPool`
    of ``size`` lanes is started, capped by ``limits``, and shut down on
    exit.  Its crash re-queue is off: the verifier's escalation ladder
    already retries killed calls, and the two must not multiply.
    """
    if pool is not None:
        return contextlib.nullcontext(pool)
    from ..service.pool import WorkerPool

    return WorkerPool(
        size, memory_mb=limits.memory_mb, kill_grace=limits.kill_grace,
        retries=0,
    )


# -- the portfolio CCAC verifier ---------------------------------------------


#: per-process warm state for pooled workers: one verifier, keyed by its
#: full configuration.  Lives in the *pool child* process (the task fn is
#: pickled by reference, so this global is the child's own copy) and is
#: what amortizes the base-network build and its compile memo across the
#: batches a persistent worker serves.
_WORKER_STATE: dict = {}


def _pooled_verify_candidate_task(
    cfg, precision, candidate, worst_case, time_limit, cache_dir,
    certify=False, environments=default_environments(),
):
    """Runs inside a *persistent* pool worker: warm verifier, one candidate.

    Keeps one :class:`~repro.core.verifier.CcacVerifier` alive in
    ``_WORKER_STATE`` across tasks — the CCAC network is built once and
    a repeated candidate reuses its session.  Soundness: any abnormal
    exit (cancellation via ``TaskCancelled``, solver crash,
    ``SoundnessError``) drops the warm verifier before re-raising, so a
    session that might be stuck mid-scope is never reused; the
    independent model validator checks each verdict regardless.
    """
    import json as _json

    from ..core.verifier import CcacVerifier
    from ..runtime.serialize import encode_config
    from .cache import QueryCache

    key = (
        _json.dumps(encode_config(cfg), sort_keys=True),
        str(precision),
        str(cache_dir or ""),
        bool(certify),
        tuple(env.key() for env in environments),
    )
    verifier = _WORKER_STATE.get(key)
    if verifier is None:
        cache = QueryCache(cache_dir) if cache_dir else None
        verifier = CcacVerifier(
            cfg, wce_precision=precision, cache=cache,
            certify=certify, environments=environments,
        )
        # bounded: at most one warm verifier per environment cell (the
        # grid dispatch hands each worker a single-environment task, so
        # a worker serving mixed cells keeps one network per cell warm
        # instead of rebuilding it on every alternation)
        if len(_WORKER_STATE) >= 8:
            _WORKER_STATE.clear()
        _WORKER_STATE[key] = verifier
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    try:
        return verifier.find_counterexample(
            candidate, worst_case=worst_case, deadline=deadline
        )
    except BaseException:
        _WORKER_STATE.pop(key, None)
        raise


class PortfolioVerifier:
    """Batch-capable verifier racing candidates across pool workers.

    Implements both :class:`repro.cegis.interfaces.Verifier` (single
    candidate: a batch of one) and
    :class:`repro.cegis.interfaces.BatchVerifier`
    (:meth:`verify_batch`: race a batch, first conclusive verdict wins,
    losers cancelled).  ``cache_dir`` gives every worker a shared
    on-disk query cache.

    ``pool`` (duck-typed: anything with
    ``run_batch(tasks, accept=, wall_time=)`` returning a
    :class:`PortfolioOutcome`, normally a
    :class:`repro.service.pool.WorkerPool`; see :func:`verifier_pool`)
    runs every task as :func:`_pooled_verify_candidate_task`, whose warm
    verifier amortizes the network build and compile work across
    batches.  The pool's lifecycle belongs to the caller — this
    class never starts or shuts it down.

    A round in which workers were killed (watchdog timeout, OOM, crash)
    and nobody was conclusive is retried under ``limits``: the budget
    grows by :meth:`WorkerLimits.budget`, attempts are spaced by a
    full-jitter backoff seeded by ``retry_seed`` (chaos runs replay the
    same schedule), and every kill emits a ``runtime.degrade`` event of
    kind ``worker_killed``.  Once the retries are spent the flight
    recorder is dumped (``worker-escalation``) and the call returns a
    degraded unknown.
    """

    #: hard watchdog headroom over the in-worker soft deadline
    WATCHDOG_SLACK = 1.25

    def __init__(
        self,
        cfg,
        pool,
        wce_precision: Fraction = Fraction(1, 8),
        limits: WorkerLimits = WorkerLimits(),
        cache_dir: Optional[str] = None,
        certify: bool = False,
        environments: Sequence[EnvironmentSpec] = default_environments(),
        retry_seed: Optional[int] = None,
    ):
        self.cfg = cfg
        self.pool = pool
        self.wce_precision = Fraction(wce_precision)
        self.limits = limits
        self.cache_dir = cache_dir
        self.certify = certify
        self.environments = tuple(environments)
        if not self.environments:
            raise ValueError("a verifier needs at least one environment")
        self.calls = 0
        self.rounds = 0
        self.cancelled = 0
        self.kills = 0
        self.total_time = 0.0
        self.degradations: list[dict] = []
        self._retry_rng = random.Random(retry_seed)

    def _task(self, candidate, worst_case: bool, budget: float, env):
        return (
            _pooled_verify_candidate_task,
            (
                self.cfg,
                self.wce_precision,
                candidate,
                worst_case,
                budget,
                self.cache_dir,
                self.certify,
                (env,),
            ),
        )

    def verify_batch(self, candidates, worst_case: bool = False, deadline=None):
        """Race ``candidates``; returns a
        :class:`repro.cegis.interfaces.BatchVerdict`.

        The verdict's winner is the first worker to return a conclusive
        result (counterexample found or candidate verified); the rest
        are cancelled and their candidates stay un-judged.  When no
        worker is conclusive the verdict has ``winner=None`` and an
        unknown result — degraded when workers were killed, or when the
        deadline left no time to run at all.

        With an environment matrix the race runs over the
        candidates × environments grid (one single-environment worker
        per cell, candidate-major).  Any cell's *counterexample* wins
        immediately — it prunes the shared generator under its own
        environment's semantics.  A *verified* cell only counts toward
        its candidate: the race ends on the first candidate whose every
        environment returned UNSAT, and the verdict aggregates the
        per-environment results (a candidate is never declared verified
        on a subset of the matrix).
        """
        from ..cegis.interfaces import BatchVerdict
        from ..core.verifier import VerificationResult

        start = time.perf_counter()
        candidates = list(candidates)
        self.calls += len(candidates)
        envs = self.environments
        cells = [(c, env) for c in candidates for env in envs]
        limits = self.limits
        attempts = max(0, limits.retries) + 1
        outcome = None
        killed: list[WorkerReport] = []
        for attempt in range(attempts):
            budget = limits.budget(attempt)
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                budget = min(budget, remaining)
            # per round: a candidate is verified only by n_envs UNSAT
            # cells of the *same* round, never pieced together across
            # retries
            verified_runs: dict = {}

            def accept(result):
                if getattr(result, "counterexample", None) is not None:
                    return True
                if getattr(result, "verified", False):
                    bucket = verified_runs.setdefault(
                        result.candidate.key(), []
                    )
                    bucket.append(result)
                    return len(bucket) == len(envs)
                return False

            outcome = self.pool.run_batch(
                [self._task(c, worst_case, budget, env) for c, env in cells],
                accept=accept,
                wall_time=budget * self.WATCHDOG_SLACK + limits.kill_grace,
            )
            self._record_round(len(candidates), outcome)
            killed = [
                r for r in outcome.reports.values() if r.status in _KILLED
            ]
            if outcome.winner is not None:
                next_step = "race won elsewhere"
            else:
                next_step = "retrying" if attempt + 1 < attempts else "unknown"
            for report in killed:
                self._record_kill(report, attempt, attempts, budget, next_step)
            if outcome.winner is not None:
                self.total_time += time.perf_counter() - start
                return BatchVerdict(
                    winner=outcome.winner // len(envs),
                    result=self._winning_result(
                        outcome.result, verified_runs, len(envs)
                    ),
                    launched=len(candidates),
                    cancelled=len(outcome.cancelled),
                )
            if not killed:
                break
            if attempt + 1 < attempts:
                # full-jitter backoff: a fanned-out bad query must not
                # stampede back in lockstep; never sleeps past the
                # caller's deadline
                delay = full_jitter_backoff(
                    limits.backoff_base, attempt, cap=limits.backoff_cap,
                    rng=self._retry_rng,
                )
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.perf_counter()))
                if delay > 0:
                    time.sleep(delay)
        elapsed = time.perf_counter() - start
        self.total_time += elapsed
        if killed:
            # every retry was killed: the escalation ladder is exhausted
            # and the run degrades — preserve the black box
            dump_flight("worker-escalation")
        single = outcome is not None and len(cells) == 1
        report = outcome.reports.get(0) if single else None
        if report is not None and report.ok:
            # an in-worker soft-deadline expiry is a plain unknown, not a
            # kill: return it as-is and let the caller's policy decide
            result = report.result
        else:
            result = VerificationResult(
                candidate=candidates[0],
                verified=False,
                counterexample=None,
                wall_time=elapsed,
                solver_checks=0,
                unknown=True,
                degraded=outcome is None or bool(killed),
            )
        return BatchVerdict(
            winner=None,
            result=result,
            launched=len(candidates),
            cancelled=0 if outcome is None else len(outcome.cancelled),
        )

    def _winning_result(self, result, verified_runs: dict, n_envs: int):
        """The winner as the CEGIS loop sees it: a counterexample as is,
        a verified candidate aggregated over every environment cell."""
        if n_envs == 1 or not getattr(result, "verified", False):
            return result
        from ..core.verifier import VerificationResult

        runs = verified_runs[result.candidate.key()]
        certified = all(r.certified for r in runs)
        return VerificationResult(
            candidate=result.candidate,
            verified=True,
            counterexample=None,
            wall_time=max(r.wall_time for r in runs),
            solver_checks=sum(r.solver_checks for r in runs),
            certified=certified,
            certificate=(
                tuple(r.certificate for r in runs) if certified else None
            ),
        )

    def _record_round(self, size: int, outcome: PortfolioOutcome) -> None:
        self.rounds += 1
        self.cancelled += len(outcome.cancelled)
        reg = metrics()
        reg.counter("engine.portfolio.rounds").inc()
        reg.counter("engine.portfolio.launched").inc(size)
        reg.counter("engine.portfolio.cancelled").inc(len(outcome.cancelled))
        tr = tracer()
        if tr.enabled:
            tr.event(
                "engine.portfolio.round",
                level=DEBUG,
                size=size,
                winner=outcome.winner,
                cancelled=len(outcome.cancelled),
                wall_time=round(outcome.wall_time, 4),
            )

    def _record_kill(
        self, report: WorkerReport, attempt: int, attempts: int,
        budget: float, next_step: str,
    ) -> None:
        self.kills += 1
        event = {
            "kind": "worker_killed",
            "status": report.status,
            "attempt": attempt + 1,
            "attempts": attempts,
            "budget": round(budget, 3),
            "detail": report.detail,
        }
        self.degradations.append(event)
        metrics().counter("runtime.worker_kills").inc()
        tr = tracer()
        if tr.enabled:
            tr.event(
                "runtime.degrade",
                level=WARN,
                msg=(
                    f"[runtime] solver worker {report.status} "
                    f"(attempt {attempt + 1}/{attempts}, "
                    f"budget {budget:.1f}s) -> {next_step}"
                ),
                **event,
            )

    def find_counterexample(self, candidate, worst_case: bool = False, deadline=None):
        """Single-candidate path (a batch of one, same isolation)."""
        verdict = self.verify_batch([candidate], worst_case=worst_case, deadline=deadline)
        return verdict.result

    def verify(self, candidate) -> bool:
        """Convenience wrapper mirroring :meth:`CcacVerifier.verify`."""
        return self.find_counterexample(candidate).verified
