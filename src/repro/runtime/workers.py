"""Process primitives for solver workers: caps, spawn, heartbeat, reap.

The from-scratch DPLL(T) solver runs exact-Fraction arithmetic in pure
Python: a single pathological query can pin a core for hours or swallow
all RAM, and the in-band ``deadline`` check only fires *between*
conflicts.  Verifier calls therefore run out of process, in persistent
workers started by :func:`spawn_pool_worker` — the one place that forks
a worker.  :class:`repro.service.pool.WorkerPool` owns their lifecycle
(hard watchdog, cancel-then-kill, respawn on death) and each child
self-limits memory via ``resource.setrlimit(RLIMIT_AS, ...)``.

:class:`WorkerLimits` is the per-call budget and retry policy that
:class:`repro.engine.portfolio.PortfolioVerifier` applies on top: a
killed or OOM'd worker is an *honest* ``unknown`` — never a crash of the
synthesis run and never a silent "verified" — after a bounded number of
retries with escalated budgets.  A :class:`SoundnessError` raised inside
a worker is re-raised in the parent verbatim and never degraded.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..chaos.faults import chaos_point, maybe_install_from_env
from ..obs import tracer
from ..obs.relay import TraceContext

__all__ = [
    "WorkerLimits",
    "WorkerReport",
    "probe_worker",
    "spawn_pool_worker",
    "reap_worker",
]


@dataclass(frozen=True)
class WorkerLimits:
    """Resource caps for one out-of-process call (and its retry policy)."""

    wall_time: float = 60.0          # soft in-child deadline, seconds
    memory_mb: Optional[int] = None  # RLIMIT_AS cap; None = unlimited
    retries: int = 1                 # extra attempts after the first failure
    escalation: float = 2.0          # wall-time multiplier per retry
    kill_grace: float = 1.0          # SIGTERM -> SIGKILL grace, seconds
    backoff_base: float = 0.25       # full-jitter retry backoff base, seconds
    backoff_cap: float = 5.0         # full-jitter retry backoff ceiling

    def budget(self, attempt: int) -> float:
        """Wall-clock budget of the given (0-based) attempt."""
        return self.wall_time * (self.escalation ** attempt)


@dataclass
class WorkerReport:
    """Outcome of one worker task."""

    status: str  # ok | timeout | oom | crash | error | cancelled
    result: Any = None
    detail: str = ""
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _mp_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def reap_worker(proc, conn, kill_grace: float = 1.0) -> None:
    """Terminate (if needed) and join one worker, closing its pipe.

    This is the *disposal* primitive — it always ends the process.  A
    pooled worker that should survive the call must not come here;
    :func:`probe_worker` is the keep-or-respawn decision
    ("idle, keep" vs "dead, respawn") and the pool only disposes of
    workers the probe condemned (or at shutdown).
    """
    if proc.is_alive():
        proc.terminate()
        proc.join(kill_grace)
        if proc.is_alive():
            proc.kill()
    proc.join(5.0)
    conn.close()


# -- persistent pool workers --------------------------------------------------


class TaskCancelled(BaseException):
    """Raised inside a pool child by the SIGUSR1 cancel handler.

    Derives from ``BaseException`` so task code that catches ``Exception``
    (retry loops, advisory telemetry) cannot swallow a cancellation.
    """


def _pool_child(conn, memory_mb: Optional[int], trace_ctx: Optional[TraceContext]) -> None:
    """Long-lived pool worker: boot once, then serve tasks over ``conn``.

    Protocol (all messages are tuples; first element is the kind):

    * parent -> child: ``("task", task_id, fn, args, kwargs)``,
      ``("prime", fn, args, kwargs)``, ``("ping", nonce)``,
      ``("shutdown",)``
    * child -> parent: per task one ``("telemetry", frame)`` followed by
      ``(status, task_id, payload)`` with status in
      ``ok | cancelled | soundness | oom | error``; ``("pong", nonce)``
      answers a ping; ``("primed", detail)`` acknowledges a prime.

    Cancellation: the parent sends ``SIGUSR1``; the handler raises
    :class:`TaskCancelled` *only while a task is executing*, so a signal
    that lands between tasks is ignored.  Interned terms are never
    released, and they stay warm across tasks together with any other
    process-global state the tasks build (e.g. warm verifiers) — that
    is the point of pooling; the pool bounds the resulting memory growth
    by recycling workers after ``max_tasks_per_worker``.
    """
    import signal

    from .errors import SoundnessError as _SoundnessError

    from ..obs.relay import TelemetryCapture, reset_child_tracing

    reset_child_tracing(trace_ctx)
    if memory_mb is not None:
        try:
            import resource

            limit = memory_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            pass
    maybe_install_from_env()

    busy = [False]

    def _on_cancel(signum, frame):
        if busy[0]:
            raise TaskCancelled()

    try:
        signal.signal(signal.SIGUSR1, _on_cancel)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass

    def _safe_send(msg) -> bool:
        try:
            conn.send(msg)
            return True
        except Exception:  # noqa: BLE001 - parent gone or unpicklable
            return False

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "shutdown":
            break
        if kind == "ping":
            _safe_send(("pong", msg[1]))
            continue
        if kind == "prime":
            _, fn, args, kwargs = msg
            try:
                fn(*args, **(kwargs or {}))
                _safe_send(("primed", ""))
            except Exception as exc:  # noqa: BLE001 - priming is advisory
                _safe_send(("primed", f"{type(exc).__name__}: {exc}"))
            continue
        # ("task", task_id, fn, args, kwargs)
        _, task_id, fn, args, kwargs = msg
        capture = TelemetryCapture(trace_ctx, task=str(task_id))
        busy[0] = True
        try:
            chaos_point("worker.child")
            with tracer().span(
                "worker.run", task=getattr(fn, "__name__", "?"),
            ):
                result = fn(*args, **(kwargs or {}))
            status, payload = "ok", result
        except TaskCancelled:
            status, payload = "cancelled", ""
        except _SoundnessError as exc:
            status, payload = "soundness", str(exc)
        except MemoryError:
            status, payload = "oom", f"worker exceeded {memory_mb} MiB"
        except BaseException as exc:  # noqa: BLE001 - report, parent decides
            status, payload = "error", f"{type(exc).__name__}: {exc}"
        finally:
            busy[0] = False
        _safe_send(("telemetry", capture.finish()))
        if not _safe_send((status, task_id, payload)):
            # the result itself may be the unpicklable part; degrade to
            # an error message so the parent is never left hanging
            if not _safe_send(
                ("error", task_id, "worker result could not be sent")
            ):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


def spawn_pool_worker(
    memory_mb: Optional[int] = None,
    trace_ctx: Optional[TraceContext] = None,
):
    """Start one persistent pool worker; returns ``(process, connection)``.

    The connection is *duplex*: the parent sends task/prime/ping messages
    and receives telemetry frames and results (see :func:`_pool_child`).
    The caller owns the lifecycle — :mod:`repro.service.pool` wraps this
    in a :class:`~repro.service.pool.WorkerPool` with heartbeats,
    respawn-on-death, and in-flight task retry.
    """
    if trace_ctx is None:
        trace_ctx = TraceContext.current()
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    proc = ctx.Process(
        target=_pool_child,
        args=(child_conn, memory_mb, trace_ctx),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    return proc, parent_conn


def probe_worker(proc, conn, timeout: float = 1.0) -> str:
    """Heartbeat check of an *idle* pooled worker: keep it or condemn it.

    Returns ``"idle"`` (alive and answering pings — keep), ``"dead"``
    (process gone or pipe broken — respawn), or ``"stuck"`` (alive but
    not answering within ``timeout`` — condemn and respawn; an idle
    worker has no legitimate reason to be silent).  Telemetry frames or
    stale results sitting in the pipe are drained, never mistaken for
    the pong.
    """
    if not proc.is_alive():
        return "dead"
    nonce = f"hb-{time.monotonic_ns()}"
    try:
        conn.send(("ping", nonce))
    except (OSError, ValueError, BrokenPipeError):
        return "dead"
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return "stuck"
        try:
            if not conn.poll(remaining):
                return "stuck"
            msg = conn.recv()
        except (EOFError, OSError):
            return "dead"
        if isinstance(msg, tuple) and len(msg) == 2 and msg[0] == "pong":
            if msg[1] == nonce:
                return "idle"
            continue  # stale pong from an earlier probe
        # stale telemetry/result from a cancelled task: drop and keep
        # waiting for the pong
        continue
