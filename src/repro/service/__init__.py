"""Synthesis-as-a-service: the control plane over the CEGIS engine.

The job-oriented API (:mod:`~repro.service.jobs`) makes every run — CLI
or HTTP — the same computation: a serializable, fingerprinted
:class:`JobSpec` executed by :func:`execute_job`.  Around it:

* :class:`WorkerPool` (:mod:`~repro.service.pool`) — persistent fork
  workers amortizing process boot, intern-table priming and the warm
  verifier's network build across batches; thread-safe lane leasing lets N
  executors share one pool;
* :class:`JobServer` (:mod:`~repro.service.server`) — the asyncio
  HTTP/JSON endpoint with a durable job queue, NDJSON progress streams
  and the service-wide query cache;
* :class:`ServiceClient` (:mod:`~repro.service.client`) — the blocking
  client behind ``ccmatic submit`` / ``status`` / ``result``, with
  full-jitter retries and cursor-resumable event streams;
* :mod:`~repro.service.resilience` — the overload-and-failure survival
  primitives (cancel scopes, job leases/attempts, retry policy) that
  the server, pool and client share.
"""

from .client import ServiceClient, ServiceError
from .jobs import (
    DEFAULT_MAX_ATTEMPTS,
    JOBRECORD_VERSION,
    JOBSPEC_VERSION,
    JobRecord,
    JobSpec,
    JobSpecError,
    decode_synthesis_result,
    encode_synthesis_result,
    execute_job,
    falsify_spec,
    synthesis_spec,
    verify_spec,
)
from .pool import PoolStats, WorkerPool
from .resilience import AttemptRecord, CancelScope, JobCancelled, RetryPolicy
from .server import JobServer, ServiceConfig, run_server

__all__ = [
    "AttemptRecord",
    "CancelScope",
    "DEFAULT_MAX_ATTEMPTS",
    "JOBRECORD_VERSION",
    "JOBSPEC_VERSION",
    "JobCancelled",
    "JobRecord",
    "JobServer",
    "JobSpec",
    "JobSpecError",
    "PoolStats",
    "RetryPolicy",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "WorkerPool",
    "decode_synthesis_result",
    "encode_synthesis_result",
    "execute_job",
    "falsify_spec",
    "run_server",
    "synthesis_spec",
    "verify_spec",
]
