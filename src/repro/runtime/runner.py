"""The fault-tolerant runtime's policy layer: one entry point per run mode.

:func:`run_synthesis` composes the runtime pieces around
:func:`repro.core.synthesize` according to :class:`RuntimeOptions`:

    CcacVerifier                    (validation always innermost)
      -> PortfolioVerifier on a WorkerPool
                                    (optional: --isolate is a pool of
                                     one, --jobs N a pool of N; caps and
                                     the degradation ladder: kill
                                     retries, worst-case fallback and
                                     disable)
        -> CegisLoop + CheckpointStore (optional: crash-safe state)

An in-process run calls :class:`~repro.core.verifier.CcacVerifier`
bare: its only ``unknown`` is an expired CEGIS deadline, past which no
rung may start another call.

:func:`resume_synthesis` rebuilds the original query from the checkpoint's
embedded metadata, verifies the fingerprint, and continues the run —
``ccmatic resume <ckpt>`` is a thin shell over it.  Volatile knobs
(time budget, iteration cap) may be overridden on resume; semantic fields
cannot be (the fingerprint would refuse the state).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace
from typing import Optional

from ..obs import tracer
from .checkpoint import CheckpointStore
from .errors import CheckpointError
from .serialize import (
    decode_candidate,
    decode_query,
    decode_trace,
    encode_candidate,
    encode_query,
    encode_trace,
    query_fingerprint,
)
from .workers import WorkerLimits

__all__ = [
    "RuntimeOptions",
    "make_checkpoint_store",
    "resume_synthesis",
    "run_synthesis",
]


@dataclass
class RuntimeOptions:
    """Fault-tolerance configuration of one synthesis run."""

    #: checkpoint file; None disables crash-safe persistence
    checkpoint_path: Optional[str] = None
    #: run verifier calls out of process on a one-worker pool under the
    #: caps below (the warm worker is reused, recycled after a quota)
    isolate: bool = False
    #: per-call wall-clock cap for out-of-process workers, seconds
    solver_timeout: float = 60.0
    #: per-worker address-space cap in MiB (None = unlimited)
    solver_mem_mb: Optional[int] = None
    #: adversarial falsification budget (trace evaluations) to spend on
    #: every solution after synthesis; 0 disables.  An in-fragment
    #: violation of a verified solution raises
    #: :class:`~repro.runtime.errors.SoundnessError`
    falsify: int = 0
    #: seed of the falsification search (replayable)
    falsify_seed: int = 0
    #: directory of the shared on-disk query cache (None disables it);
    #: portfolio workers and successive runs pool conclusive verdicts
    cache_dir: Optional[str] = None
    #: produce and independently check an UNSAT proof for every verified
    #: verdict (see :mod:`repro.trust`); a proof that fails to check
    #: raises :class:`~repro.runtime.errors.SoundnessError`
    certify: bool = False
    #: runtime-injected persistent worker pool
    #: (:class:`repro.service.pool.WorkerPool`); isolated and portfolio
    #: calls (``isolate`` or ``jobs > 1``) run on it.  When None, such a
    #: run starts a pool of its own (one lane, or ``jobs`` lanes) and
    #: stops it before returning.  Never serialized — a pool belongs to
    #: the process that started it, and an injected one stays with that
    #: owner (this module never shuts it down)
    worker_pool: Optional[object] = None


def make_checkpoint_store(query, path: str) -> CheckpointStore:
    """A :class:`CheckpointStore` wired with the CCmatic codecs for
    ``query`` (exact-Fraction candidates/traces, query fingerprint, and
    the encoded query embedded as metadata for ``resume``)."""
    cfg = query.cfg
    return CheckpointStore(
        path,
        fingerprint=query_fingerprint(query),
        meta={"query": encode_query(query)},
        encode_candidate=encode_candidate,
        decode_candidate=decode_candidate,
        encode_cex=encode_trace,
        decode_cex=lambda data: decode_trace(data, cfg),
    )


def _limits(options: RuntimeOptions) -> WorkerLimits:
    return WorkerLimits(
        wall_time=options.solver_timeout,
        memory_mb=options.solver_mem_mb,
    )


def _build_verifier(query, options: RuntimeOptions, pool=None):
    """The verifier of a run.  ``pool`` is set exactly when verifier
    calls run out of process."""
    if pool is not None:
        from ..engine import PortfolioVerifier

        return PortfolioVerifier(
            query.cfg,
            pool,
            limits=_limits(options),
            cache_dir=options.cache_dir,
            certify=options.certify,
            environments=query.environments,
        )
    cache = None
    if options.cache_dir:
        from ..engine import QueryCache

        cache = QueryCache(options.cache_dir)
    from ..core.verifier import CcacVerifier

    return CcacVerifier(
        query.cfg,
        cache=cache,
        certify=options.certify,
        environments=query.environments,
    )


def _run_pool(query, options: RuntimeOptions):
    """The pool context of a run: the injected pool, a fresh pool of one
    (``isolate``) or of ``jobs`` lanes, or None for in-process calls."""
    from contextlib import nullcontext

    jobs = int(getattr(query, "jobs", 1))
    if jobs <= 1 and not options.isolate:
        return nullcontext(None)
    from ..engine.portfolio import verifier_pool

    return verifier_pool(
        max(jobs, 1), _limits(options), pool=options.worker_pool
    )


def run_synthesis(query, options: Optional[RuntimeOptions] = None):
    """Run a synthesis query under the fault-tolerant runtime.

    Returns a :class:`repro.core.synthesizer.SynthesisResult` whose
    ``degradations`` lists every recorded weakening (worker kills,
    worst-case fallbacks and disables) of a pooled run.  A worker pool
    this call starts is stopped before it returns or raises; an
    injected ``options.worker_pool`` is left running.
    """
    from ..core.synthesizer import synthesize
    from ..obs import ensure_flight_recorder, set_dump_dir

    options = options or RuntimeOptions()
    # arm the flight recorder next to the checkpoint so a soundness
    # error or worker escalation leaves a black box beside the run state
    if options.checkpoint_path:
        set_dump_dir(
            os.path.dirname(os.path.abspath(options.checkpoint_path)) or "."
        )
    ensure_flight_recorder()
    checkpoint = (
        make_checkpoint_store(query, options.checkpoint_path)
        if options.checkpoint_path
        else None
    )
    with _run_pool(query, options) as pool:
        verifier = _build_verifier(query, options, pool)
        result = synthesize(query, verifier=verifier, checkpoint=checkpoint)
    if options.falsify > 0:
        from ..falsify import falsify_verified

        for cand in result.solutions:
            report = falsify_verified(
                cand, query.cfg, options.falsify, seed=options.falsify_seed
            )
            result.falsification_attempts += report.search.attempts
            result.falsification_survivals += report.survived
    return result


def _promote_backup(path: str) -> None:
    """Set the damaged checkpoint aside and promote ``<path>.bak``."""
    bak = path + ".bak"
    if not os.path.exists(bak):
        raise CheckpointError(
            f"no backup checkpoint {bak!r} to resume from (backups are "
            f"kept from the second save onward)"
        )
    if os.path.exists(path):
        os.replace(path, path + ".corrupt")
    # copy, not move: the backup stays available if this resume also dies
    shutil.copyfile(bak, path)
    tracer().event(
        "runtime.resume_from_backup",
        path=path,
        msg=f"[runtime] promoted backup checkpoint {bak} -> {path}",
    )


def resume_synthesis(
    path: str,
    options: Optional[RuntimeOptions] = None,
    time_budget: Optional[float] = None,
    max_iterations: Optional[int] = None,
    jobs: Optional[int] = None,
    from_backup: bool = False,
):
    """Continue a checkpointed run (``ccmatic resume``).

    The original query is reconstructed from the checkpoint's embedded
    metadata; ``time_budget`` / ``max_iterations`` / ``jobs`` optionally
    override the stored volatile knobs (they are excluded from the
    fingerprint, so extending a budget or changing the portfolio width
    on resume is legal).  Raises
    :class:`CheckpointError` when the file carries no query metadata and
    :class:`CheckpointMismatchError` when the state belongs to a
    different query than its metadata claims.

    ``from_backup=True`` recovers from a corrupt latest checkpoint: the
    damaged file is set aside as ``<path>.corrupt`` and the previous
    generation (``<path>.bak``, kept on every save) is promoted before
    resuming — at most one save interval of work is lost.
    """
    if from_backup:
        _promote_backup(path)
    fingerprint, meta = CheckpointStore.read_meta(path)
    encoded = meta.get("query")
    if not encoded:
        raise CheckpointError(
            f"checkpoint {path!r} carries no query metadata; it was not "
            f"written by run_synthesis and cannot be resumed standalone"
        )
    query = decode_query(encoded)
    if query_fingerprint(query) != fingerprint:
        raise CheckpointError(
            f"checkpoint {path!r} metadata does not match its fingerprint; "
            f"refusing to resume from inconsistent state"
        )
    overrides = {}
    if time_budget is not None:
        overrides["time_budget"] = time_budget
    if max_iterations is not None:
        overrides["max_iterations"] = max_iterations
    if jobs is not None:
        overrides["jobs"] = jobs
    if overrides:
        query = replace(query, **overrides)
    options = options or RuntimeOptions()
    options = replace(options, checkpoint_path=path)
    tracer().event(
        "runtime.resume",
        path=path,
        fingerprint=fingerprint[:12],
        msg=f"[runtime] resuming checkpoint {path}",
    )
    return run_synthesis(query, options)
