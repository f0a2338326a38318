"""The job-oriented API: one serializable description of any run.

A :class:`JobSpec` is the *single* way to describe a unit of work —
``ccmatic synthesize``, ``verify`` and ``falsify`` all build one and
execute it through the same :func:`execute_job` the HTTP server uses, so
"run locally" and "submit to a service" are the same computation with a
different transport.  Specs round-trip through JSON with exact-Fraction
codecs (:mod:`repro.runtime.serialize`) and are fingerprinted the same
way checkpoints are: a SHA-256 over the canonical encoding, stable
across processes and hosts.

A :class:`JobRecord` is the server-side lifecycle wrapper (queued →
running → done/failed/cancelled) persisted as one JSON file per job, so
a restarted server still knows every job it ever accepted.  Record
version 2 (PR 10) adds the resilience fields: a heartbeat-renewed
*lease* while the job runs, an attempt counter, and the per-attempt
history a re-queued job accumulates; v1 records on disk migrate on
load with the fields defaulted.

Result payloads are JSON too: :func:`encode_synthesis_result` splits
*semantic* fields (solutions, verdict counts, stop reason) from *timing*
fields (wall clock, per-phase seconds) and fingerprints only the former
— two runs of the same spec on different machines produce payloads with
equal ``fingerprint`` even though their timings differ.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..ccac.environments import default_environments
from ..obs.events import DEBUG
from ..runtime.serialize import (
    decode_candidate,
    decode_config,
    decode_query,
    decode_trace,
    encode_candidate,
    encode_config,
    encode_query,
    encode_trace,
)

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "JOBRECORD_VERSION",
    "JOBSPEC_VERSION",
    "JobSpec",
    "JobSpecError",
    "JobRecord",
    "decode_synthesis_result",
    "encode_synthesis_result",
    "execute_job",
    "falsify_spec",
    "spec_deadline",
    "spec_max_attempts",
    "synthesis_spec",
    "verify_spec",
]

#: bump when the JobSpec layout changes; a spec with a different version
#: is rejected with a clear error, never half-parsed.
#: v2: queries and verify jobs carry a canonical ``environments`` list
#: (the CCAC matrix); encodings and fingerprints changed shape.
JOBSPEC_VERSION = 2

_KINDS = ("synthesize", "verify", "falsify")


class JobSpecError(ValueError):
    """A JobSpec that cannot be decoded (wrong version, unknown kind)."""


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """A serializable, fingerprintable description of one run."""

    kind: str
    #: kind-specific parameters, already JSON-ready (Fractions as strings)
    params: dict
    version: int = JOBSPEC_VERSION

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise JobSpecError(
                f"unknown job kind {self.kind!r}; expected one of {_KINDS}"
            )

    def to_json(self) -> dict:
        return {"version": self.version, "kind": self.kind,
                "params": self.params}

    @classmethod
    def from_json(cls, data: Any) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobSpecError(f"JobSpec must be a JSON object, got {type(data).__name__}")
        version = data.get("version")
        if version != JOBSPEC_VERSION:
            raise JobSpecError(
                f"unsupported JobSpec version {version!r}; this build "
                f"understands version {JOBSPEC_VERSION} — re-submit with a "
                f"matching client or upgrade the server"
            )
        kind = data.get("kind")
        params = data.get("params")
        if not isinstance(params, dict):
            raise JobSpecError("JobSpec params must be a JSON object")
        return cls(kind=kind, params=params, version=version)

    def fingerprint(self) -> str:
        """SHA-256 over the canonical encoding (process/host stable)."""
        return hashlib.sha256(
            _canonical(self.to_json()).encode("utf-8")
        ).hexdigest()


# -- spec builders ------------------------------------------------------------

#: attempts a job gets before the server marks it honestly failed, when
#: the spec does not say otherwise
DEFAULT_MAX_ATTEMPTS = 3


def _encode_limits(params: dict, max_attempts, deadline_s) -> dict:
    """Fold the resilience limits into ``params`` — only when explicitly
    given, so a default spec fingerprints identically to older builds."""
    if max_attempts is not None:
        params["max_attempts"] = int(max_attempts)
    if deadline_s is not None:
        params["deadline_s"] = float(deadline_s)
    return params


def spec_max_attempts(spec: JobSpec) -> int:
    """Execution attempts this spec allows before an honest ``failed``."""
    return int(spec.params.get("max_attempts") or DEFAULT_MAX_ATTEMPTS)


def spec_deadline(spec: JobSpec) -> Optional[float]:
    """Per-attempt wall-clock bound in seconds (None = unbounded)."""
    value = spec.params.get("deadline_s")
    return float(value) if value else None

#: RuntimeOptions fields carried in a synthesis spec, with their codecs.
#: checkpoint_path and worker_pool are deliberately NOT part of a spec —
#: where state lives and where calls run is the executor's business (the
#: server keeps state under its state dir and runs calls on its pool).
#: Decoding ignores keys not listed here, so a stored spec that carries
#: an option since removed still runs.
_OPTION_FIELDS = {
    "isolate": (bool, bool),
    "solver_timeout": (float, float),
    "solver_mem_mb": (lambda v: v, lambda v: v),
    "falsify": (int, int),
    "falsify_seed": (int, int),
    "cache_dir": (lambda v: v, lambda v: v),
    "certify": (bool, bool),
}


def _encode_options(options) -> dict:
    out = {}
    for name, (enc, _dec) in _OPTION_FIELDS.items():
        value = getattr(options, name)
        out[name] = None if value is None else enc(value)
    return out


def _decode_options(data: dict):
    from ..runtime.runner import RuntimeOptions

    kwargs = {}
    for name, (_enc, dec) in _OPTION_FIELDS.items():
        if name in data:
            value = data[name]
            kwargs[name] = None if value is None else dec(value)
    return RuntimeOptions(**kwargs)


def synthesis_spec(
    query, options=None, max_attempts=None, deadline_s=None,
) -> JobSpec:
    """A synthesize job: the full query plus its runtime options."""
    from ..runtime.runner import RuntimeOptions

    options = options or RuntimeOptions()
    return JobSpec(
        kind="synthesize",
        params=_encode_limits(
            {
                "query": encode_query(query),
                "options": _encode_options(options),
            },
            max_attempts, deadline_s,
        ),
    )


def verify_spec(
    cca: str,
    cfg,
    worst_case: bool = False,
    certify: bool = False,
    falsify: int = 0,
    falsify_seed: int = 0,
    environments=default_environments(),
    max_attempts=None,
    deadline_s=None,
) -> JobSpec:
    """A verify job for a named CCA (``rocc``/``eq3``/``const:<gamma>``).

    ``environments`` selects the cells of the CCAC matrix to verify
    against; the default, the paper's lossless fragment, encodes as
    ``[lossless]``.
    """
    from ..runtime.serialize import encode_environments

    return JobSpec(
        kind="verify",
        params=_encode_limits(
            {
                "cca": cca,
                "cfg": encode_config(cfg),
                "worst_case": bool(worst_case),
                "certify": bool(certify),
                "falsify": int(falsify),
                "falsify_seed": int(falsify_seed),
                "environments": encode_environments(environments),
            },
            max_attempts, deadline_s,
        ),
    )


def falsify_spec(
    cca: str,
    cfg,
    budget: int = 2000,
    seed: int = 0,
    ticks: int = 120,
    population: int = 24,
    beyond: bool = False,
    exhaustive: bool = False,
    no_verify: bool = False,
    max_attempts=None,
    deadline_s=None,
) -> JobSpec:
    """A falsify job: adversarial trace search against one CCA."""
    return JobSpec(
        kind="falsify",
        params=_encode_limits(
            {
                "cca": cca,
                "cfg": encode_config(cfg),
                "budget": int(budget),
                "seed": int(seed),
                "ticks": int(ticks),
                "population": int(population),
                "beyond": bool(beyond),
                "exhaustive": bool(exhaustive),
                "no_verify": bool(no_verify),
            },
            max_attempts, deadline_s,
        ),
    )


# -- result payloads ----------------------------------------------------------

#: payload keys that are *semantic* — two runs of the same spec must
#: agree on these; everything else (timings, degradations) is allowed to
#: differ between machines and is excluded from the payload fingerprint
_SEMANTIC_KEYS = (
    "solutions", "iterations", "counterexamples", "exhausted", "timed_out",
    "stop_reason", "certified_verdicts", "resumed",
    # no longer written (None in every new payload); kept so a stored
    # payload that carries it still verifies and fingerprints stay put
    "cross_checks",
    "falsification_attempts", "falsification_survivals",
)


def _payload_fingerprint(payload: dict) -> str:
    semantic = {k: payload.get(k) for k in _SEMANTIC_KEYS}
    return hashlib.sha256(_canonical(semantic).encode("utf-8")).hexdigest()


#: semantic keys of verify / falsify payloads — deterministic for a
#: given spec (seeded searches), unlike wall_time or solver_checks
#: (cache warmth changes those between runs of the *same* job)
_VERIFY_SEMANTIC_KEYS = (
    "cca", "verified", "unknown", "counterexample", "environment",
    "certified", "survived",
)
_FALSIFY_SEMANTIC_KEYS = (
    "cca", "verified", "smt_verdict", "survived", "evaluations",
)


def _fingerprint_over(payload: dict, keys: tuple) -> str:
    semantic = {k: payload.get(k) for k in keys}
    return hashlib.sha256(_canonical(semantic).encode("utf-8")).hexdigest()


def encode_synthesis_result(result) -> dict:
    """JSON payload for a :class:`~repro.core.synthesizer.SynthesisResult`."""
    payload = {
        "query": encode_query(result.query),
        "solutions": [encode_candidate(c) for c in result.solutions],
        "iterations": int(result.iterations),
        "counterexamples": int(result.counterexamples),
        "exhausted": bool(result.exhausted),
        "timed_out": bool(result.timed_out),
        "stop_reason": result.stop_reason.value if result.stop_reason else None,
        "certified_verdicts": int(result.certified_verdicts),
        "resumed": bool(result.resumed),
        "falsification_attempts": int(result.falsification_attempts),
        "falsification_survivals": int(result.falsification_survivals),
        # timing section: informative, excluded from the fingerprint
        "generator_time": result.generator_time,
        "verifier_time": result.verifier_time,
        "wall_time": result.wall_time,
        "degradations": list(result.degradations),
    }
    payload["fingerprint"] = _payload_fingerprint(payload)
    return payload


def decode_synthesis_result(payload: dict):
    """Rebuild a :class:`~repro.core.synthesizer.SynthesisResult` from a
    payload — the remote half of "local and submitted runs are the same
    computation".  Raises :class:`JobSpecError` on a fingerprint that
    does not match the payload's semantic content."""
    from ..cegis.interfaces import StopReason
    from ..core.synthesizer import SynthesisResult

    claimed = payload.get("fingerprint")
    if claimed and claimed != _payload_fingerprint(payload):
        raise JobSpecError(
            "result payload fingerprint does not match its content; "
            "refusing to decode a tampered or torn payload"
        )
    query = decode_query(payload["query"])
    return SynthesisResult(
        query=query,
        solutions=[decode_candidate(c) for c in payload["solutions"]],
        iterations=int(payload["iterations"]),
        counterexamples=int(payload["counterexamples"]),
        generator_time=float(payload.get("generator_time", 0.0)),
        verifier_time=float(payload.get("verifier_time", 0.0)),
        wall_time=float(payload.get("wall_time", 0.0)),
        stop_reason=(
            StopReason(payload["stop_reason"])
            if payload.get("stop_reason") else None
        ),
        certified_verdicts=int(payload.get("certified_verdicts", 0)),
        resumed=bool(payload.get("resumed", False)),
        degradations=list(payload.get("degradations", ())),
        falsification_attempts=int(payload.get("falsification_attempts", 0)),
        falsification_survivals=int(payload.get("falsification_survivals", 0)),
    )


# -- execution ----------------------------------------------------------------


def execute_job(
    spec: JobSpec,
    *,
    pool=None,
    cache_dir: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    corpus_dir: Optional[str] = None,
    write_corpus: bool = False,
    progress: Optional[Callable[[dict], None]] = None,
    cancel=None,
) -> dict:
    """Run one job to completion; returns its JSON result payload.

    This is the single execution path: the CLI calls it in-process, the
    HTTP server calls it per queued job.  The keyword arguments are
    *executor policy*, not part of the spec: ``pool`` (a
    :class:`~repro.service.pool.WorkerPool`) is where out-of-process
    work runs — verify and falsify bodies as one pool task each, and a
    synthesize job's isolated or portfolio verifier calls (``isolate``
    or ``jobs > 1``) as pool batches; ``cache_dir`` overrides the spec's cache
    directory with the executor's shared store; ``checkpoint_path``
    gives synthesis jobs crash-safe state under the executor's state
    dir; ``corpus_dir``/``write_corpus`` let a *local* falsify run
    commit minimized violations into a corpus (the server keeps this
    off — jobs must not write into the repo); ``progress`` receives
    every tracer record emitted while the job runs (the server's NDJSON
    stream); ``cancel`` (a
    :class:`~repro.service.resilience.CancelScope`) cooperatively
    aborts the run: work routed through pool batches is cancelled
    within one poll tick and raises
    :class:`~repro.service.resilience.JobCancelled` here.  A synthesize
    job with ``jobs=1`` and no ``isolate`` runs its verifier in the
    calling (executor) thread, so it is not reachable by that path.
    """
    sink = _ProgressSink(progress) if progress is not None else None
    tr = None
    if sink is not None:
        from ..obs import tracer

        tr = tracer()
        tr.add_sink(sink)
    if cancel is not None:
        cancel.raise_if_cancelled()
    bound = pool is not None and cancel is not None
    if bound:
        pool.bind_cancel(cancel)
    try:
        if spec.kind == "synthesize":
            return _execute_synthesize(spec, pool, cache_dir, checkpoint_path)
        if spec.kind == "verify":
            if pool is not None:
                return _run_in_pool(
                    pool, _pooled_verify_job, (spec.to_json(), cache_dir),
                    cancel,
                )
            return _execute_verify(spec, cache_dir)
        if pool is not None and not write_corpus:
            return _run_in_pool(
                pool, _pooled_falsify_job, (spec.to_json(),), cancel
            )
        return _execute_falsify(
            spec, corpus_dir=corpus_dir, write_corpus=write_corpus
        )
    finally:
        if bound:
            pool.unbind_cancel()
        if tr is not None:
            tr.remove_sink(sink)


def _run_in_pool(pool, fn, args, cancel) -> dict:
    """Run one job body as a single pool task (subprocess, cancellable).

    Verify/falsify bodies are pure Python holding the GIL; running them
    in the executor thread would serialize the server's N executors and
    leave a wedged solver uncancellable.  As a pool task they get real
    process parallelism and the SIGUSR1 cancel path.
    """
    outcome = pool.run_batch(
        [(fn, args)], accept=lambda _r: False, cancel=cancel
    )
    report = outcome.reports.get(0)
    if report is None or report.status == "cancelled":
        from .resilience import JobCancelled

        raise JobCancelled(getattr(cancel, "reason", None) or "user")
    if report.status != "ok":
        raise RuntimeError(
            f"pooled job {report.status}: {report.detail or 'no detail'}"
        )
    return report.result


def _pooled_verify_job(spec_json: dict, cache_dir: Optional[str]) -> dict:
    """Top-level (picklable) verify job body, run inside a pool worker."""
    return _execute_verify(JobSpec.from_json(spec_json), cache_dir)


def _pooled_falsify_job(spec_json: dict) -> dict:
    """Top-level (picklable) falsify job body, run inside a pool worker."""
    return _execute_falsify(JobSpec.from_json(spec_json))


class _ProgressSink:
    """Forwards tracer records to a callback (server job streams).

    Filtered to the thread that created the sink: the tracer is
    process-global and the server runs N executor threads, so an
    unfiltered sink would leak one job's spans into another job's
    stream.  Records relayed from a job's own pool workers are merged
    by ``run_batch`` *in the executor thread*, so they pass the filter.
    """

    level = DEBUG  # stream everything

    def __init__(self, callback: Callable[[dict], None]):
        self._callback = callback
        self._ident = threading.get_ident()

    def emit(self, record: dict) -> None:
        if threading.get_ident() != self._ident:
            return
        try:
            self._callback(record)
        except Exception:  # noqa: BLE001 - progress is advisory
            pass


def _execute_synthesize(spec, pool, cache_dir, checkpoint_path) -> dict:
    from ..runtime.runner import run_synthesis

    query = decode_query(spec.params["query"])
    options = _decode_options(spec.params.get("options", {}))
    if cache_dir is not None:
        options = replace(options, cache_dir=cache_dir)
    if checkpoint_path is not None:
        options = replace(options, checkpoint_path=checkpoint_path)
    if pool is not None:
        options.worker_pool = pool
    result = run_synthesis(query, options)
    return encode_synthesis_result(result)


def _execute_verify(spec, cache_dir: Optional[str] = None) -> dict:
    from ..core.verifier import CcacVerifier
    from ..runtime.serialize import decode_environments

    cca = _named_cca(spec.params["cca"])
    cfg = decode_config(spec.params["cfg"])
    environments = decode_environments(spec.params.get("environments"))
    cache = None
    if cache_dir:
        from ..engine.cache import QueryCache

        cache = QueryCache(cache_dir)
    verifier = CcacVerifier(
        cfg, certify=bool(spec.params.get("certify")), cache=cache,
        environments=environments,
    )
    res = verifier.find_counterexample(
        cca, worst_case=bool(spec.params.get("worst_case"))
    )
    payload = {
        "cca": spec.params["cca"],
        "pretty": cca.pretty(),
        "verified": bool(res.verified),
        "unknown": bool(res.unknown),
        "counterexample": (
            encode_trace(res.counterexample)
            if res.counterexample is not None else None
        ),
        "counterexample_text": (
            str(res.counterexample) if res.counterexample is not None else None
        ),
        "environment": (
            res.environment.key() if res.environment is not None else None
        ),
        "certified": bool(res.certified),
        "solver_checks": int(res.solver_checks),
        "wall_time": res.wall_time,
    }
    if res.certified and res.certificate is not None:
        # one checked-proof summary per environment, in spec order
        c = res.certificate
        payload["certificates"] = [
            {
                "environment": env.key(),
                "steps": int(s.steps),
                "inputs": int(s.inputs),
                "rup_additions": int(s.rup_additions),
                "theory_lemmas": int(s.theory_lemmas),
                "check_time": float(s.check_time),
            }
            for env, s in zip(
                environments, c if isinstance(c, tuple) else (c,)
            )
        ]
    budget = int(spec.params.get("falsify") or 0)
    if budget and res.verified:
        from ..falsify import falsify_verified

        rep = falsify_verified(
            cca, cfg, budget,
            seed=int(spec.params.get("falsify_seed") or 0),
            spec=spec.params["cca"],
        )
        payload["falsify"] = rep.search.describe()
        payload["survived"] = bool(rep.survived)
    payload["fingerprint"] = _fingerprint_over(payload, _VERIFY_SEMANTIC_KEYS)
    return payload


def _execute_falsify(
    spec, corpus_dir: Optional[str] = None, write_corpus: bool = False
) -> dict:
    from ..falsify import FalsifyBudget, falsify_cca, resolve_cca

    p = spec.params
    cfg = decode_config(p["cfg"])
    factory, smt_verifiable = resolve_cca(p["cca"], cfg)
    verified = False
    smt_verdict = None
    if smt_verifiable and not p.get("no_verify"):
        from ..core.verifier import CcacVerifier

        res = CcacVerifier(cfg).find_counterexample(_named_cca(p["cca"]))
        verified = bool(res.verified)
        smt_verdict = (
            "verified" if res.verified
            else "counterexample" if res.counterexample is not None
            else "unknown"
        )
    budget = FalsifyBudget(
        evaluations=int(p["budget"]),
        population=int(p.get("population", 24)),
        stop_after=0 if p.get("exhaustive") else 1,
    )
    report = falsify_cca(
        factory,
        cfg,
        spec=p["cca"],
        budget=budget,
        seed=int(p.get("seed", 0)),
        ticks=int(p.get("ticks", 120)),
        in_fragment=not p.get("beyond"),
        verified=verified,
        corpus_dir=corpus_dir,
        write_corpus=write_corpus,
    )
    payload = {
        "cca": p["cca"],
        "verified": verified,
        "smt_verdict": smt_verdict,
        "survived": bool(report.survived),
        "description": report.describe(),
        "evaluations": int(report.search.attempts),
    }
    payload["fingerprint"] = _fingerprint_over(payload, _FALSIFY_SEMANTIC_KEYS)
    return payload


def _named_cca(name: str):
    """:func:`~repro.core.template.named_cca`, with a bad name as a
    :class:`JobSpecError`."""
    from ..core import named_cca

    try:
        cca = named_cca(name)
    except ValueError as exc:
        raise JobSpecError(str(exc)) from None
    if cca is None:
        raise JobSpecError(
            f"unknown CCA {name!r}; use rocc, eq3, or const:<gamma>"
        )
    return cca


# -- the durable job record ---------------------------------------------------

_STATES = ("queued", "running", "done", "failed", "cancelled")

#: bump when the JobRecord layout changes; older records on disk are
#: migrated on load, never rejected.
#: v2: lease_expires_at, attempts, attempt_history (PR 10 resilience).
JOBRECORD_VERSION = 2


@dataclass
class JobRecord:
    """Server-side lifecycle of one accepted job (durable as JSON)."""

    spec: JobSpec
    job_id: str = field(default_factory=lambda: uuid.uuid4().hex[:16])
    state: str = "queued"
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None
    record_version: int = JOBRECORD_VERSION
    #: execution attempts started so far (crash re-queues increment it)
    attempts: int = 0
    #: one dict per closed attempt (see resilience.AttemptRecord.to_json)
    attempt_history: list = field(default_factory=list)
    #: heartbeat-renewed while an executor runs the job; an expired lease
    #: at boot means the previous server died mid-attempt -> re-queue
    lease_expires_at: Optional[float] = None

    def to_json(self, with_result: bool = True) -> dict:
        out = {
            "record_version": self.record_version,
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "state": self.state,
            "spec": self.spec.to_json(),
            "spec_fingerprint": self.spec.fingerprint(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "attempts": self.attempts,
            "attempt_history": list(self.attempt_history),
            "lease_expires_at": self.lease_expires_at,
        }
        if with_result:
            out["result"] = self.result
        return out

    @classmethod
    def from_json(cls, data: dict) -> "JobRecord":
        spec = JobSpec.from_json(data["spec"])
        state = data.get("state", "queued")
        if state not in _STATES:
            raise JobSpecError(f"unknown job state {state!r}")
        # v1 records predate the lease fields: default them (migration)
        return cls(
            spec=spec,
            job_id=str(data["job_id"]),
            state=state,
            submitted_at=float(data.get("submitted_at", 0.0)),
            started_at=data.get("started_at"),
            finished_at=data.get("finished_at"),
            result=data.get("result"),
            error=data.get("error"),
            # normalized to the current version: a migrated v1 record is
            # re-persisted v2-shaped the next time its state changes
            record_version=JOBRECORD_VERSION,
            attempts=int(data.get("attempts", 0)),
            attempt_history=list(data.get("attempt_history", ())),
            lease_expires_at=data.get("lease_expires_at"),
        )
