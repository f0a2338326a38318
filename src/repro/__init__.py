"""CCmatic reproduction: automated design and analysis of network heuristics.

Reproduces Agarwal et al., "Automating network heuristic design and
analysis" (HotNets 2022): CEGIS-based synthesis of congestion-control
algorithms that provably achieve high utilization and bounded delay under
a CCAC-style network model — built entirely from scratch, including the
underlying SMT solver.

**Stable top-level surface.**  The names in ``__all__`` are the public
API; everything else should be imported from its subpackage and may move
between releases.

* :func:`synthesize` / :class:`SynthesisQuery` — run one ∃∀ synthesis
  question end to end (:mod:`repro.core`).
* :func:`verify` — one-shot verification of a concrete candidate CCA
  against the CCAC model.
* :class:`Solver` / :class:`CheckOptions` — the QF-LRA SMT solver
  (:mod:`repro.smt`); one incremental solver, with ``scope()`` and an
  optional query cache.
* :class:`CegisLoop` / :class:`CegisOptions` / :class:`StopReason` — the
  generic CEGIS loop (:mod:`repro.cegis`).
* :class:`QueryCache` / :class:`PortfolioVerifier` — the performance
  engine (:mod:`repro.engine`).
* :class:`JobSpec` / :func:`execute_job` / :class:`WorkerPool` /
  :class:`JobServer` / :class:`ServiceClient` — the job-oriented API
  and the synthesis-as-a-service control plane (:mod:`repro.service`).

Subpackages:

* :mod:`repro.smt` — QF-LRA SMT solver (DPLL(T): CDCL + Simplex).
* :mod:`repro.ccac` — the CCAC network model used as the verifier.
* :mod:`repro.cegis` — the generic CEGIS loop with range pruning and
  worst-case counterexamples.
* :mod:`repro.core` — CCmatic itself: templates, generator, verifier,
  synthesis driver, assumption-synthesis queries.
* :mod:`repro.engine` — parallel portfolio verification and the
  content-addressed query cache.
* :mod:`repro.service` — the HTTP/JSON control plane: durable job
  queue, persistent worker pool, progress streams, shared cache store.
* :mod:`repro.ccas`, :mod:`repro.sim` — concrete CCAs and a discrete-time
  simulator for empirical validation.
* :mod:`repro.abr` — the adaptive-bitrate extension sketched in §5.
"""

from __future__ import annotations

__version__ = "2.0.0"

__all__ = [
    "CandidateCCA",
    "CegisLoop",
    "CegisOptions",
    "CheckOptions",
    "JobServer",
    "JobSpec",
    "ModelConfig",
    "PortfolioVerifier",
    "QueryCache",
    "Result",
    "ServiceClient",
    "Solver",
    "StopReason",
    "SynthesisQuery",
    "SynthesisResult",
    "WorkerPool",
    "execute_job",
    "sat",
    "synthesize",
    "unknown",
    "unsat",
    "verify",
]

#: lazy attribute -> home module (PEP 562); keeps ``import repro`` cheap
#: and cycle-free while exposing one flat, documented surface
_LAZY = {
    "CandidateCCA": "repro.core.template",
    "CegisLoop": "repro.cegis",
    "CegisOptions": "repro.cegis",
    "CheckOptions": "repro.smt",
    "JobServer": "repro.service",
    "JobSpec": "repro.service",
    "ModelConfig": "repro.ccac",
    "PortfolioVerifier": "repro.engine",
    "QueryCache": "repro.engine",
    "Result": "repro.smt",
    "ServiceClient": "repro.service",
    "Solver": "repro.smt",
    "StopReason": "repro.cegis",
    "SynthesisQuery": "repro.core.synthesizer",
    "SynthesisResult": "repro.core.synthesizer",
    "WorkerPool": "repro.service",
    "execute_job": "repro.service",
    "sat": "repro.smt",
    "synthesize": "repro.core.synthesizer",
    "unknown": "repro.smt",
    "unsat": "repro.smt",
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(home), name)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


def verify(
    candidate,
    cfg=None,
    *,
    worst_case: bool = False,
    cache=None,
):
    """Verify one concrete candidate CCA against the CCAC model.

    Returns a :class:`repro.core.verifier.VerificationResult`:
    ``verified=True`` proves no admissible trace violates the desired
    property; otherwise ``counterexample`` carries a violating trace
    (the worst-case one under ``worst_case=True``).  ``cache`` accepts a
    :class:`repro.engine.QueryCache` to reuse conclusive verdicts across
    calls.
    """
    from .ccac import ModelConfig
    from .core.verifier import CcacVerifier

    verifier = CcacVerifier(
        cfg if cfg is not None else ModelConfig(), cache=cache
    )
    return verifier.find_counterexample(candidate, worst_case=worst_case)
