"""The performance engine: parallelism, session reuse, and caching.

This package is the "runs as fast as the hardware allows" layer on top
of the CEGIS + SMT stack.  Three independent multipliers compose:

* **Portfolio parallelism** (:mod:`~repro.engine.portfolio`) — a batch
  of candidate CCAs is verified concurrently on a persistent worker
  pool; the first conclusive verdict (counterexample or proof)
  wins the round and the losers are cancelled.  Enabled with
  ``SynthesisQuery(jobs=N)`` / ``ccmatic synthesize --jobs N``.
* **Session reuse** (:class:`repro.smt.SolverSession`) — the verifier
  keeps one session per environment over the CCAC encoding plus the
  current candidate, reused while that candidate repeats (assumption
  probes, WCE searches) and rebuilt when it changes; per-call extras
  are push/popped, so CNF conversion, theory atoms, and learned clauses
  are amortized across the calls on one candidate.
* **Query caching** (:mod:`~repro.engine.cache`) — conclusive verdicts
  are content-addressed by the canonical hash of the assertion set, so
  repeated subqueries (common under range pruning and binary-search
  optimization) are answered without a solve; an on-disk layer
  (``--cache-dir``) is shared across runs and worker processes.

Observability: cache traffic is exported as ``engine.cache.*`` counters,
portfolio activity as ``engine.portfolio.*`` counters and
``engine.portfolio.round`` trace events.
"""

from ..smt.session import SessionStats, SolverSession
from .cache import CACHE_VERSION, QueryCache
from .portfolio import PortfolioOutcome, PortfolioVerifier, verifier_pool

__all__ = [
    "CACHE_VERSION",
    "PortfolioOutcome",
    "PortfolioVerifier",
    "QueryCache",
    "SessionStats",
    "SolverSession",
    "verifier_pool",
]
