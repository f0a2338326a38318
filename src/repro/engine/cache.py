"""Content-addressed SMT query cache.

Queries are keyed by the canonical hash of their assertion set
(:func:`repro.smt.terms.canonical_hash`): term interning plus
commutative-argument normalization make the key independent of assertion
order and term construction order, and — because it is built from names
and values rather than object identities — independent of the process
that computed it.  Repeated generator/verifier subqueries, which are
common under range pruning (closely related certificate queries differ
only in a few bounds), are answered without a solve.

Two layers:

* an in-memory table (bounded, FIFO eviction) for hits within a run;
* an optional on-disk layer (``cache_dir``; one JSON file per key,
  written atomically) shared across runs *and across portfolio worker
  processes* — workers populate it concurrently and later candidates
  benefit.

Only conclusive verdicts are stored.  ``sat`` entries carry the full
variable assignment so the model can be reconstructed (variables are
interned by name, so ``Real(name)``/``Bool(name)`` recover the exact
term keys); a reconstructed model goes through the same independent
validation (:mod:`repro.runtime.validate`) as a freshly solved one, so a
corrupt cache entry surfaces as a :class:`SoundnessError`, never as a
silently wrong verdict.  ``unknown`` is never cached — it describes a
budget, not the formula.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import OrderedDict
from fractions import Fraction
from typing import Optional

from ..chaos.faults import chaos_point
from ..chaos.supervisor import quarantine_file
from ..obs import metrics
from ..smt.solver import Model, Result, sat, unsat
from ..smt.terms import Bool, Real

#: bump when the canonical serialization or the entry format changes;
#: part of every key so stale disk entries can never be misread.
#: v2: keys hash the *post-compile* assertion form (the simplified,
#: atom-canonicalized formulas from :mod:`repro.smt.compile`), not the
#: raw assertion set — see ``Solver.check``.
#: v3: a ``sat`` model carries a worst-case probe's objective and its
#: exact optimum (``Model.objective``/``Model.optimum``), so a warm
#: cache replays a cold worst-case search.
CACHE_VERSION = 3

#: persisted cumulative counters for a shared cache directory; cheap to
#: read (one small JSON file, no directory walk) so a long-running
#: service can answer ``/cache/stats`` without touching the entries
STATS_FILE = "cache-stats.json"

#: flush pending counter deltas at most every N lookup/store operations
#: (every store also flushes — a store already pays for disk IO)
_STATS_FLUSH_EVERY = 64


def read_persisted_stats(cache_dir: str) -> dict:
    """Read the cumulative counter file for ``cache_dir`` (never raises).

    Counters are aggregated across every process that ever used the
    directory.  They are *approximate* under concurrent writers — the
    read-modify-write below is not locked, so two processes flushing at
    the same instant can lose one delta — which is the documented price
    for keeping the hot path free of locks; the counters inform
    operators, never verdicts.
    """
    try:
        with open(
            os.path.join(cache_dir, STATS_FILE), "r", encoding="utf-8"
        ) as f:
            data = json.load(f)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _encode_model(model: Model) -> dict:
    bools, reals = model.assignment()
    return {
        "bools": {t.name: bool(v) for t, v in bools.items() if t.name},
        "reals": {t.name: str(v) for t, v in reals.items() if t.name},
        "objective": model.objective,
        "optimum": None if model.optimum is None else str(model.optimum),
    }


def _decode_model(data: dict) -> Model:
    bools = {Bool(name): bool(v) for name, v in data.get("bools", {}).items()}
    reals = {Real(name): Fraction(v) for name, v in data.get("reals", {}).items()}
    optimum = data.get("optimum")
    return Model(
        bools, reals, data.get("objective"),
        None if optimum is None else Fraction(optimum),
    )


class QueryCache:
    """In-memory + optional on-disk cache of conclusive SMT verdicts.

    Satisfies the :class:`repro.smt.solver.QueryCacheProtocol`; plug it
    into a :class:`~repro.smt.solver.Solver` (or a
    :class:`~repro.core.verifier.CcacVerifier`) via ``cache=``.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        max_entries: int = 4096,
        max_disk_mb: Optional[float] = None,
    ):
        self.cache_dir = cache_dir
        self.max_entries = max_entries
        #: on-disk size cap; when the directory grows past it the least
        #: recently *used* entries (mtime — refreshed on every disk hit)
        #: are deleted down to 90% of the cap
        self.max_disk_mb = max_disk_mb
        self._mem: OrderedDict[str, tuple[Result, Optional[Model]]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        self._pending = {"hits": 0, "misses": 0, "disk_hits": 0,
                         "stores": 0, "bytes": 0, "evictions": 0}
        self._ops_since_flush = 0
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._mem)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"q{CACHE_VERSION}-{key}.json")

    def lookup(self, key: str) -> Optional[tuple[Result, Optional[Model]]]:
        """Stored ``(result, model)`` for ``key``, or None on a miss."""
        entry = self._mem.get(key)
        if entry is not None:
            self.hits += 1
            self._count("hits")
            return entry
        if self.cache_dir:
            entry = self._read_disk(key)
            if entry is not None:
                self.hits += 1
                self.disk_hits += 1
                self._count("hits")
                self._count("disk_hits")
                metrics().counter("engine.cache.disk_hits").inc()
                self._remember(key, entry)
                return entry
        self.misses += 1
        self._count("misses")
        return None

    def store(self, key: str, result: Result, model: Optional[Model]) -> None:
        """Record a conclusive verdict (callers must not pass unknown)."""
        if result is not sat and result is not unsat:
            raise ValueError(f"only conclusive verdicts are cacheable: {result}")
        self._remember(key, (result, model))
        if self.cache_dir:
            self._write_disk(key, result, model)
            self._maybe_evict()
            self._flush_stats()

    def _remember(self, key: str, entry: tuple[Result, Optional[Model]]) -> None:
        self._mem[key] = entry
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    # -- disk layer ----------------------------------------------------------

    def _read_disk(self, key: str) -> Optional[tuple[Result, Optional[Model]]]:
        path = self._path(key)
        chaos_point("cache.read", path=path)
        try:
            with open(path, "r", encoding="utf-8") as f:
                data = json.load(f)
        except OSError:
            return None  # no entry (or unreadable file): a plain miss
        except ValueError as exc:
            self._quarantine(path, f"invalid JSON: {exc}")
            return None
        try:
            result = Result(data["result"])
            model = _decode_model(data["model"]) if data.get("model") else None
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            self._quarantine(path, f"malformed entry: {exc}")
            return None
        if result is sat and model is None:
            return None  # sat without a model is useless to callers
        try:
            os.utime(path)  # mark recently-used for LRU eviction
        except OSError:
            pass
        return result, model

    def _quarantine(self, path: str, reason: str) -> None:
        """Move a corrupt entry aside (never an exception, never a retry)."""
        metrics().counter("engine.cache.quarantined").inc()
        quarantine_file(
            path, os.path.join(self.cache_dir, "quarantine"), reason
        )

    def _write_disk(self, key: str, result: Result, model: Optional[Model]) -> None:
        payload = {
            "version": CACHE_VERSION,
            "result": result.value,
            "model": _encode_model(model) if model is not None else None,
        }
        path = self._path(key)
        try:
            # atomic publish: concurrent portfolio workers may race on the
            # same key; rename is atomic so readers see old-or-new, never torn
            blob = json.dumps(payload)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(blob)
            chaos_point("cache.write", path=tmp)
            os.replace(tmp, path)
            self._pending["stores"] += 1
            self._pending["bytes"] += len(blob)
        except OSError:
            pass  # cache write failure is never an error

    # -- persisted stats + eviction ------------------------------------------

    def _count(self, name: str) -> None:
        self._pending[name] += 1
        self._ops_since_flush += 1
        if self.cache_dir and self._ops_since_flush >= _STATS_FLUSH_EVERY:
            self._flush_stats()

    def _flush_stats(self) -> None:
        """Fold pending deltas into the on-disk counter file, atomically.

        Read-modify-write without a lock: concurrent flushers can lose
        one another's delta (documented in :func:`read_persisted_stats`);
        the write itself is ``os.replace`` so the file is never torn.
        """
        if not self.cache_dir or not any(self._pending.values()):
            self._ops_since_flush = 0
            return
        totals = read_persisted_stats(self.cache_dir)
        for name, delta in self._pending.items():
            if delta:
                totals[name] = int(totals.get(name, 0)) + delta
            self._pending[name] = 0
        self._ops_since_flush = 0
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(totals, f)
            os.replace(tmp, os.path.join(self.cache_dir, STATS_FILE))
        except OSError:
            pass  # stats are advisory

    def _entry_files(self) -> list[tuple[float, int, str]]:
        """(mtime, size, path) for every cache entry on disk."""
        out = []
        prefix = f"q{CACHE_VERSION}-"
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return out
        for name in names:
            if not (name.startswith(prefix) and name.endswith(".json")):
                continue
            path = os.path.join(self.cache_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def disk_usage(self) -> dict:
        """Actual on-disk entry count and byte total (walks the dir)."""
        files = self._entry_files()
        return {"disk_entries": len(files), "disk_bytes": sum(s for _, s, _ in files)}

    def _maybe_evict(self) -> None:
        """Enforce ``max_disk_mb`` by deleting least-recently-used entries.

        The persisted byte counter is the cheap over-approximation that
        *triggers* a check; the walk inside :meth:`_evict_lru` is the
        ground truth that decides what (if anything) to delete.
        """
        if not self.cache_dir or self.max_disk_mb is None:
            return
        cap = self.max_disk_mb * 1024 * 1024
        approx = read_persisted_stats(self.cache_dir).get("bytes", 0)
        approx += self._pending["bytes"]
        if approx <= cap:
            return
        self._evict_lru(cap)

    def _evict_lru(self, cap_bytes: float) -> None:
        files = sorted(self._entry_files())  # oldest mtime first
        total = sum(size for _, size, _ in files)
        target = cap_bytes * 0.9
        evicted = 0
        for _, size, path in files:
            if total <= target:
                break
            try:
                os.remove(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._pending["evictions"] += evicted
            metrics().counter("engine.cache.evictions").inc(evicted)
        # resync the approximate byte counter with reality
        totals = read_persisted_stats(self.cache_dir)
        totals["bytes"] = int(total)
        totals["evictions"] = int(totals.get("evictions", 0)) + evicted
        self._pending["evictions"] = 0
        self._pending["bytes"] = 0
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                json.dump(totals, f)
            os.replace(tmp, os.path.join(self.cache_dir, STATS_FILE))
        except OSError:
            pass

    def stats(self) -> dict:
        """This instance's counters (also exported via repro.obs metrics).

        ``persisted`` aggregates every process that shares ``cache_dir``
        (from the cheap counter file — no directory walk).
        """
        self._flush_stats()
        out = {
            "entries": len(self._mem),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
        }
        if self.cache_dir:
            out["persisted"] = read_persisted_stats(self.cache_dir)
        return out
