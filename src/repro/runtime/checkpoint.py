"""Atomic JSON checkpoints of CEGIS state (crash-safe save, verified resume).

A checkpoint captures everything the loop needs to continue a run after a
hard kill: the counterexample set, the blocked solutions, the solutions
found so far, the iteration/stat counters, and the query fingerprint that
guards against resuming state into a *different* query.

Write protocol: serialize to ``<path>.tmp``, ``fsync``, then
``os.replace`` over the real path — a SIGKILL at any instant leaves
either the previous checkpoint or the new one, never a torn file.

The store is domain-agnostic: candidates and counterexamples pass through
caller-supplied codecs (identity by default, for JSON-native toy domains;
:mod:`repro.runtime.serialize` provides the CCmatic codecs).  It
implements the duck-typed checkpoint interface the CEGIS loop consumes
(``load()`` / ``save(...)``; see :class:`repro.cegis.interfaces` docs).
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from ..cegis.interfaces import CegisStats
from ..chaos.faults import chaos_point
from ..obs import DEBUG, tracer
from .errors import CheckpointError, CheckpointMismatchError

SCHEMA_VERSION = 1

#: stat counters persisted per checkpoint: every CegisStats field
STAT_FIELDS = tuple(f.name for f in fields(CegisStats))


def _identity(value):
    return value


@dataclass
class CheckpointState:
    """Decoded contents of one checkpoint."""

    fingerprint: str
    stats: dict = field(default_factory=dict)
    solutions: list = field(default_factory=list)
    counterexamples: list = field(default_factory=list)
    blocked: list = field(default_factory=list)
    stop_reason: Optional[str] = None
    meta: dict = field(default_factory=dict)
    saved_at: float = 0.0

    @property
    def complete(self) -> bool:
        """Whether the checkpointed run reached a final verdict."""
        return self.stop_reason is not None


class CheckpointStore:
    """Atomic JSON checkpoint file with fingerprint verification."""

    def __init__(
        self,
        path: str,
        fingerprint: str = "",
        meta: Optional[dict] = None,
        encode_candidate: Callable = _identity,
        decode_candidate: Callable = _identity,
        encode_cex: Callable = _identity,
        decode_cex: Callable = _identity,
    ):
        self.path = str(path)
        self.fingerprint = fingerprint
        self.meta = dict(meta or {})
        self._encode_candidate = encode_candidate
        self._decode_candidate = decode_candidate
        self._encode_cex = encode_cex
        self._decode_cex = decode_cex
        self.saves = 0

    # -- reading --------------------------------------------------------------

    @property
    def backup_path(self) -> str:
        """The previous checkpoint, kept on every save (``<path>.bak``)."""
        return self.path + ".bak"

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def has_backup(self) -> bool:
        return os.path.exists(self.backup_path)

    def load(self, from_backup: bool = False) -> Optional[CheckpointState]:
        """Decoded state, or None when no checkpoint exists yet.

        Raises :class:`CheckpointMismatchError` when the stored query
        fingerprint differs from this store's — resuming would corrupt
        the run — and :class:`CheckpointError` (naming the failing
        field) on a damaged file.  ``from_backup=True`` reads the
        previous checkpoint (``<path>.bak``) instead, the recovery path
        when the latest file is corrupt.
        """
        path = self.backup_path if from_backup else self.path
        if not os.path.exists(path):
            return None
        raw = self._read_raw(path)
        stored = raw.get("fingerprint", "")
        if self.fingerprint and stored != self.fingerprint:
            raise CheckpointMismatchError(
                f"checkpoint {path!r} belongs to a different query "
                f"(stored fingerprint {stored[:12]}..., "
                f"expected {self.fingerprint[:12]}...)"
            )

        def decode(fld: str, fn):
            # per-field decode so a diagnostic can name what is damaged
            try:
                return fn(raw.get(fld))
            except (KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"checkpoint {path!r} field {fld!r} could not be "
                    f"decoded: {exc}"
                ) from exc

        return CheckpointState(
            fingerprint=stored,
            stats=decode(
                "stats", lambda v: {k: (v or {}).get(k, 0) for k in STAT_FIELDS}
            ),
            solutions=decode(
                "solutions",
                lambda v: [self._decode_candidate(c) for c in (v or [])],
            ),
            counterexamples=decode(
                "counterexamples",
                lambda v: [self._decode_cex(c) for c in (v or [])],
            ),
            blocked=decode(
                "blocked",
                lambda v: [self._decode_candidate(c) for c in (v or [])],
            ),
            stop_reason=raw.get("stop_reason"),
            meta=raw.get("meta", {}),
            saved_at=raw.get("saved_at", 0.0),
        )

    @staticmethod
    def _read_raw(path: str) -> dict:
        try:
            with open(path, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
        except ValueError as exc:
            # JSONDecodeError and UnicodeDecodeError both subclass
            # ValueError; a bitflipped file can produce either
            raise CheckpointError(
                f"checkpoint {path!r} is not valid JSON (torn write without "
                f"atomic replace?): {exc}"
            ) from exc
        if not isinstance(raw, dict) or raw.get("version") != SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has unsupported schema "
                f"{raw.get('version') if isinstance(raw, dict) else type(raw).__name__!r}"
            )
        return raw

    def _keep_backup(self) -> None:
        """Hardlink (or copy) the current checkpoint to ``<path>.bak``.

        Runs just before the atomic replace: after a save the previous
        generation survives as the backup, so a checkpoint corrupted on
        disk later never costs more than one save interval of work.
        Best-effort — a backup failure must not fail the save.
        """
        if not os.path.exists(self.path):
            return
        bak = self.backup_path
        try:
            if os.path.exists(bak):
                os.unlink(bak)
            os.link(self.path, bak)
        except OSError:
            try:
                shutil.copyfile(self.path, bak)
            except OSError:
                pass

    @staticmethod
    def read_meta(path: str) -> tuple[str, dict]:
        """(fingerprint, meta) of a checkpoint without decoding its state.

        Used by ``ccmatic resume`` to rebuild the original query before a
        full, fingerprint-verified load.
        """
        raw = CheckpointStore._read_raw(path)
        return raw.get("fingerprint", ""), raw.get("meta", {})

    # -- writing --------------------------------------------------------------

    def save(
        self,
        *,
        stats,
        solutions,
        counterexamples,
        blocked,
        stop_reason: Optional[str] = None,
    ) -> None:
        """Atomically persist the current loop state.

        ``stats`` may be a :class:`~repro.cegis.interfaces.CegisStats` or
        a plain dict carrying the same counters.
        """
        if isinstance(stats, dict):
            stat_dict = {k: stats.get(k, 0) for k in STAT_FIELDS}
        else:
            stat_dict = {k: getattr(stats, k, 0) for k in STAT_FIELDS}
        payload = {
            "version": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "meta": self.meta,
            "saved_at": time.time(),
            "stats": stat_dict,
            "solutions": [self._encode_candidate(c) for c in solutions],
            "counterexamples": [self._encode_cex(c) for c in counterexamples],
            "blocked": [self._encode_candidate(c) for c in blocked],
            "stop_reason": stop_reason,
        }
        tmp = self.path + ".tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                json.dump(payload, f)
                f.flush()
                os.fsync(f.fileno())
            chaos_point("checkpoint.write", path=tmp)
            self._keep_backup()
            os.replace(tmp, self.path)
        except OSError as exc:
            raise CheckpointError(
                f"cannot write checkpoint {self.path!r}: {exc}"
            ) from exc
        self.saves += 1
        tr = tracer()
        if tr.enabled:
            tr.event(
                "runtime.checkpoint",
                level=DEBUG,
                iterations=stat_dict["iterations"],
                solutions=len(payload["solutions"]),
                counterexamples=len(payload["counterexamples"]),
                final=stop_reason is not None,
            )
