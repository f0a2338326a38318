"""The committed benchmark trajectory: ``BENCH_*.json`` as history.

The ROADMAP's cross-cutting complaint was that benchmark numbers lived
only in CI artifacts and commit messages, so a perf regression between
PRs was invisible in-repo.  This module makes ``BENCH_engine.json`` an
append-only, git-sha-stamped *history* of ``engine_bench`` runs:

* :func:`append_entry` folds one engine-bench report into the trajectory
  (atomic write; the file is committed, so the trajectory reviews like
  code);
* :func:`regressions` compares a fresh report against a baseline entry
  and flags tracked timings that regressed beyond a threshold — the body
  of ``ccmatic bench-diff`` and the CI ``bench-regression`` gate;
* :func:`is_trajectory` lets writers (``engine_bench --out``) refuse to
  clobber a history file with a single-run report.

Tracked metrics are wall-clock timings (lower is better).  Absolute
seconds are noisy across machines; the trajectory is most meaningful
when consecutive entries come from comparable hardware (CI runners), and
the regression gate's threshold (default 25%) absorbs normal jitter.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
from typing import Optional, Union

__all__ = [
    "TRACKED_TIMINGS",
    "append_entry",
    "current_git_sha",
    "is_trajectory",
    "latest_comparable",
    "load_history",
    "regressions",
    "summarize_report",
]

#: dotted paths into an engine_bench report -> tracked timing (seconds,
#: lower is better); missing paths are skipped so the schema can grow
TRACKED_TIMINGS = (
    "compile.pipeline_s",
    "compile.raw_s",
    "cache.cold_s",
    "cache.warm_s",
    "proof.certify_s",
    "portfolio.jobs_1.wall_s",
    "portfolio.jobs_4.wall_s",
    "service.pooled_s",
    "service.forked_s",
    "matrix.forked_s",
    "matrix.pooled_s",
    "resilience.serial_s",
    "resilience.concurrent_s",
)

#: guard-rail ratios (higher is better) re-checked by the diff so a
#: speedup silently decaying below its bench gate also fails the diff.
#: resilience.speedup is deliberately absent: its bench gate is
#: hardware-aware (single-core runners legitimately sit below 1.0)
TRACKED_RATIOS = (
    "compile.speedup",
    "cache.speedup",
    "service.speedup",
    "matrix.speedup",
)


def _dig(data: dict, path: str):
    node = data
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) else None


def current_git_sha(cwd: Optional[str] = None) -> str:
    """Short sha of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def summarize_report(report: dict) -> dict:
    """Extract the tracked scalars from one engine_bench report."""
    metrics = {}
    for path in TRACKED_TIMINGS + TRACKED_RATIOS:
        value = _dig(report, path)
        if value is not None:
            metrics[path] = value
    return {
        "ok": bool(report.get("ok", False)),
        "quick": bool(report.get("quick", False)),
        "metrics": metrics,
    }


def is_trajectory(data: Union[dict, str]) -> bool:
    """Is this parsed JSON (or the file at this path) a trajectory?"""
    if isinstance(data, str):
        try:
            with open(data, "r", encoding="utf-8") as f:
                data = json.load(f)
        except (OSError, ValueError):
            return False
    return isinstance(data, dict) and isinstance(data.get("history"), list)


def load_history(path: str, bench: str = "engine") -> dict:
    """Load a trajectory file; a missing file yields an empty history.

    A legacy single-report file (pre-trajectory ``BENCH_engine.json``)
    is converted in memory to a one-entry history so old baselines keep
    working as diff targets.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except FileNotFoundError:
        return {"bench": bench, "history": []}
    if is_trajectory(data):
        return data
    if isinstance(data, dict) and "bench" in data:
        entry = summarize_report(data)
        entry.update({"git_sha": "pre-trajectory", "ts": None})
        return {"bench": data.get("bench", bench), "history": [entry]}
    raise ValueError(f"{path!r} is neither a trajectory nor a bench report")


def append_entry(
    path: str,
    report: dict,
    git_sha: Optional[str] = None,
    ts: Optional[float] = None,
    bench: str = "engine",
) -> dict:
    """Append one engine_bench report to the trajectory at ``path``.

    The write is atomic (tmp + rename) so a crashed append can never
    tear the committed history.  Returns the appended entry.
    """
    trajectory = load_history(path, bench=bench)
    entry = summarize_report(report)
    entry["git_sha"] = git_sha or current_git_sha(
        os.path.dirname(os.path.abspath(path)) or None
    )
    entry["ts"] = time.strftime(
        "%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts if ts is not None else time.time())
    )
    trajectory["history"].append(entry)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(trajectory, f, indent=2)
            f.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return entry


def latest_comparable(trajectory: dict, quick: Optional[bool]) -> Optional[dict]:
    """The most recent entry matching the run scale (quick/full).

    Falls back to the most recent entry of any scale when no matching
    one exists — a cross-scale diff is noisy but better than no gate.
    """
    history = trajectory.get("history", [])
    if not history:
        return None
    if quick is not None:
        for entry in reversed(history):
            if entry.get("quick") == quick:
                return entry
    return history[-1]


def regressions(
    report: dict,
    baseline_entry: dict,
    max_regress_pct: float = 25.0,
) -> tuple[list[dict], list[dict]]:
    """Compare a fresh report against a baseline trajectory entry.

    Returns ``(failures, rows)``: ``rows`` is every tracked metric
    present on both sides with its delta; ``failures`` the subset that
    breaches the gate — a timing more than ``max_regress_pct`` percent
    slower, a guard-rail ratio that fell below 1.0, or the report's own
    ``ok`` gate false.
    """
    current = summarize_report(report)
    base_metrics = baseline_entry.get("metrics", {})
    rows: list[dict] = []
    failures: list[dict] = []
    for path in TRACKED_TIMINGS:
        base = base_metrics.get(path)
        cur = current["metrics"].get(path)
        if base is None or cur is None or base <= 0:
            continue
        pct = 100.0 * (cur - base) / base
        row = {"metric": path, "baseline": base, "current": cur,
               "delta_pct": pct, "kind": "timing"}
        rows.append(row)
        if pct > max_regress_pct:
            failures.append(row)
    for path in TRACKED_RATIOS:
        cur = current["metrics"].get(path)
        if cur is None:
            continue
        base = base_metrics.get(path)
        row = {"metric": path, "baseline": base, "current": cur,
               "delta_pct": None, "kind": "ratio"}
        rows.append(row)
        if cur < 1.0:
            failures.append(row)
    if not current["ok"]:
        failures.append({
            "metric": "ok", "baseline": True, "current": False,
            "delta_pct": None, "kind": "gate",
        })
    return failures, rows
