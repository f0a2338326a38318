#!/usr/bin/env python
"""CI chaos smoke: a seeded fault storm must end in a correct, *certified*
result — or an honest degraded unknown — never a crash or a wrong verdict.

Four phases, one deterministic seed:

1. **storm** — every isolated worker attempt OOMs (injected).  The
   verifier must retreat to an honest degraded ``unknown`` after its
   jittered retries, never crash, never claim "verified".
2. **calm** — the same call with the injector disarmed must verify the
   candidate and carry an independently checked UNSAT certificate.
   Each phase gets its own worker pool: a worker forked while the
   faults are installed inherits them.
3. **chaos synthesis** — a full certified synthesis run with bitflips on
   cache reads, ENOSPC on cache writes, and stalls on checkpoint writes.
   Corrupt cache entries are quarantined, failed cache writes ignored,
   and the run still converges to a certified solution.
4. **corrupt + resume** — the final checkpoint is truncated; a plain
   resume must fail with a diagnostic, and ``from_backup`` recovery must
   complete the run from the kept previous generation.

Run from the repository root:

    python scripts/chaos_smoke.py [--seed N]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.ccac import ModelConfig  # noqa: E402
from repro.chaos import ChaosConfig, FaultSpec, install, uninstall  # noqa: E402
from repro.core import SynthesisQuery, rocc  # noqa: E402
from repro.core.template import TemplateSpec  # noqa: E402
from repro.obs import metrics  # noqa: E402
from repro.runtime import (  # noqa: E402
    CheckpointError,
    RuntimeOptions,
    resume_synthesis,
    run_synthesis,
)
from repro.engine import PortfolioVerifier, verifier_pool  # noqa: E402
from repro.runtime.workers import WorkerLimits  # noqa: E402


def fail(msg: str) -> int:
    print(f"[chaos-smoke] FAIL: {msg}", file=sys.stderr)
    return 1


def phase_storm_and_calm(cfg: ModelConfig, seed: int) -> int:
    """Worker fault storm -> honest unknown; calm -> certified verdict."""
    candidate = rocc(cfg.history)
    limits = WorkerLimits(wall_time=120.0, retries=2, backoff_cap=0.5)

    def verify_once():
        with verifier_pool(1, limits) as pool:
            verifier = PortfolioVerifier(
                cfg, pool, limits=limits, certify=True, retry_seed=seed
            )
            return verifier, verifier.find_counterexample(candidate)

    install(ChaosConfig(seed=seed, specs=(FaultSpec("worker.child", "oom"),)))
    try:
        verifier, res = verify_once()
    finally:
        uninstall()
    if not (res.unknown and res.degraded and not res.verified):
        return fail(f"storm should degrade to unknown, got {res}")
    if verifier.kills != 3:
        return fail(f"expected 3 worker kills in the storm, saw {verifier.kills}")
    print(f"[chaos-smoke] storm: {verifier.kills} worker OOMs -> honest unknown")

    _, res = verify_once()
    if not (res.verified and res.certified and res.certificate.checked):
        return fail(f"calm run should be certified, got {res}")
    print(
        f"[chaos-smoke] calm: verified + certified "
        f"({res.certificate.steps} proof steps, "
        f"{res.certificate.theory_lemmas} Farkas lemmas)"
    )
    return 0


def phase_chaos_synthesis(cfg: ModelConfig, seed: int, workdir: str) -> tuple[int, str]:
    """Certified synthesis under cache/checkpoint faults."""
    ckpt = os.path.join(workdir, "run.ckpt")
    cache_dir = os.path.join(workdir, "cache")
    spec = TemplateSpec(
        history=cfg.history,
        use_cwnd_history=False,
        coeff_domain=(-1, 0, 1),
        const_domain=(0, 1),
    )
    query = SynthesisQuery(
        spec=spec, cfg=cfg, generator="enum", worst_case_cex=False,
        time_budget=600,
    )
    install(
        ChaosConfig(
            seed=seed,
            specs=(
                FaultSpec("cache.read", "bitflip", probability=0.25),
                FaultSpec("cache.write", "disk_full", probability=0.25),
                FaultSpec("checkpoint.write", "stall", probability=0.5, delay=0.01),
            ),
        )
    )
    try:
        result = run_synthesis(
            query,
            RuntimeOptions(
                checkpoint_path=ckpt, cache_dir=cache_dir, certify=True
            ),
        )
    finally:
        uninstall()
    if not result.found:
        return fail("chaos synthesis found no solution"), ckpt
    if result.certified_verdicts < 1:
        return fail("chaos synthesis solution was not certified"), ckpt
    snap = metrics().snapshot()
    counters = snap.get("counters", snap)
    injected = {
        k: v for k, v in counters.items() if str(k).startswith("chaos.injected")
    }
    quarantined = counters.get("chaos.quarantined", 0)
    print(
        f"[chaos-smoke] chaos synthesis: solution {result.first} certified "
        f"({result.certified_verdicts} verdict(s)); injected={injected} "
        f"quarantined={quarantined}"
    )
    return 0, ckpt


def phase_corrupt_resume(ckpt: str) -> int:
    """Truncate the checkpoint, then recover via the kept backup."""
    size = os.path.getsize(ckpt)
    with open(ckpt, "r+b") as f:
        f.truncate(size // 2)
    try:
        resume_synthesis(ckpt)
    except CheckpointError as exc:
        print(f"[chaos-smoke] corrupt resume refused as expected: {exc}")
    else:
        return fail("resume of a truncated checkpoint should have failed")
    result = resume_synthesis(ckpt, from_backup=True)
    if not result.found:
        return fail("from_backup resume did not complete to a solution")
    print(
        f"[chaos-smoke] from-backup resume: solution {result.first} "
        f"(resumed={result.resumed})"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1312)
    args = parser.parse_args()

    cfg = ModelConfig(T=5, history=3)
    workdir = tempfile.mkdtemp(prefix="chaos-smoke-")
    print(f"[chaos-smoke] seed={args.seed} workdir={workdir}")

    rc = phase_storm_and_calm(cfg, args.seed)
    if rc:
        return rc
    rc, ckpt = phase_chaos_synthesis(cfg, args.seed, workdir)
    if rc:
        return rc
    rc = phase_corrupt_resume(ckpt)
    if rc:
        return rc
    print("[chaos-smoke] OK: every fault was absorbed; the result is certified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
