#!/usr/bin/env python
"""CI chaos smoke: the control plane under a seeded network storm.

Boots a real ``ccmatic serve`` process with ``REPRO_CHAOS`` arming the
network injection points — connections reset at accept, responses
rewritten to 503 or torn mid-body, NDJSON streams cut mid-line — then
makes the weather worse on purpose:

1. **burst** — five distinct jobs submitted through the retrying client,
   plus an identical re-submit that must dedup to the same job id.
2. **kill** — ``SIGKILL`` the whole server process group while work is
   in flight (no cleanup handlers run; leases go stale).
3. **restart** — a second serve on the same state dir must re-load every
   record, re-queue the interrupted attempts, and finish the storm.
4. **invariants** — every submitted job ends ``done`` with a result
   fingerprint that recomputes from its payload, or honestly ``failed``
   with its attempt history.  No job is lost, duplicated, or left
   queued/running once the storm clears.
5. **deadline** — an unfinishable job with ``deadline_s=1`` and
   ``max_attempts=2`` is cancelled by the watchdog, re-queued once, then
   fails with two recorded deadline attempts.
6. **shed** — with both executors busy and the queue full, one more
   submit answers ``429`` with a ``Retry-After`` header.
7. **shutdown** — a graceful drain exits 0 and leaves the process group
   empty.

Run from the repository root (the seed keys the whole storm):

    python scripts/service_chaos_smoke.py [seed]
"""

from __future__ import annotations

import http.client
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.ccac import ModelConfig  # noqa: E402
from repro.chaos import ChaosConfig, FaultSpec  # noqa: E402
from repro.service import (  # noqa: E402
    RetryPolicy,
    ServiceClient,
    ServiceError,
    falsify_spec,
    verify_spec,
)
from repro.service.jobs import (  # noqa: E402
    _FALSIFY_SEMANTIC_KEYS,
    _VERIFY_SEMANTIC_KEYS,
    _fingerprint_over,
)

TERMINAL = ("done", "failed", "cancelled")


def fail(msg: str) -> int:
    print(f"[service-chaos] FAIL: {msg}", file=sys.stderr)
    return 1


def storm_config(seed: int) -> ChaosConfig:
    """The weather: every service injection point misbehaves sometimes."""
    return ChaosConfig(seed=seed, specs=(
        FaultSpec(point="service.accept", kind="conn_reset", probability=0.06),
        FaultSpec(point="service.response", kind="reject_503",
                  probability=0.08),
        FaultSpec(point="service.response", kind="torn_stream",
                  probability=0.04),
        FaultSpec(point="service.response", kind="slow_write",
                  probability=0.04, delay=0.4),
        FaultSpec(point="service.stream", kind="torn_stream",
                  probability=0.08),
    ))


def _cli_env(chaos: ChaosConfig) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    env["REPRO_CHAOS"] = chaos.to_json()
    return env


def start_server(state_dir: str, chaos: ChaosConfig) -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", state_dir, "--pool-size", "2",
         "--executors", "2", "--max-queue", "4", "--drain-grace", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_cli_env(chaos), cwd=ROOT, start_new_session=True,
    )
    banner = {}

    def _read():
        banner["line"] = proc.stdout.readline()

    reader = threading.Thread(target=_read, daemon=True)
    reader.start()
    reader.join(timeout=90)
    line = banner.get("line") or ""
    match = re.search(r"http://[\w.]+:(\d+)", line)
    if not match:
        proc.kill()
        raise RuntimeError(f"no service banner from `ccmatic serve`: {line!r}")
    return proc, int(match.group(1))


def _client(port: int, seed: int, retries: int = 8) -> ServiceClient:
    return ServiceClient(
        port=port, timeout=60.0,
        retry_policy=RetryPolicy(retries=retries, backoff_base=0.1,
                                 backoff_cap=1.0),
        retry_seed=seed,
    )


def burst_specs():
    """Five distinct fingerprints: two verifies, two quick falsifies and
    one exhaustive slow burner (~10s) for the kill to interrupt."""
    return [
        verify_spec("rocc", ModelConfig(T=5)),
        verify_spec("rocc", ModelConfig(T=6)),
        falsify_spec("aimd:8", ModelConfig(T=5), budget=1500, seed=1,
                     no_verify=True),
        falsify_spec("aimd:8", ModelConfig(T=5), budget=1500, seed=2,
                     no_verify=True),
        falsify_spec("aimd:8", ModelConfig(T=5), budget=2000, seed=3,
                     exhaustive=True, no_verify=True),
    ]


def wait_terminal(client: ServiceClient, job_id: str,
                  timeout: float = 300.0) -> dict:
    deadline = time.monotonic() + timeout
    record = {"state": "unknown"}
    while time.monotonic() < deadline:
        record = client.status(job_id)
        if record["state"] in TERMINAL:
            return record
        time.sleep(0.25)
    raise RuntimeError(
        f"job {job_id} still {record['state']} after {timeout:.0f}s"
    )


def check_done_fingerprint(payload: dict, kind: str) -> bool:
    """A done job's payload fingerprint must recompute from its own
    semantic fields — a duplicated or torn execution cannot fake it."""
    keys = _VERIFY_SEMANTIC_KEYS if kind == "verify" else _FALSIFY_SEMANTIC_KEYS
    return bool(payload.get("fingerprint")) and (
        payload["fingerprint"] == _fingerprint_over(payload, keys)
    )


def submit_with_grit(client: ServiceClient, spec, attempts: int = 30):
    """Submit through the storm: ride out resets the policy gave up on
    (dedup makes every re-submit safe)."""
    last = None
    for _ in range(attempts):
        try:
            return client.submit(spec)
        except (OSError, ServiceError) as exc:
            last = exc
            time.sleep(0.3)
    raise RuntimeError(f"submit never landed: {last}")


def phase_burst_and_kill(state_dir: str, seed: int, chaos: ChaosConfig):
    """Submit the burst, verify dedup, then pull the plug mid-flight."""
    proc, port = start_server(state_dir, chaos)
    print(f"[service-chaos] storm server on 127.0.0.1:{port} "
          f"(seed {seed}, state: {state_dir})")
    client = _client(port, seed)
    specs = burst_specs()
    jobs = []
    for spec in specs:
        accepted = submit_with_grit(client, spec)
        jobs.append((accepted["job_id"], spec))
    ids = [j for j, _ in jobs]
    if len(set(ids)) != len(ids):
        raise RuntimeError(f"burst produced duplicate job ids: {ids}")
    # identical spec while the original is live: same job, not new work
    again = submit_with_grit(client, specs[2])
    if again["job_id"] != jobs[2][0]:
        raise RuntimeError(
            f"re-submit was not deduped: {again['job_id']} != {jobs[2][0]}"
        )
    print(f"[service-chaos] burst: {len(ids)} distinct jobs accepted, "
          f"identical re-submit deduped to {again['job_id']}")
    # wait for work to actually be in flight, then no mercy
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        try:
            if client.stats()["running"] >= 1:
                break
        except (OSError, ServiceError):
            pass
        time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=30)
    print("[service-chaos] kill: SIGKILL mid-storm, leases now stale")
    return jobs


def phase_recover(client: ServiceClient, jobs) -> int:
    """Every burst job must converge to an honest terminal state."""
    known = {j["job_id"] for j in client.jobs()}
    lost = [job_id for job_id, _ in jobs if job_id not in known]
    if lost:
        return fail(f"jobs lost across the restart: {lost}")
    done = failed = 0
    for job_id, spec in jobs:
        record = wait_terminal(client, job_id)
        if record["state"] == "done":
            payload = client.result(job_id)
            if not check_done_fingerprint(payload, spec.kind):
                return fail(f"job {job_id} finished with a fingerprint "
                            f"that does not recompute: {payload}")
            done += 1
        elif record["state"] == "failed":
            if not record.get("attempt_history"):
                return fail(f"job {job_id} failed without attempt "
                            f"history: {record}")
            failed += 1
        else:
            return fail(f"burst job {job_id} ended {record['state']!r}")
    # interrupted attempts re-queued, never cloned: one record per spec
    fingerprints = {}
    for record in client.jobs():
        fingerprints.setdefault(record["spec_fingerprint"], []).append(
            record["job_id"]
        )
    for spec_fp, job_ids in fingerprints.items():
        live = [j for j in job_ids if j in known]
        if len(live) > 1:
            return fail(f"spec {spec_fp[:12]} duplicated into {live}")
    interrupted = sum(
        1 for job_id, _ in jobs
        for a in client.status(job_id).get("attempt_history", [])
        if a.get("outcome") == "lease-expired"
    )
    print(f"[service-chaos] recover: {done} done / {failed} failed, "
          f"{interrupted} interrupted attempt(s) re-queued, none lost")
    return 0


def phase_deadline(client: ServiceClient) -> int:
    """An unfinishable job is bounded by deadline_s x max_attempts."""
    spec = falsify_spec(
        "aimd", ModelConfig(T=5), budget=10**8, ticks=300, seed=99,
        exhaustive=True, no_verify=True, deadline_s=1.0, max_attempts=2,
    )
    accepted = submit_with_grit(client, spec)
    record = wait_terminal(client, accepted["job_id"], timeout=120.0)
    if record["state"] != "failed":
        return fail(f"deadline job ended {record['state']!r}: {record}")
    outcomes = [a["outcome"] for a in record["attempt_history"]]
    if record["attempts"] != 2 or outcomes != ["deadline", "deadline"]:
        return fail(f"deadline job should burn exactly 2 attempts: "
                    f"attempts={record['attempts']} outcomes={outcomes}")
    print("[service-chaos] deadline: cancelled by the watchdog twice, "
          "then honestly failed")
    return 0


def phase_shed(client: ServiceClient, seed: int) -> int:
    """Both executors busy + full queue: the next submit is shed."""
    parked = []
    for n in range(6):  # 2 executors + max_queue of 4
        spec = falsify_spec(
            "aimd", ModelConfig(T=5), budget=10**8, ticks=300,
            seed=100 + n, exhaustive=True, no_verify=True,
        )
        parked.append(submit_with_grit(client, spec)["job_id"])
    impatient = ServiceClient(
        port=client.port, timeout=60.0, retry_policy=RetryPolicy(retries=0),
    )
    overflow = falsify_spec(
        "aimd", ModelConfig(T=5), budget=10**8, ticks=300, seed=110,
        exhaustive=True, no_verify=True,
    )
    shed = None
    for _ in range(30):
        try:
            accepted = impatient.submit(overflow)
        except ServiceError as exc:
            if exc.status == 429:
                shed = exc
                break
            # chaos rewrote the response (503) or tore it: try again
        except (OSError, http.client.HTTPException):
            pass  # chaos reset the connection or tore the body: try again
        else:
            # a slot freed up and the job landed: park it and refill
            parked.append(accepted["job_id"])
        time.sleep(0.2)
    rc = 0
    if shed is None:
        rc = fail("the full queue never answered 429")
    elif shed.retry_after is None:
        rc = fail("429 response carried no Retry-After header")
    for job_id in parked:
        try:
            client.cancel(job_id)
        except (OSError, ServiceError):
            pass
        wait_terminal(client, job_id, timeout=60.0)
    if rc == 0:
        stats = client.stats()
        if stats.get("shed", 0) < 1:
            return fail(f"/stats does not count the shed submit: {stats}")
        print(f"[service-chaos] shed: 429 with Retry-After "
              f"{shed.retry_after:g}s, /stats shed={stats['shed']}")
    return rc


def phase_clean_shutdown(client: ServiceClient, proc: subprocess.Popen) -> int:
    # the client never retries /shutdown (a dropped response usually means
    # the drain already started) — but under accept-path chaos the request
    # itself can vanish, so the *operator* re-issues it until the process
    # exits; a drain request to an already-draining server is a no-op
    code = None
    for _ in range(10):
        try:
            client.shutdown()
        except (OSError, ServiceError):
            pass
        try:
            code = proc.wait(timeout=6)
            break
        except subprocess.TimeoutExpired:
            continue
    if code is None:
        os.killpg(proc.pid, signal.SIGKILL)
        return fail("server did not exit within 60s of POST /shutdown")
    if code != 0:
        return fail(f"server exited {code} on clean shutdown")
    deadline = time.time() + 10.0
    while time.time() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            print("[service-chaos] shutdown: exit 0, process group empty")
            return 0
        time.sleep(0.2)
    os.killpg(proc.pid, signal.SIGKILL)
    return fail("orphaned processes survived the clean shutdown")


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    chaos = storm_config(seed)
    state_dir = tempfile.mkdtemp(prefix="service-chaos-")
    jobs = phase_burst_and_kill(state_dir, seed, chaos)
    # second incarnation: same state, fresh port, same weather
    proc, port = start_server(state_dir, chaos)
    print(f"[service-chaos] restarted on 127.0.0.1:{port}")
    client = _client(port, seed + 1)
    try:
        for phase in (
            lambda: phase_recover(client, jobs),
            lambda: phase_deadline(client),
            lambda: phase_shed(client, seed),
        ):
            rc = phase()
            if rc:
                return rc
        stats = client.stats()
        if stats["running"] or stats["queued"]:
            return fail(f"zombies after the storm: {stats}")
    finally:
        rc_shutdown = phase_clean_shutdown(client, proc)
    if rc_shutdown:
        return rc_shutdown
    print("[service-chaos] OK: no job lost, duplicated or left running "
          "through resets, 503s, torn streams, SIGKILL and restart")
    return 0


if __name__ == "__main__":
    sys.exit(main())
