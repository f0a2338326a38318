"""One sample of one workload, run in a fresh process by ``run.py``.

The sample sets up (imports, plus a cold JobServer for ``service``),
writes ``{"ready": true}``, times a calibration loop (for the set-up
time), runs one timed operation with the calibration loop ticking inside
it (for the operation's times), checks its outputs outside the timed
region, and writes one JSON result line.  Protocol lines go to
the stdout the parent reads; anything the program itself prints is sent
to stderr.

Modes: ``sample`` (the above), ``setup`` (set up, report ready,
calibrate, tear down: extra set-up samples) and ``reference`` (run every
service job spec once in-process through ``execute_job`` and report its
result fingerprint, which every service job must reproduce).

Only public entry points are called: ``repro.service.execute_job``,
``CcacVerifier.find_counterexample`` and ``JobServer``/``ServiceClient``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
from fractions import Fraction

#: repro.obs counters reported per operation (benchmark name -> counter)
COUNTERS = {
    "smt.checks": "smt.checks",
    "smt.conflicts": "smt.conflicts",
    "smt.pivots": "smt.pivots",
    "smt.compile.memo_hits": "compile.memo_hits",
}
#: calibration units timed right after set-up
CALIB_UNITS = 40
#: one unit is timed every this many seconds during the operation
TICK_S = 0.25


def _calib_unit() -> float:
    """CPU time of a fixed loop of ``Fraction`` arithmetic and comparisons
    (about 3 ms), the kind of pure-Python work the solver does.

    CPU time of this thread, not wall time: during the ``service``
    operation the pool workers keep both CPUs busy, and a unit that waits
    for a CPU (or for the GIL) would measure that load, not the host.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()  # heap size after the operation must not change the loop
    try:
        start = time.thread_time()
        seen = {}
        for i in range(1, 601):
            x = Fraction(i, i + 1) * Fraction(3, 7) + Fraction(1, i % 97 + 2)
            seen[i % 101] = x < seen.get(i % 101, 0)
        return time.thread_time() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def calibrate(units: int = CALIB_UNITS) -> list[float]:
    """Times of ``units`` calibration units, one after another."""
    return [_calib_unit() for _ in range(units)]


class Ticker:
    """Times one calibration unit every :data:`TICK_S` seconds while the
    operation runs, from a ``SIGALRM`` handler in the main thread.

    On a shared VM the host switches, for seconds at a time, between a
    fast state and one about 1.9x slower, and an operation slows by the
    share of its time spent in the slow state.  The mean unit time over
    the operation measures that share; units timed before or after it
    catch only the state of that moment.  The units (about 1% of the
    time) stay inside every timing taken.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (when, unit time)

    def _tick(self, _signum, _frame) -> None:
        self.ticks.append((time.perf_counter(), _calib_unit()))

    def mean_unit(self, start: float, end: float):
        """Mean unit time ticked within ``[start, end]``, or None."""
        units = [unit for when, unit in self.ticks if start <= when <= end]
        return statistics.mean(units) if units else None

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _peak_rss_mb(who: int) -> float:
    """Peak resident set of this process, or of its largest reaped child."""
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _counters() -> dict:
    from repro.obs import metrics

    reg = metrics()
    return {name: reg.counter(src).value for name, src in COUNTERS.items()}


class Workload:
    """``setup`` (untimed), ``run`` (timed, returns detail: ``times`` maps
    workload-specific timings to seconds, ``intervals`` optionally maps
    them to their ``(start, end)``, the rest is printed), ``check``
    (untimed: attempted, failures, extra result fields) and ``teardown``
    (returns failures)."""

    #: the solver's work counts repeat exactly from sample to sample
    EXACT_COUNTS = False

    def teardown(self) -> list[str]:
        return []


class Table1(Workload):
    """Table 1 ``no_cwnd_small`` (h=3, T=5, enum generator, RP) to the
    first verified CCA, through the CLI's ``execute_job`` path."""

    EXACT_COUNTS = True

    def __init__(self, worst_case: bool):
        self.worst_case = worst_case

    def setup(self, work: str, rng: random.Random) -> None:
        from repro.ccac import ModelConfig
        from repro.core import SynthesisQuery, table1_spaces
        from repro.runtime import runner  # noqa: F401 - execute_job's lazy import
        from repro.service import synthesis_spec

        self.cfg = ModelConfig(T=5, history=3)
        self.spec = synthesis_spec(SynthesisQuery(
            spec=table1_spaces(3)["no_cwnd_small"],
            cfg=self.cfg,
            generator="enum",
            worst_case_cex=self.worst_case,
            time_budget=120.0,
        ))

    def run(self) -> dict:
        from repro.service import execute_job

        self.payload = execute_job(self.spec)
        return {"times": {}, "iterations": self.payload["iterations"]}

    def check(self) -> tuple[int, list[str], dict]:
        from repro.core.verifier import CcacVerifier
        from repro.service import decode_synthesis_result

        payload = self.payload
        failures = []
        if payload["stop_reason"] != "solution":
            failures.append(f"stop_reason {payload['stop_reason']!r}")
        solutions = decode_synthesis_result(payload).solutions
        if not solutions:
            failures.append("no solution returned")
        for rule in solutions:
            res = CcacVerifier(self.cfg, certify=True).find_counterexample(rule)
            if not (res.verified and res.certified and not res.unknown):
                failures.append(f"{rule} not re-proved with a checked certificate")
        return 1, failures, {}


class Prove(Workload):
    """Fresh-verifier RoCC proving calls (UNSAT only) at T=5, 7 and 9,
    plus one certified call at T=7.

    The calls always run in this order: the second T=7 call reuses what
    the process cached in the first, so another order changes the times.
    """

    EXACT_COUNTS = True
    CALLS = (("prove_T5_s", 5, False), ("prove_T7_s", 7, False),
             ("prove_T9_s", 9, False), ("certify_T7_s", 7, True))

    def setup(self, work: str, rng: random.Random) -> None:
        from repro.core import verifier  # noqa: F401
        from repro.trust import certify  # noqa: F401 - the certify call's lazy import

    def run(self) -> dict:
        from repro.ccac import ModelConfig
        from repro.core import rocc
        from repro.core.verifier import CcacVerifier

        self.results = {}
        times, intervals = {}, {}
        for name, T, certify in self.CALLS:
            start = time.perf_counter()
            verifier = CcacVerifier(ModelConfig(T=T, history=3), certify=certify)
            self.results[name] = verifier.find_counterexample(rocc(3))
            end = time.perf_counter()
            times[name] = end - start
            intervals[name] = (start, end)
        return {"times": times, "intervals": intervals}

    def check(self) -> tuple[int, list[str], dict]:
        failures = []
        for name, _T, certify in self.CALLS:
            res = self.results[name]
            if not res.verified or res.unknown:
                failures.append(f"{name}: not verified")
            if certify and not res.certified:
                failures.append(f"{name}: not certified")
        return len(self.CALLS), failures, {}


def service_specs() -> list[tuple[str, object]]:
    """The service job set: distinct verify jobs, cheap and expensive.

    ``eq3`` at T=7 is left out: it is a single multi-second refutation
    that alone would set the makespan.
    """
    from repro.ccac import ModelConfig
    from repro.service import verify_spec

    specs = []
    for T, ccas in ((5, ("rocc", "eq3", "const:0", "const:1", "const:2",
                         "const:3")),
                    (7, ("rocc", "const:0", "const:1", "const:2",
                         "const:3"))):
        for cca in ccas:
            for delay in (4, 6, 8):
                cfg = ModelConfig(T=T, delay_thresh=Fraction(delay))
                specs.append((f"{cca}/T{T}/d{delay}", verify_spec(cca, cfg)))
    for T in (5, 7):
        for cca in ("const:0", "const:1"):
            specs.append((f"{cca}/T{T}/wce",
                          verify_spec(cca, ModelConfig(T=T), worst_case=True)))
    specs.append(("rocc/T5/certify",
                  verify_spec("rocc", ModelConfig(T=5), certify=True)))
    return specs


class Service(Workload):
    """An in-process JobServer on a cold state dir, driven by one client
    in a closed loop that keeps :data:`OUTSTANDING` jobs submitted."""

    OUTSTANDING = 4
    POOL_SIZE = 2
    EXECUTORS = 2
    #: client poll cadence for job completion (one connection at a time)
    POLL_S = 0.02
    TERMINAL = ("done", "failed", "cancelled")

    def setup(self, work: str, rng: random.Random) -> None:
        from repro.service import JobServer, ServiceClient, ServiceConfig

        self.state = tempfile.mkdtemp(prefix="service-", dir=work)
        self.server = JobServer(ServiceConfig(
            port=0, state_dir=self.state, pool_size=self.POOL_SIZE,
            executors=self.EXECUTORS,
        ))
        started = threading.Event()

        def _serve():
            async def _main():
                await self.server.start()
                started.set()
                await self.server.serve_until_shutdown()

            asyncio.run(_main())

        self.thread = threading.Thread(target=_serve, daemon=True)
        self.thread.start()
        if not started.wait(60):
            raise RuntimeError("JobServer did not start within 60 s")
        self.client = ServiceClient(port=self.server.port, timeout=120.0)
        while not self.client.healthy():
            time.sleep(0.01)
        self.specs = service_specs()
        rng.shuffle(self.specs)

    def run(self) -> dict:
        client = self.client
        pending = list(self.specs)
        inflight: dict[str, tuple[str, float]] = {}
        self.jobs: dict[str, dict] = {}
        while pending or inflight:
            while pending and len(inflight) < self.OUTSTANDING:
                label, spec = pending.pop(0)
                sent = time.perf_counter()
                inflight[client.submit(spec)["job_id"]] = (label, sent)
            time.sleep(self.POLL_S)
            records = client.jobs()
            seen = time.perf_counter()
            for record in records:
                job_id = record["job_id"]
                if job_id in inflight and record["state"] in self.TERMINAL:
                    label, sent = inflight.pop(job_id)
                    self.jobs[job_id] = {"label": label, "record": record,
                                         "latency_s": seen - sent}
        latencies = [job["latency_s"] for job in self.jobs.values()]
        return {"times": {}, "jobs": len(self.jobs), "job_latency_s": latencies}

    def check(self) -> tuple[int, list[str], dict]:
        failures = []
        fingerprints = {}
        queue = exec_ = dispatch = life = latency = 0.0
        for job_id, job in self.jobs.items():
            label, record = job["label"], job["record"]
            if record["state"] != "done":
                failures.append(f"{label}: {record['state']} "
                                f"({record.get('error')})")
                continue
            result = self.client.result(job_id)
            fingerprints[record["spec_fingerprint"]] = result["fingerprint"]
            if label.startswith("rocc/") and not result["verified"]:
                failures.append(f"{label}: RoCC not verified")
            if label.startswith("const:0/") and (
                result["verified"] or result["counterexample"] is None
            ):
                failures.append(f"{label}: const:0 not refuted")
            if result["unknown"]:
                failures.append(f"{label}: unknown verdict")
            wait = record["started_at"] - record["submitted_at"]
            run = record["finished_at"] - record["started_at"]
            queue += wait
            exec_ += run
            dispatch += run - result["wall_time"]
            life += record["finished_at"] - record["submitted_at"]
            latency += job["latency_s"]
        stats = self.client.stats()
        cache = self.client.cache_stats()
        pool = stats.get("pool", {})
        latency = latency or 1.0
        # shares of the summed client-observed job latency; "http" is what
        # the client saw beyond the server's submitted..finished interval
        service = {
            "service.queue_wait_frac": queue / latency,
            "service.exec_frac": exec_ / latency,
            "service.dispatch_frac": dispatch / latency,
            "service.http_frac": (latency - life) / latency,
            "service.pool_spawns": pool.get("spawns", 0),
            "service.pool_respawns": pool.get("respawns", 0),
            "service.task_retries": pool.get("retries", 0),
            "service.shed": stats.get("shed", 0),
            "service.cache_hits": cache.get("hits", 0),
            "service.cache_misses": cache.get("misses", 0),
        }
        return len(self.specs), failures, {"service": service,
                                           "fingerprints": fingerprints}

    def teardown(self) -> list[str]:
        """Shut the server down; report stray threads or processes."""
        failures = []
        try:
            self.client.shutdown()
        except OSError as exc:
            failures.append(f"shutdown request failed: {exc}")
        self.thread.join(timeout=60)
        if self.thread.is_alive():
            failures.append("server thread still running after shutdown")
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        stray = multiprocessing.active_children()
        if stray:
            failures.append(f"{len(stray)} stray worker process(es)")
        shutil.rmtree(self.state, ignore_errors=True)
        return failures


WORKLOADS = {
    "t1_rp": lambda: Table1(worst_case=False),
    "t1_rp_wce": lambda: Table1(worst_case=True),
    "prove": Prove,
    "service": Service,
}


def reference_fingerprints() -> dict:
    """Every service job spec run once in-process: spec -> result print."""
    from repro.service import execute_job

    return {spec.fingerprint(): execute_job(spec)["fingerprint"]
            for _label, spec in service_specs()}


def run_sample(workload, args, say) -> dict:
    rec = None
    if args.trace:
        import layers

        rec = layers.install()
    say({"ready": True})
    setup_units = calibrate()
    before = _counters()
    with Ticker() as ticker:
        start = time.perf_counter()
        detail = workload.run()
        wall = time.perf_counter() - start
    after = _counters()
    whole = (start, start + wall)
    calib = ticker.mean_unit(*whole) or statistics.mean(setup_units)
    intervals = detail.pop("intervals", {})
    out = {
        "wall_s": wall,
        "calib_s": calib,
        "setup_calib_s": statistics.mean(setup_units),
        # a timing of one stretch of the operation scales by that stretch
        "times_calib_s": {
            name: ticker.mean_unit(*intervals.get(name, whole)) or calib
            for name in detail["times"]
        },
        "detail": detail,
        "counters": {k: after[k] - before[k] for k in COUNTERS},
        "exact_counts": workload.EXACT_COUNTS,
    }
    if rec is not None:
        out["trace"] = rec.summary()
        if args.spans:
            rec.write(os.path.join(
                args.spans, f"{args.workload}-{args.seed}-{args.index}.jsonl"
            ))
    own_rss = _peak_rss_mb(resource.RUSAGE_SELF)  # before the checks' work
    attempted, failures, extra = workload.check()
    failures += workload.teardown()
    # pool workers count once teardown has reaped them
    out["peak_rss_mb"] = max(own_rss, _peak_rss_mb(resource.RUSAGE_CHILDREN))
    out.update(extra, attempted=attempted, failures=failures)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--mode", default="sample",
                        choices=("sample", "setup", "reference"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    # keep the parent's pipe for protocol lines; program output -> stderr
    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)

    def say(obj: dict) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    if args.mode == "reference":
        say({"ready": True})
        say({"fingerprints": reference_fingerprints()})
        return 0
    workload = WORKLOADS[args.workload]()
    workload.setup(args.work, random.Random(f"{args.seed}:{args.index}"))
    if args.mode == "setup":
        say({"ready": True})
        calib_s = statistics.mean(calibrate())
        say({"failures": workload.teardown(), "setup_calib_s": calib_s})
        return 0
    say(run_sample(workload, args, say))
    return 0


if __name__ == "__main__":
    sys.exit(main())
