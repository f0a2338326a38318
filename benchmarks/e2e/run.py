"""End-to-end benchmark: Table 1 synthesis, RoCC proving, job service.

One run measures one workload for ``--seconds``: it starts fresh child
processes (``sample.py``, ``PYTHONHASHSEED=0``) one after another, each
setting up, running one timed operation and checking its outputs, and
reports medians over them.  The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` every other sample is traced and the metrics are the
per-layer ones.

    python3 benchmarks/e2e/run.py --workload prove --seed 1 --seconds 20 --trace 0

Every timing is reported at a reference host speed: each child times a
fixed calibration unit (``sample.calibrate``) right after set-up and
every 0.25 s during its operation, and its times are scaled by
``CALIB_REF_S`` over the mean unit time of the same stretch.  The raw
medians are printed beside them.

Without ``--workload`` (or with ``--rounds N``) it runs the suite: N
(default 5) interleaved rounds, round r running one sample of every
workload with seed ``--seed + r``, then one traced round; it prints (and
``--out`` writes) median, quartiles and n of every end-to-end metric and
workload-specific timing per workload.  ``compare.py`` compares two such
files.

Exit codes: 0 all outputs correct; 1 some check failed (the result is
still printed); 2 the benchmark could not run (no result printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from statistics import mean, median

import layers
from sample import calibrate
from summary import p90, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SAMPLE = os.path.join(HERE, "sample.py")
#: scratch space of a run (service state dirs); removed when the run ends
WORK_ROOT = os.path.join(ROOT, ".e2e-work")
#: set-up samples per run, at least (extra set-up-only children fill up)
MIN_SETUPS = 5
#: a run never takes longer than this, children included
RUN_BUDGET_S = 170.0
#: about the calibration unit's time on a 2-core x86-64 VM running
#: CPython 3.11 in its fast state; timings are reported as if every
#: sample had run at that speed
CALIB_REF_S = 0.003
#: solver work counts that repeat exactly on a deterministic workload
EXACT_COUNTERS = ("smt.checks", "smt.pivots")


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run (never a wrong program output)."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _read_lines(proc, deadline: float):
    """Yield ``(time_read, message)`` for each JSON line the child writes."""
    fd = proc.stdout.fileno()
    buf = b""
    while True:
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield time.perf_counter(), json.loads(line)
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise TimeoutError("child did not answer in time")
        chunk = os.read(fd, 65536)
        if not chunk:
            return
        buf += chunk


def _reap(proc, deadline) -> None:
    """Wait for a child that closed its output (until ``deadline``), then
    kill whatever is left of its process group; ``deadline=None`` kills
    at once."""
    if deadline is not None:
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    proc.stdout.close()


def spawn(workload: str, seed: int, index: int, work: str, deadline: float,
          mode: str = "sample", trace: bool = False, spans=None):
    """Run one child; returns ``(setup_s, final message or None, error)``.

    A child that never reports ready raises :class:`BenchmarkError`; one
    that dies or times out after that returns an error string.
    """
    argv = [sys.executable, SAMPLE, "--workload", workload, "--seed",
            str(seed), "--index", str(index), "--mode", mode, "--work", work]
    if trace:
        argv.append("--trace")
    if spans:
        argv += ["--spans", spans]
    spawned = time.perf_counter()
    # own process group, so a kill also reaches the service's pool workers
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            env=_child_env(), bufsize=0,
                            start_new_session=True)
    setup_s = None
    final = None
    error = None
    closed = False
    try:
        for seen, message in _read_lines(proc, deadline):
            if message.get("ready"):
                setup_s = seen - spawned
            else:
                final = message
        closed = True
    except (TimeoutError, ValueError) as exc:
        error = f"{workload} {mode} #{index}: {exc}"
    finally:
        _reap(proc, deadline if closed else None)
    if setup_s is None:
        raise BenchmarkError(
            error or f"{workload} {mode} #{index} exited with code "
                     f"{proc.returncode} before it was set up"
        )
    if error is None and (final is None or proc.returncode != 0):
        error = (f"{workload} {mode} #{index} exited with code "
                 f"{proc.returncode}")
    return setup_s, final, error


def scaled(seconds: float, calib_s: float) -> float:
    """``seconds`` at the reference host speed: the time the same work
    takes where the calibration unit takes :data:`CALIB_REF_S`."""
    return seconds * CALIB_REF_S / calib_s


def wall(samples: list) -> float:
    """Median operation time, at the reference speed."""
    return median([scaled(s["wall_s"], s["calib_s"]) for s in samples])


def end_to_end(samples: list, setups: list) -> dict:
    """``setups`` holds ``(setup_s, calib_s)`` pairs."""
    return {
        "wall_s": wall(samples),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "setup_s": median([scaled(*pair) for pair in setups]),
    }


def workload_times(samples: list) -> dict:
    """Median of each workload-specific timing, at the reference speed."""
    return {
        name: median([scaled(s["detail"]["times"][name],
                             s["times_calib_s"][name]) for s in samples])
        for name in samples[0]["detail"]["times"]
    }


def raw_times(samples: list, setups: list) -> dict:
    """The unscaled medians, and the calibration unit's."""
    return {
        "wall_s": median([s["wall_s"] for s in samples]),
        "setup_s": median([setup for setup, _ in setups]),
        "calib_s": median([s["calib_s"] for s in samples]),
    }


def exact_counts(samples: list) -> dict:
    """Each solver work count's distinct values over the samples, on a
    workload whose counts repeat exactly (else nothing)."""
    if not samples[0]["exact_counts"]:
        return {}
    counts = {name: {s["counters"][name] for s in samples}
              for name in EXACT_COUNTERS}
    if "iterations" in samples[0]["detail"]:
        counts["cegis.iterations"] = {s["detail"]["iterations"]
                                      for s in samples}
    return {name: sorted(values) for name, values in counts.items()}


def job_latencies(samples: list) -> list:
    """Every service job's client-observed latency, at the reference speed."""
    return [scaled(latency, s["calib_s"]) for s in samples
            for latency in s["detail"].get("job_latency_s", ())]


def per_layer(traced: list, untraced: list) -> dict:
    """Per-layer metrics per operation, from the traced samples.

    Layer time is reported as a share of the traced wall time (busy
    includes nested layers, self excludes them); ``trace.wall_s`` (at
    the reference speed) turns shares back into seconds.
    """
    n = len(traced)
    raw_wall = sum(s["wall_s"] for s in traced)
    out = {}
    for name in layers.LAYERS:
        stats = [s["trace"]["layers"][name] for s in traced]
        out[f"{name}.calls"] = sum(st["calls"] for st in stats) / n
        out[f"{name}.busy_frac"] = sum(st["busy_s"] for st in stats) / raw_wall
        out[f"{name}.self_frac"] = sum(st["self_s"] for st in stats) / raw_wall
    for name in traced[0]["counters"]:
        out[name] = sum(s["counters"][name] for s in traced) / n
    tr = [s["trace"] for s in traced]
    for verdict in ("sat", "unsat", "unknown"):
        out[f"verifier.{verdict}_calls"] = (
            sum(t["verdicts"][verdict] for t in tr) / n
        )
    probes = sum(t["probes"] for t in tr)
    out["smt.optimize.probes"] = probes / n
    out["smt.optimize.useful_frac"] = (
        sum(t["sat_probes"] for t in tr) / probes if probes else 0.0
    )
    out["trust.proof_steps"] = sum(t["proof_steps"] for t in tr) / n
    out["cegis.iterations"] = (
        sum(s["detail"].get("iterations", 0) for s in traced) / n
    )
    for key in layers.SERVICE_STATS:
        out[key] = sum(s["service"][key] for s in traced if "service" in s) / n
    out["trace.wall_s"] = wall(traced)
    out["trace.unattributed_frac"] = 1.0 - sum(t["top_busy_s"] for t in tr) / raw_wall
    out["trace.overhead_frac"] = out["trace.wall_s"] / wall(untraced) - 1.0
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans=None, reference=None) -> dict:
    """One run: samples for ``seconds`` (at least one), set-up samples,
    checks.  ``reference`` caches the service's in-process fingerprints
    across the runs of a suite."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    if spans:
        os.makedirs(spans, exist_ok=True)
    reference = {} if reference is None else reference
    deadline = time.monotonic() + RUN_BUDGET_S
    samples, setups, errors = [], [], []
    attempted = failed = 0
    try:
        start = time.monotonic()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            setup_s, sample, error = spawn(
                workload, seed, index, work, deadline,
                trace=traced, spans=spans,
            )
            if error is not None:
                errors.append(error)
                attempted += 1
                failed += 1
            else:
                setups.append((setup_s, sample["setup_calib_s"]))
                sample["traced"] = traced
                samples.append(sample)
                attempted += sample["attempted"]
                failed += min(len(sample["failures"]), sample["attempted"])
                errors.extend(f"{workload} #{index}: {f}"
                              for f in sample["failures"])
                _print_sample(index, setup_s, sample)
            index += 1
            if time.monotonic() - start >= seconds and (not trace or index >= 2):
                break
        for extra in range(len(setups), MIN_SETUPS):
            setup_s, final, error = spawn(workload, seed, extra, work,
                                          deadline, mode="setup")
            problems = [error] if error is not None else final["failures"]
            if error is None:
                setups.append((setup_s, final["setup_calib_s"]))
            if problems:  # e.g. a service that left workers behind
                attempted += 1
                failed += 1
                errors.extend(f"{workload} set-up: {p}" for p in problems)
        if workload == "service" and samples:
            if not reference:
                _, ref, error = spawn(workload, seed, 0, work, deadline,
                                      mode="reference")
                if error is not None:
                    raise BenchmarkError(f"reference run failed: {error}")
                reference.update(ref["fingerprints"])
            mismatched = _fingerprint_mismatches(samples, reference)
            failed += len(mismatched)
            errors.extend(mismatched)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    if not samples:
        raise BenchmarkError("no sample completed: " + "; ".join(errors))
    if trace:
        traced = [s for s in samples if s["traced"]]
        untraced = [s for s in samples if not s["traced"]]
        if not traced or not untraced:
            raise BenchmarkError("a traced run needs traced and untraced samples")
        return {
            "attempted": attempted,
            "failed": failed,
            "values": per_layer(traced, untraced),
            "missing": sorted({m for s in traced for m in s["trace"]["missing"]}),
            "errors": errors,
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "values": end_to_end(samples, setups),
        "times": workload_times(samples),
        "raw": raw_times(samples, setups),
        "counts": exact_counts(samples),
        "job_latency_s": job_latencies(samples),
        "missing": [],
        "errors": errors,
    }


def _fingerprint_mismatches(samples: list, reference: dict) -> list:
    out = []
    for i, sample in enumerate(samples):
        for spec_fp, result_fp in sample.get("fingerprints", {}).items():
            if reference.get(spec_fp) != result_fp:
                out.append(f"service #{i}: job {spec_fp[:12]} fingerprint "
                           f"differs from the in-process run")
    return out


def _print_sample(index: int, setup_s: float, sample: dict) -> None:
    detail = sample["detail"]
    extra = "".join(f"  {k} {v:.3f}s" for k, v in sorted(detail["times"].items()))
    if "iterations" in detail:
        extra += f"  iterations {detail['iterations']}"
    if "jobs" in detail:
        extra += f"  jobs {detail['jobs']}"
    kind = "traced" if sample["traced"] else "untraced"
    print(f"  sample {index} [{kind}]  setup {setup_s:.3f}s  "
          f"wall {sample['wall_s']:.3f}s  calib {sample['calib_s']:.5f}s  "
          f"rss {sample['peak_rss_mb']:.1f}MB{extra}  (unscaled)", flush=True)


def result_line(run: dict, metric_specs: list) -> dict:
    metrics = {}
    for spec in metric_specs:
        if spec["name"] not in run["values"]:
            raise BenchmarkError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": run["values"][spec["name"]],
                                 "unit": spec["unit"]}
    return {"correct": run["failed"] == 0, "attempted": run["attempted"],
            "failed": run["failed"], "metrics": metrics}


def host_info() -> dict:
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "git_sha": sha}


def main_single(args, spec) -> int:
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]
    calib_before = mean(calibrate())
    run = run_workload(args.workload[0], args.seed, args.seconds,
                       bool(args.trace), args.spans)
    host = host_info()
    host["calib_s"] = [calib_before, mean(calibrate())]
    result = result_line(run, metric_specs)
    for error in run["errors"]:
        print(f"  FAILED {error}", flush=True)
    if run["missing"]:
        print(f"  missing patch targets: {', '.join(run['missing'])}")
    print(f"host {json.dumps(host)}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in run.get("times", {}).items():
        print(f"  {name:32s} {value:.6g} s")
    for name, value in run.get("raw", {}).items():
        print(f"  {'unscaled ' + name:32s} {value:.6g} s")
    for name, values in run.get("counts", {}).items():
        print(f"  {name:32s} {' '.join(str(v) for v in values)} count")
    latencies = run.get("job_latency_s")
    if latencies:
        tail = p90(latencies)
        print(f"  job latency p50 {median(latencies):.3f}s  p90 "
              f"{'n/a' if tail is None else f'{tail:.3f}s'}  (n={len(latencies)})")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def _summaries(rounds: list, key: str, units) -> dict:
    """Summary of each ``rounds[i][key][name]`` over the rounds."""
    out = {}
    for name in rounds[0][key]:
        values = [r[key][name] for r in rounds]
        out[name] = {"unit": units(name), **summarize(values), "values": values}
    return out


def main_suite(args, spec) -> int:
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    began = time.monotonic()
    host = host_info()
    calib = []
    runs = {w: [] for w in workloads}
    reference = {}
    out = {"argv": sys.argv[1:], "seconds": args.seconds,
           "rounds": args.rounds, "seed": args.seed, "workloads": {}}
    for r in range(args.rounds):
        calib.append(mean(calibrate()))
        for w in workloads:
            print(f"round {r} {w} (seed {args.seed + r})", flush=True)
            run = run_workload(w, args.seed + r, args.seconds, False,
                               reference=reference)
            runs[w].append({"seed": args.seed + r, **run})
        calib.append(mean(calibrate()))
    for w in workloads:
        print(f"traced {w} (seed {args.seed})", flush=True)
        traced = run_workload(w, args.seed, args.seconds, True, args.spans,
                              reference=reference)
        rounds = runs[w]
        attempted = sum(r["attempted"] for r in rounds) + traced["attempted"]
        failed = sum(r["failed"] for r in rounds) + traced["failed"]
        latencies = [x for r in rounds for x in r["job_latency_s"]]
        out["workloads"][w] = {
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "end_to_end": _summaries(rounds, "values", units.get),
            "times": _summaries(rounds, "times", lambda _: "s"),
            "unscaled": _summaries(rounds, "raw", lambda _: "s"),
            "counts": {
                name: sorted({v for r in rounds for v in r["counts"][name]})
                for name in rounds[0]["counts"]
            },
            "job_latency": {"n": len(latencies),
                            "p50": median(latencies) if latencies else None,
                            "p90": p90(latencies)},
            "per_layer": result_line(traced, spec["per_layer"])["metrics"],
            "missing": traced["missing"],
            "errors": [e for r in rounds for e in r["errors"]]
                      + traced["errors"],
        }
    host["loadavg_end"] = list(os.getloadavg())
    host["calib_s"] = {**summarize(calib), "values": calib}
    out["host"] = host
    out["total_s"] = time.monotonic() - began
    _print_suite(out)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0 if all(w["failed"] == 0 for w in out["workloads"].values()) else 1


def _print_suite(out: dict) -> None:
    print(f"\n{'workload':10s} {'metric':16s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'n':>3s}  unit")
    for w, data in out["workloads"].items():
        for name, s in {**data["end_to_end"], **data["times"]}.items():
            print(f"{w:10s} {name:16s} {s['median']:10.4f} {s['q1']:10.4f} "
                  f"{s['q3']:10.4f} {s['n']:3d}  {s['unit']}")
        print(f"{w:10s} {'fail_frac':16s} {data['fail_frac']:10.4f}")
        for name, values in data["counts"].items():
            print(f"{w:10s} {name:16s} {' '.join(str(v) for v in values):>10s}"
                  f"           exact")
        lat = data["job_latency"]
        if lat["n"]:
            tail = "n/a" if lat["p90"] is None else f"{lat['p90']:.4f}s"
            print(f"{w:10s} job latency over all rounds: p50 {lat['p50']:.4f}s"
                  f"  p90 {tail}  (n={lat['n']})")
    h = out["host"]
    print(f"\nhost: nproc {h['nproc']}, python {h['python']}, git "
          f"{h['git_sha']}, calib median {h['calib_s']['median']:.5f}s, "
          f"total {out['total_s']:.0f}s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable in suite mode)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds; "
                             "0, i.e. one sample, in a suite)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced samples")
    parser.add_argument("--rounds", type=int, default=None,
                        help="suite rounds (default 5); the suite runs when "
                             "this is given or no --workload is")
    parser.add_argument("--out", default=None, help="suite results file")
    parser.add_argument("--spans", default=None,
                        help="directory for the spans of traced samples")
    args = parser.parse_args(argv)
    # unwind on SIGTERM too, so the running child's process group is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise BenchmarkError(f"no program to measure under {SRC}")
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        for w in args.workload or ():
            if w not in names:
                raise BenchmarkError(f"unknown workload {w!r}; one of {names}")
        if args.rounds is not None or not args.workload:
            args.rounds = 5 if args.rounds is None else args.rounds
            if args.seconds is None:
                args.seconds = 0.0  # one sample per workload and round
            return main_suite(args, spec)
        if args.seconds is None:
            args.seconds = float(spec["run_seconds"])
        if len(args.workload) != 1:
            raise BenchmarkError("give one --workload, or --rounds for a suite")
        return main_single(args, spec)
    except (BenchmarkError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
