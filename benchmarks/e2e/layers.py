"""Per-layer timing for traced samples, recorded from the benchmark side.

:func:`install` patches the public attribute at each layer boundary with
a wrapper that records a span ``[layer, start, end, parent]``.  Spans
stay in memory; :meth:`Recorder.summary` turns them into per-layer call
counts, busy time and self time (a span's duration minus its direct
children), and :meth:`Recorder.write` dumps them as JSONL at the end of
the sample.  Wrappers exist only in traced samples, so untraced samples
measure the program as shipped.

A patch target that a later refactor renamed or removed is reported as
missing and skipped; tracing never fails the sample.

Spans nest by call order on one stack, which is right for the workloads
that call these layers in the sample's own process (one thread).  The
service workload runs its solver work in pool workers, which this
recorder does not see.
"""

from __future__ import annotations

import importlib
import json
import time

#: layer name -> (module, class or None for a module function, attributes)
TARGETS = (
    ("generator", "repro.core.generator_enum", "EnumerativeGenerator",
     ("propose", "add_counterexample")),
    ("verifier", "repro.core.verifier", "CcacVerifier",
     ("find_counterexample",)),
    ("ccac.encode", "repro.ccac.environments", "EnvironmentSpec",
     ("build_model", "candidate_constraints")),
    ("smt.compile", "repro.smt.solver", None, ("compile_query",)),
    ("smt.sat", "repro.smt.sat", "SatSolver", ("solve",)),
    ("smt.simplex", "repro.smt.simplex", "Simplex", ("check",)),
    ("smt.optimize", "repro.core.verifier", None, ("maximize",)),
    ("runtime.validate", "repro.core.verifier", None,
     ("validate_model", "validate_counterexample")),
    ("trust.check", "repro.trust.certify", None, ("certify_certificate",)),
)

LAYERS = tuple(name for name, *_ in TARGETS)

#: service metrics, measured from outside the server: job records,
#: ``/stats`` and ``/cache/stats`` (0 on workloads without a service)
SERVICE_STATS = (
    "service.queue_wait_frac", "service.exec_frac", "service.dispatch_frac",
    "service.http_frac", "service.pool_spawns", "service.pool_respawns",
    "service.task_retries", "service.shed", "service.cache_hits",
    "service.cache_misses",
)


class Recorder:
    """In-memory span store plus the few results wrappers look at."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []
        self.verdicts = {"sat": 0, "unsat": 0, "unknown": 0}
        self.probes = 0
        self.sat_probes = 0
        self.proof_steps = 0

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(layer)
        before = _sat_results if layer == "smt.optimize" else None

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            mark = before() if before else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, result, mark)
            return result

        return traced

    def summary(self) -> dict:
        """Per-layer ``{calls, busy_s, self_s}`` plus top-level busy time."""
        layers = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                  for name in LAYERS}
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        top = 0.0
        for i, (layer, start, end, parent) in enumerate(self.spans):
            dur = end - start
            entry = layers[layer]
            entry["calls"] += 1
            entry["busy_s"] += dur
            entry["self_s"] += dur - child_time[i]
            if parent < 0:
                top += dur
        return {
            "layers": layers,
            "top_busy_s": top,
            "verdicts": dict(self.verdicts),
            "probes": self.probes,
            "sat_probes": self.sat_probes,
            "proof_steps": self.proof_steps,
            "missing": list(self.missing),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for layer, start, end, parent in self.spans:
                f.write(json.dumps({"layer": layer, "start": start,
                                    "end": end, "parent": parent}) + "\n")


def _sat_results() -> float:
    from repro.obs import metrics

    return metrics().counter("smt.result.sat").value


def _observe_verifier(rec: Recorder, result, _mark) -> None:
    if getattr(result, "counterexample", None) is not None:
        rec.verdicts["sat"] += 1
    elif getattr(result, "verified", False):
        rec.verdicts["unsat"] += 1
    else:
        rec.verdicts["unknown"] += 1


def _observe_optimize(rec: Recorder, result, mark) -> None:
    rec.probes += int(getattr(result, "probes", 0))
    rec.sat_probes += int(_sat_results() - mark)


def _observe_trust(rec: Recorder, result, _mark) -> None:
    rec.proof_steps += int(getattr(result, "steps", 0))


_OBSERVERS = {
    "verifier": _observe_verifier,
    "smt.optimize": _observe_optimize,
    "trust.check": _observe_trust,
}


def install() -> Recorder:
    """Patch every reachable target; unreachable ones land in ``missing``."""
    rec = Recorder()
    for layer, module_name, class_name, attrs in TARGETS:
        prefix = f"{module_name}.{class_name}" if class_name else module_name
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
        except (ImportError, AttributeError):
            owner = None
        for attr in attrs:
            fn = getattr(owner, attr, None)
            if not callable(fn):
                rec.missing.append(f"{prefix}.{attr}")
                continue
            setattr(owner, attr, rec.wrap(layer, fn))
    return rec
