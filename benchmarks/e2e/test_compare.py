"""compare.py verdicts under the bounds in BENCHMARK.json, and the
percentile helper both scripts report with."""

import copy
import json
import os

import compare
from summary import p90, summarize

with open(os.path.join(compare.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    METRICS = {m["name"]: m for m in json.load(f)["end_to_end"]}

STEADY = [5.00, 5.01, 4.99, 5.02, 4.98, 5.00, 5.01, 4.99, 5.00, 5.00]


def _summary(values):
    return {**summarize(values), "values": list(values)}


def _results(values=STEADY, fail_frac=0.0, pivots=4423):
    return {"workloads": {"prove": {
        "fail_frac": fail_frac,
        "end_to_end": {name: _summary(values) for name in METRICS},
        "times": {"prove_T9_s": _summary(values)},
        "counts": {"smt.pivots": [pivots]},
    }}}


def _exit_code(tmp_path, a, b):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a))
    pb.write_text(json.dumps(b))
    return compare.main([str(pa), str(pb)])


def test_ten_percent_slowdown_is_worse():
    wall = METRICS["wall_s"]
    assert wall["bound"] <= 0.10
    for factor, expected in ((1.101, "worse"), (1.09, "same")):
        slower = _summary([v * factor for v in STEADY])
        assert compare.verdict(_summary(STEADY), slower, wall) == expected


def test_identical_inputs_are_same(tmp_path):
    for metric in METRICS.values():
        assert compare.verdict(_summary(STEADY), _summary(STEADY), metric) == "same"
    assert _exit_code(tmp_path, _results(), _results()) == 0


def test_wide_interquartile_range_is_unresolved():
    wide = [3.0, 7.0, 3.5, 6.5, 5.0, 4.0, 6.0, 4.5, 5.5, 5.0]  # IQR 45%
    verdict = compare.verdict(_summary(STEADY), _summary(wide), METRICS["wall_s"])
    assert verdict == "unresolved"


def test_percentile_helper_needs_ten_samples_beyond():
    assert p90(range(99)) is None
    assert p90(range(100)) is not None


def test_workload_timing_slowdown_fails_the_comparison(tmp_path):
    b = _results()
    b["workloads"]["prove"]["times"]["prove_T9_s"] = _summary(
        [v * 1.11 for v in STEADY])
    rows, _ = compare.compare(_results(), b, list(METRICS.values()))
    assert ("prove", "prove_T9_s") in {(r[0], r[1]) for r in rows if r[-1] == "worse"}
    assert _exit_code(tmp_path, _results(), b) == 1


def test_higher_fail_frac_fails_the_comparison(tmp_path):
    assert _exit_code(tmp_path, _results(), _results(fail_frac=0.25)) == 1


def test_changed_exact_count_fails_the_comparison(tmp_path):
    assert _exit_code(tmp_path, _results(), _results(pivots=4424)) == 1


def test_missing_workload_or_metric_fails_the_comparison(tmp_path):
    other_workload = {"workloads": {"t1_rp": _results()["workloads"]["prove"]}}
    assert _exit_code(tmp_path, _results(), other_workload) == 1
    for section, name in (("end_to_end", "wall_s"), ("times", "prove_T9_s"),
                          ("counts", "smt.pivots")):
        partial = copy.deepcopy(_results())
        del partial["workloads"]["prove"][section][name]
        assert _exit_code(tmp_path, _results(), partial) == 1
