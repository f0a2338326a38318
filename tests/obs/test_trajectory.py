"""The committed benchmark trajectory and its regression gate."""

import copy
import json

import pytest

from repro.obs.trajectory import (
    append_entry,
    is_trajectory,
    latest_comparable,
    load_history,
    regressions,
    summarize_report,
)

REPORT = {
    "bench": "engine",
    "quick": True,
    "ok": True,
    "compile": {"pipeline_s": 2.0, "raw_s": 4.0, "speedup": 2.0},
    "cache": {"cold_s": 3.0, "warm_s": 0.5, "speedup": 6.0},
    "proof": {"certify_s": 2.5},
    "portfolio": {"jobs_1": {"wall_s": 10.0}, "jobs_4": {"wall_s": 4.0}},
}


class TestSummarize:
    def test_extracts_tracked_metrics(self):
        entry = summarize_report(REPORT)
        assert entry["ok"] and entry["quick"]
        m = entry["metrics"]
        assert m["compile.pipeline_s"] == 2.0
        assert m["portfolio.jobs_4.wall_s"] == 4.0
        assert m["cache.speedup"] == 6.0

    def test_missing_paths_skipped(self):
        entry = summarize_report({"bench": "engine", "ok": True})
        assert entry["metrics"] == {}


class TestHistory:
    def test_append_creates_and_grows(self, tmp_path):
        path = str(tmp_path / "BENCH_engine.json")
        e1 = append_entry(path, REPORT, git_sha="abc1234")
        assert e1["git_sha"] == "abc1234"
        assert e1["ts"].endswith("Z")
        append_entry(path, REPORT, git_sha="def5678")
        data = json.loads(open(path).read())
        assert is_trajectory(data)
        assert [e["git_sha"] for e in data["history"]] == ["abc1234", "def5678"]

    def test_append_stamps_head_sha_by_default(self, tmp_path):
        # the repo under test is a git checkout, so HEAD resolves
        path = str(tmp_path / "BENCH_engine.json")
        entry = append_entry(path, REPORT)
        assert entry["git_sha"]  # "unknown" outside a checkout, never empty

    def test_missing_file_is_empty_history(self, tmp_path):
        trajectory = load_history(str(tmp_path / "nope.json"))
        assert trajectory == {"bench": "engine", "history": []}

    def test_legacy_single_report_converted(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text(json.dumps(REPORT))
        trajectory = load_history(str(path))
        assert len(trajectory["history"]) == 1
        assert trajectory["history"][0]["git_sha"] == "pre-trajectory"
        assert not is_trajectory(str(path))  # the file itself is untouched

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        path.write_text('{"neither": "report nor trajectory"}')
        with pytest.raises(ValueError):
            load_history(str(path))

    def test_latest_comparable_prefers_matching_scale(self, tmp_path):
        path = str(tmp_path / "t.json")
        full = copy.deepcopy(REPORT)
        full["quick"] = False
        append_entry(path, REPORT, git_sha="quick1")
        append_entry(path, full, git_sha="full1")
        trajectory = load_history(path)
        assert latest_comparable(trajectory, quick=True)["git_sha"] == "quick1"
        assert latest_comparable(trajectory, quick=False)["git_sha"] == "full1"
        assert latest_comparable({"history": []}, quick=True) is None


class TestRegressionGate:
    def baseline(self):
        entry = summarize_report(REPORT)
        entry["git_sha"] = "base"
        return entry

    def test_identical_run_passes(self):
        failures, rows = regressions(REPORT, self.baseline())
        assert failures == []
        assert rows  # every tracked metric compared

    def test_thirty_percent_slowdown_fails_default_gate(self):
        slow = copy.deepcopy(REPORT)
        slow["portfolio"]["jobs_4"]["wall_s"] = 4.0 * 1.30
        failures, _ = regressions(slow, self.baseline())
        assert [f["metric"] for f in failures] == ["portfolio.jobs_4.wall_s"]
        assert failures[0]["delta_pct"] == pytest.approx(30.0)

    def test_gate_threshold_is_configurable(self):
        slow = copy.deepcopy(REPORT)
        slow["portfolio"]["jobs_4"]["wall_s"] = 4.0 * 1.30
        failures, _ = regressions(slow, self.baseline(), max_regress_pct=50.0)
        assert failures == []

    def test_speedup_ratio_below_one_fails(self):
        bad = copy.deepcopy(REPORT)
        bad["cache"]["speedup"] = 0.9
        failures, _ = regressions(bad, self.baseline())
        assert [f["metric"] for f in failures] == ["cache.speedup"]

    def test_not_ok_report_fails_regardless_of_timings(self):
        bad = copy.deepcopy(REPORT)
        bad["ok"] = False
        failures, _ = regressions(bad, self.baseline())
        assert any(f["kind"] == "gate" for f in failures)

    def test_metrics_missing_from_baseline_not_compared(self):
        failures, rows = regressions(
            REPORT, {"git_sha": "old", "metrics": {}}
        )
        assert failures == []
        timing_rows = [r for r in rows if r["kind"] == "timing"]
        assert timing_rows == []
