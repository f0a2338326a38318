"""JSONL round-trip: write a trace, parse it back, render the report."""

import io
import json

from repro.obs import JsonlSink, Tracer
from repro.obs.report import load_trace, parse_trace, render_report


def make_trace() -> io.StringIO:
    tr = Tracer()
    buf = io.StringIO()
    tr.add_sink(JsonlSink(buf))
    tr.meta(argv=["synthesize", "--space", "x"], version="test")
    with tr.span("cegis.run"):
        for i in (1, 2):
            with tr.span("cegis.generate") as s:
                s.set_duration(0.25)
            with tr.span("cegis.verify") as s:
                s.set_duration(0.5)
        tr.event("cegis.counterexample", iter=1)
        tr.event("cegis.solution", iter=2)
        tr.event(
            "cegis.done",
            iterations=2, counterexamples=1, solutions=1,
            generator_time=0.5, verifier_time=1.0,
        )
    tr.emit_metrics({"counters": {"smt.checks": 4},
                     "gauges": {},
                     "histograms": {"smt.check_time":
                                    {"count": 4, "total": 1.0, "mean": 0.25,
                                     "min": 0.1, "max": 0.4}}})
    buf.seek(0)
    return buf


class TestRoundTrip:
    def test_every_line_is_json(self):
        buf = make_trace()
        for line in buf.read().splitlines():
            json.loads(line)

    def test_parse_aggregates_spans_and_events(self):
        summary = load_trace(make_trace())
        assert summary.malformed == 0
        gen = summary.spans["cegis.generate"]
        ver = summary.spans["cegis.verify"]
        assert gen.count == 2 and gen.total == 0.5
        assert ver.count == 2 and ver.total == 1.0
        assert summary.events["cegis.counterexample"] == 1
        assert summary.cegis_done["iterations"] == 2
        assert summary.metrics["counters"]["smt.checks"] == 4

    def test_span_totals_match_recorded_stats(self):
        summary = load_trace(make_trace())
        done = summary.cegis_done
        assert abs(summary.span_total("cegis.generate") - done["generator_time"]) \
            <= 0.05 * done["generator_time"]
        assert abs(summary.span_total("cegis.verify") - done["verifier_time"]) \
            <= 0.05 * done["verifier_time"]

    def test_render_report_contains_phases_and_agreement(self):
        out = render_report(load_trace(make_trace()))
        assert "cegis.generate" in out and "cegis.verify" in out
        assert "iterations=2" in out
        assert "agreement" in out
        assert "smt.checks" in out

    def test_malformed_lines_tolerated(self):
        summary = parse_trace(["not json at all", '{"type": "event", "name": "e"}'])
        assert summary.malformed == 1
        assert summary.events["e"] == 1

    def test_empty_trace(self):
        summary = parse_trace([])
        out = render_report(summary)
        assert "records: 0" in out


class TestTornLines:
    """A SIGKILLed writer (or the flight recorder dumping mid-disaster)
    leaves truncated, interleaved, or otherwise damaged lines; every one
    must be skipped-with-count, never raised."""

    GOOD = '{"type": "event", "name": "ok"}'

    def test_truncated_line_skipped(self):
        torn = '{"type": "span", "name": "cegis.ver'
        summary = parse_trace([self.GOOD, torn])
        assert summary.malformed == 1
        assert summary.events["ok"] == 1

    def test_interleaved_writes_skipped(self):
        # two line-buffered writers racing one fd: records fused mid-line
        fused = '{"type": "event", "na{"type": "span", "name": "x", "dur": 1}'
        summary = parse_trace([fused, self.GOOD])
        assert summary.malformed == 1 and summary.records == 1

    def test_non_object_json_lines_skipped(self):
        summary = parse_trace(["42", "null", '"a string"', "[1, 2]", self.GOOD])
        assert summary.malformed == 4
        assert summary.events["ok"] == 1

    def test_structurally_wrong_record_skipped(self):
        bad_dur = '{"type": "span", "name": "x", "dur": {"oops": true}}'
        summary = parse_trace([bad_dur, self.GOOD])
        assert summary.malformed == 1
        assert "x" not in summary.spans or summary.spans["x"].count == 0

    def test_blank_lines_ignored_silently(self):
        summary = parse_trace(["", "   ", self.GOOD, "\n"])
        assert summary.malformed == 0 and summary.records == 1

    def test_partially_written_file_on_disk(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        with open(path, "w") as f:
            f.write(self.GOOD + "\n")
            f.write('{"type": "metrics", "snapsho')  # killed mid-write
        summary = load_trace(str(path))
        assert summary.malformed == 1 and summary.events["ok"] == 1

    def test_render_reports_malformed_count(self):
        out = render_report(parse_trace(["{torn", self.GOOD]))
        assert "1 malformed lines skipped" in out


class TestWorkerLanes:
    def make_lane_trace(self):
        return [
            json.dumps(r) for r in [
                {"type": "span", "name": "cegis.verify", "id": 1,
                 "parent": None, "depth": 0, "ts": 0.0, "dur": 2.0,
                 "lvl": 20, "attrs": {}},
                {"type": "span", "name": "runtime.worker", "id": 2,
                 "parent": 1, "depth": 1, "ts": 0.0, "dur": 1.9, "lvl": 20,
                 "attrs": {"worker": "w0", "status": "ok"}},
                {"type": "span", "name": "worker.run", "id": 3, "parent": 2,
                 "depth": 2, "ts": 0.0, "dur": 1.5, "lvl": 20,
                 "attrs": {"worker": "w0"}},
                {"type": "span", "name": "runtime.worker", "id": 4,
                 "parent": 1, "depth": 1, "ts": 0.0, "dur": 0.4, "lvl": 20,
                 "attrs": {"worker": "w1", "status": "timeout"}},
            ]
        ]

    def test_lanes_aggregated(self):
        summary = parse_trace(self.make_lane_trace())
        assert set(summary.workers) == {"w0", "w1"}
        w0 = summary.workers["w0"]
        assert w0.runs == 1 and w0.busy == 1.5 and w0.kills == 0
        assert summary.workers["w1"].kills == 1

    def test_pool_kill_event_counts_on_its_lane(self):
        lines = self.make_lane_trace() + [json.dumps({
            "type": "event", "name": "service.pool.kill", "span": 1,
            "ts": 0.0, "lvl": 20,
            "attrs": {"worker": "p1", "status": "oom", "task": "b1:0:a0"},
        })]
        summary = parse_trace(lines)
        assert summary.workers["p1"].kills == 1
        assert summary.workers["p1"].records == 1
        out = render_report(summary)
        assert "p1" in out

    def test_lanes_rendered_with_occupancy(self):
        out = render_report(parse_trace(self.make_lane_trace()))
        assert "workers (2 lanes" in out
        assert "w0" in out and "w1" in out
        assert "parallel occupancy" in out

    def test_cache_section_rendered_from_counters(self):
        lines = [json.dumps({
            "type": "metrics",
            "snapshot": {
                "counters": {"engine.cache.hits": 30,
                             "engine.cache.misses": 10,
                             "engine.cache.disk_hits": 5,
                             "engine.cache.quarantined": 1},
                "gauges": {}, "histograms": {},
            },
        })]
        out = render_report(parse_trace(lines))
        assert "cache:" in out
        assert "hits=30 misses=10 disk_hits=5 quarantined=1" in out
        assert "hit rate 75.0%" in out

    def test_certify_line_rendered(self):
        lines = [
            json.dumps({"type": "span", "name": "cegis.verify", "id": 1,
                        "parent": None, "depth": 0, "ts": 0.0, "dur": 4.0,
                        "lvl": 20, "attrs": {}}),
            json.dumps({"type": "metrics", "snapshot": {
                "counters": {"trust.proofs.checked": 3},
                "gauges": {},
                "histograms": {"trust.check_time":
                               {"count": 3, "total": 1.0, "mean": 0.33,
                                "min": 0.1, "max": 0.5}},
            }}),
        ]
        out = render_report(parse_trace(lines))
        assert "certify: 3 proof(s) independently checked" in out
        assert "25.0% of verify time" in out

    def test_relay_line_rendered(self):
        lines = [json.dumps({"type": "metrics", "snapshot": {
            "counters": {"obs.relay.frames": 4,
                         "obs.relay.dropped_frames": 1},
            "gauges": {}, "histograms": {},
        }})]
        out = render_report(parse_trace(lines))
        assert "telemetry relay: 4 frame(s) merged, 1 dropped" in out
