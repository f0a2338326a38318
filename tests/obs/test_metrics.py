"""Tests of the metrics registry and its wiring into the SMT solver."""

from repro.obs import MetricsRegistry, metrics
from repro.smt import Real, Solver, sat, unsat


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        reg.gauge("g").set(7)
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(4.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7
        h = snap["histograms"]["h"]
        assert h["count"] == 2 and h["total"] == 6.0
        assert h["mean"] == 3.0 and h["min"] == 2.0 and h["max"] == 4.0

    def test_reset_preserves_handles(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(3)
        reg.reset()
        assert c.value == 0
        c.inc()  # the old handle still feeds the registry
        assert reg.snapshot()["counters"]["c"] == 1

    def test_same_name_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("x") is reg.histogram("x")


class TestSolverWiring:
    """The global registry accumulates per-check deltas across Solver
    instances (the solver itself keeps only ``Solver.checks``)."""

    def _snapshot_counters(self):
        return dict(metrics().snapshot()["counters"])

    def test_deltas_accumulate_across_instances(self):
        before = self._snapshot_counters()
        total_conflicts = 0
        for _ in range(2):
            s = Solver()
            xs = [Real(f"m_acc{i}") for i in range(6)]
            for a, b in zip(xs, xs[1:]):
                s.add(b >= a + 1)
            s.add(xs[0] >= 0, xs[-1] <= 2)  # unsat chain
            core = s.sat_core
            c0 = core.conflicts
            assert s.check() is unsat
            total_conflicts += core.conflicts - c0
        after = self._snapshot_counters()
        assert after["smt.checks"] - before.get("smt.checks", 0) == 2
        assert (
            after["smt.conflicts"] - before.get("smt.conflicts", 0)
            == total_conflicts
        )

    def test_known_small_query_delta_correctness(self):
        """Per-check deltas must equal the SAT core's own counter moves."""
        s = Solver()
        x, y = Real("m_dx"), Real("m_dy")
        s.add(x + y <= 4, x >= 1, y >= 2)
        core = s.sat_core
        c0, d0, p0 = core.conflicts, core.decisions, core.propagations
        before = self._snapshot_counters()
        assert s.check() is sat
        after = self._snapshot_counters()

        def moved(name):
            return after.get(name, 0) - before.get(name, 0)

        assert moved("smt.conflicts") == core.conflicts - c0
        assert moved("smt.decisions") == core.decisions - d0
        assert moved("smt.propagations") == core.propagations - p0
        assert moved("smt.checks") == 1
        assert s.checks == 1

    def test_result_counters(self):
        before = self._snapshot_counters()
        s = Solver()
        x = Real("m_rx")
        s.add(x >= 1)
        assert s.check() is sat
        s.add(x <= 0)
        assert s.check() is unsat
        after = self._snapshot_counters()
        assert after["smt.result.sat"] - before.get("smt.result.sat", 0) == 1
        assert after["smt.result.unsat"] - before.get("smt.result.unsat", 0) == 1
