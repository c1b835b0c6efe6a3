"""perfbench history/delta bookkeeping (no actual benchmarking)."""

from repro.harness import perfbench


def payload(cps=1000, wall=2.0, scenarios=("a", "b")):
    return {
        "bench": "core_throughput",
        "repeats": 1,
        "scenarios": {
            label: {"workload": label, "controller": "none",
                    "simulated_cycles": 100, "committed": 50,
                    "wall_seconds": wall, "cycles_per_second": cps}
            for label in scenarios},
        "total_simulated_cycles": 100 * len(scenarios),
        "total_wall_seconds": wall * len(scenarios),
        "cycles_per_second": cps,
    }


class TestHistory:
    def test_append_records_the_essentials(self):
        fresh = payload()
        fresh["fig7_quick_sweep"] = {"preset": "fig7 --quick",
                                     "trials": 4, "workers": 1,
                                     "wall_seconds": 3.5}
        entry = perfbench.append_history(fresh)
        assert fresh["history"] == [entry]
        assert entry["cycles_per_second"] == 1000
        assert entry["fig7_quick_seconds"] == 3.5
        assert entry["scenarios"]["a"] == {"cycles_per_second": 1000,
                                           "wall_seconds": 2.0}
        assert "T" in entry["recorded_at"]          # ISO-8601 stamp

    def test_append_accumulates_and_caps(self):
        fresh = payload()
        for _ in range(perfbench.HISTORY_LIMIT + 10):
            perfbench.append_history(fresh)
        assert len(fresh["history"]) == perfbench.HISTORY_LIMIT

    def test_history_survives_dump_load(self, tmp_path):
        fresh = payload()
        perfbench.append_history(fresh)
        path = tmp_path / "bench.json"
        perfbench.dump_payload(fresh, path)
        loaded = perfbench.load_payload(path)
        assert loaded["history"] == fresh["history"]


class TestRenderDelta:
    def test_relative_change_per_scenario(self):
        base = payload(cps=1000)
        fresh = payload(cps=1100)
        table = perfbench.render_delta(fresh, base)
        assert "+10.0%" in table
        assert "total" in table

    def test_new_and_gone_scenarios_are_flagged(self):
        base = payload(scenarios=("a", "gone"))
        fresh = payload(scenarios=("a", "new"))
        table = perfbench.render_delta(fresh, base)
        assert "new" in table
        assert "gone" in table

    def test_zero_baseline_does_not_divide(self):
        table = perfbench.render_delta(payload(cps=500), payload(cps=0))
        assert "+0.0%" in table


class TestCompare:
    def test_stepped_cycles_must_match_exactly(self):
        base, fresh = payload(), payload()
        for record in base["scenarios"].values():
            record["stepped_cycles"] = 60
        for record in fresh["scenarios"].values():
            record["stepped_cycles"] = 61
        problems = perfbench.compare(fresh, base, tolerance=1.0)
        assert problems == [f"{label}: stepped cycles changed 60 -> 61 "
                            "(step schedule changed)" for label in "ab"]

    def test_tolerance_one_checks_the_counts_alone(self):
        slow, fast = payload(cps=1), payload(cps=1000)
        assert perfbench.compare(slow, fast, tolerance=1.0) == []
        assert perfbench.compare(slow, fast, tolerance=0.2)


def test_steps_are_counted_outside_the_timed_runs():
    from repro.pipeline.core import Core

    step = Core.step
    record = perfbench.measure_scenario("reference", "none", repeats=1)
    assert Core.step is step
    assert 0 < record["stepped_cycles"] <= record["simulated_cycles"]
    assert record["skipped_share"] == round(
        1 - record["stepped_cycles"] / record["simulated_cycles"], 4)
    assert record["us_per_stepped_cycle"] > 0
    assert record["us_per_dispatched"] > 0
    payload = {"scenarios": {"reference": record},
               "total_simulated_cycles": record["simulated_cycles"],
               "total_wall_seconds": record["wall_seconds"],
               "cycles_per_second": record["cycles_per_second"]}
    assert "us/step" in perfbench.render(payload)
