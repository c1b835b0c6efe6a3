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


class TestCheckerRows:
    def _with_checker(self, window_steps=200, us=2.0):
        p = payload()
        p["checker"] = {"checker/x": {
            "target": "x", "defense": "original", "arch_steps": 10,
            "window_steps": window_steps, "wall_seconds": 0.1,
            "us_per_step": us}}
        return p

    def test_step_counts_must_match_exactly(self):
        problems = perfbench.compare(self._with_checker(window_steps=201),
                                     self._with_checker(), tolerance=1.0)
        assert problems == ["checker/x: window_steps changed 200 -> 201 "
                            "(checker behaviour changed)"]

    def test_tolerance_bounds_the_cost_per_step(self):
        slow, fast = self._with_checker(us=9.0), self._with_checker(us=2.0)
        assert perfbench.compare(slow, fast, tolerance=1.0) == []
        assert perfbench.compare(slow, fast, tolerance=0.2)
        assert perfbench.compare(fast, slow, tolerance=0.2) == []

    def test_missing_and_vanished_rows_are_flagged(self):
        assert perfbench.compare(self._with_checker(), payload()) == \
            ["checker/x: missing from baseline"]
        assert perfbench.compare(payload(), self._with_checker()) == \
            ["checker/x: scenario disappeared"]

    def test_history_keeps_the_cost_per_step(self):
        entry = perfbench.append_history(self._with_checker())
        assert entry["checker"] == {
            "checker/x": {"us_per_step": 2.0, "wall_seconds": 0.1}}


def test_checker_row_counts_the_steps_of_one_check():
    from repro.verify import check_program
    from repro.verify.targets import build_target

    record = perfbench.measure_checker("stale-store", "original",
                                       repeats=1)
    case = build_target("stale-store")
    result = check_program(case.program, case.image,
                           secret_addrs=case.secret_addrs,
                           initial_sp=case.initial_sp, defense="original")
    assert (record["arch_steps"], record["window_steps"]) == \
        (result.arch_steps, result.window_steps)
    assert record["us_per_step"] > 0
    table = perfbench.render({**payload(scenarios=()),
                              "checker": {"checker/stale": record}})
    assert "checker/stale" in table


class TestConstructionRows:
    def _with_construct(self, units=1502, us=0.05):
        p = payload()
        p["construct"] = {"construct/x": {
            "unit": "instruction", "units": units, "wall_seconds": 0.01,
            "us_per_unit": us}}
        return p

    def test_unit_counts_must_match_exactly(self):
        problems = perfbench.compare(self._with_construct(units=1503),
                                     self._with_construct(), tolerance=1.0)
        assert problems == ["construct/x: instruction count changed 1502 "
                            "-> 1503 (what is built changed)"]

    def test_tolerance_bounds_the_cost_per_unit(self):
        slow, fast = self._with_construct(us=0.5), self._with_construct()
        assert perfbench.compare(slow, fast, tolerance=1.0) == []
        assert perfbench.compare(slow, fast, tolerance=0.2)
        assert perfbench.compare(fast, slow, tolerance=0.2) == []

    def test_missing_and_vanished_rows_are_flagged(self):
        assert perfbench.compare(self._with_construct(), payload()) == \
            ["construct/x: missing from baseline"]
        assert perfbench.compare(payload(), self._with_construct()) == \
            ["construct/x: scenario disappeared"]

    def test_history_keeps_the_cost_per_unit(self):
        entry = perfbench.append_history(self._with_construct())
        assert entry["construct"] == {"construct/x": {"us_per_unit": 0.05}}


def test_construction_rows_count_what_they_build():
    from repro.isa import Opcode, assemble

    rows = perfbench.measure_construction(repeats=1)
    assert set(rows) == {"construct/core-paper", "construct/assemble-sled"}
    assert rows["construct/core-paper"]["units"] == 1
    sled = assemble(perfbench.SLED_SOURCE)
    assert rows["construct/assemble-sled"]["units"] == len(sled) == 1502
    assert sum(i.opcode is Opcode.NOP for i in sled) == 1500
    assert all(row["us_per_unit"] > 0 for row in rows.values())
    table = perfbench.render({**payload(scenarios=()), "construct": rows})
    assert "construct/assemble-sled" in table
