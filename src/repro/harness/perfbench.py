"""Core-throughput measurement: simulated cycles per wall-clock second.

The perf trajectory for the simulator hot path.  Three machines —
normal (no runahead), original runahead, and secure runahead — run three
representative kernels (compute-bound ``zeusmp``, pointer-chasing
``mcf``, streaming ``gems``); each scenario reports its simulated cycle
count, best-of-N wall seconds, and the derived cycles/second.

Cycles/second credits cycle skipping as speed, so each scenario also
reports the cycles the core actually stepped, the skipped share, and
wall microseconds per stepped cycle and per dispatched instruction.
The steps are counted in one extra run with ``Core.step`` wrapped in a
counter; the timed runs never go through the wrapper.

``python -m repro bench-perf`` emits these measurements as
``BENCH_core.json`` at the repo root and can compare a fresh run
against a committed baseline with a relative tolerance (the CI perf job
does exactly that, non-blocking, at ±20 %).

Wall-clock numbers are machine- and load-dependent by nature; the
committed baseline pins the expected throughput on CI-class hardware,
while behavioural equality is pinned separately by the golden-stats
tests (``tests/pipeline/test_golden_stats.py``).
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Tuple

from ..pipeline.core import Core
from .registry import get_workload, make_controller

#: (bench label, workload name, controller name).
SCENARIOS: Tuple[Tuple[str, str, str], ...] = (
    ("normal/zeusmp", "zeusmp", "none"),
    ("normal/mcf", "mcf", "none"),
    ("normal/gems", "gems", "none"),
    ("runahead/zeusmp", "zeusmp", "original"),
    ("runahead/mcf", "mcf", "original"),
    ("runahead/gems", "gems", "original"),
    ("secure/zeusmp", "zeusmp", "secure"),
    ("secure/mcf", "mcf", "secure"),
    ("secure/gems", "gems", "secure"),
)


def measure_scenario(workload_name: str, controller_name: str,
                     repeats: int = 3) -> Dict:
    """Run one scenario ``repeats`` times; report the best throughput.

    Best-of-N is the standard wall-clock protocol: it filters scheduler
    noise while staying a single-number summary.  Simulated cycles are
    identical across repeats (the simulator is deterministic), so only
    the wall time varies.
    """
    workload = get_workload(workload_name)
    best_wall: Optional[float] = None
    cycles = committed = dispatched = 0
    for _ in range(repeats):
        controller = make_controller(controller_name)
        start = time.perf_counter()
        core = workload.run(runahead=controller)
        wall = time.perf_counter() - start
        cycles = core.stats.cycles
        committed = core.stats.committed
        dispatched = core.stats.dispatched
        if best_wall is None or wall < best_wall:
            best_wall = wall
    steps = count_steps(workload, controller_name)
    return {
        "workload": workload_name,
        "controller": controller_name,
        "simulated_cycles": cycles,
        "stepped_cycles": steps,
        "skipped_share": round(1 - steps / cycles, 4) if cycles else 0.0,
        "committed": committed,
        "dispatched": dispatched,
        "wall_seconds": round(best_wall, 4),
        "cycles_per_second": round(cycles / best_wall) if best_wall else 0,
        "us_per_stepped_cycle": round(1e6 * best_wall / steps, 3)
        if steps else 0.0,
        "us_per_dispatched": round(1e6 * best_wall / dispatched, 3)
        if dispatched else 0.0,
    }


def count_steps(workload, controller_name: str) -> int:
    """``Core.step`` calls of one untimed run of the scenario."""
    steps = 0
    step = Core.step

    def counted(core):
        nonlocal steps
        steps += 1
        step(core)

    Core.step = counted
    try:
        workload.run(runahead=make_controller(controller_name))
    finally:
        Core.step = step
    return steps


def run_benchmark(repeats: int = 3) -> Dict:
    """Measure every scenario; returns the ``BENCH_core`` payload."""
    scenarios = {}
    total_cycles = 0
    total_wall = 0.0
    for label, workload_name, controller_name in SCENARIOS:
        record = measure_scenario(workload_name, controller_name,
                                  repeats=repeats)
        scenarios[label] = record
        total_cycles += record["simulated_cycles"]
        total_wall += record["wall_seconds"]
    return {
        "bench": "core_throughput",
        "repeats": repeats,
        "scenarios": scenarios,
        "total_simulated_cycles": total_cycles,
        "total_wall_seconds": round(total_wall, 4),
        "cycles_per_second": round(total_cycles / total_wall)
        if total_wall else 0,
    }


def measure_fig7_quick(workers: int = 1) -> Dict:
    """Wall-time the Fig. 7 quick IPC sweep end to end (cache disabled).

    This is the headline number of the hot-path optimization issue: the
    sweep that every CI run and local iteration waits on.
    """
    from . import presets as preset_registry
    from .executor import run_sweep

    sweep = preset_registry.get("fig7").build(quick=True)
    start = time.perf_counter()
    result = run_sweep(sweep, workers=workers, cache=None)
    wall = time.perf_counter() - start
    return {
        "preset": "fig7 --quick",
        "trials": len(result.records),
        "workers": workers,
        "wall_seconds": round(wall, 4),
    }


def render(payload: Dict) -> str:
    """Human-readable table of one benchmark payload."""
    lines = [f"{'scenario':18s} {'cycles':>10s} {'stepped':>9s} "
             f"{'skipped':>8s} {'wall s':>8s} {'cycles/s':>12s} "
             f"{'us/step':>8s} {'us/disp':>8s}"]
    for label, record in payload["scenarios"].items():
        lines.append(f"{label:18s} {record['simulated_cycles']:>10d} "
                     f"{record['stepped_cycles']:>9d} "
                     f"{record['skipped_share']:>8.1%} "
                     f"{record['wall_seconds']:>8.3f} "
                     f"{record['cycles_per_second']:>12d} "
                     f"{record['us_per_stepped_cycle']:>8.2f} "
                     f"{record['us_per_dispatched']:>8.2f}")
    lines.append(f"{'total':18s} {payload['total_simulated_cycles']:>10d} "
                 f"{'':>9s} {'':>8s} "
                 f"{payload['total_wall_seconds']:>8.3f} "
                 f"{payload['cycles_per_second']:>12d}")
    return "\n".join(lines)


def compare(fresh: Dict, baseline: Dict, tolerance: float = 0.2) -> List[str]:
    """Compare a fresh payload against a baseline.

    Returns a list of regression messages (empty = within tolerance).
    Simulated and stepped cycle counts must match *exactly* (they are
    deterministic: the model's behaviour and its step schedule, not
    performance); throughput may regress by at most ``tolerance``
    relative to the baseline.  Faster-than-baseline is never a failure,
    so ``tolerance=1`` checks the counts alone.
    """
    problems = []
    base_scenarios = baseline.get("scenarios", {})
    for label, record in fresh.get("scenarios", {}).items():
        base = base_scenarios.get(label)
        if base is None:
            problems.append(f"{label}: missing from baseline")
            continue
        if record["simulated_cycles"] != base["simulated_cycles"]:
            problems.append(
                f"{label}: simulated cycles changed "
                f"{base['simulated_cycles']} -> "
                f"{record['simulated_cycles']} (behaviour regression!)")
        if record.get("stepped_cycles") != base.get("stepped_cycles"):
            problems.append(
                f"{label}: stepped cycles changed "
                f"{base.get('stepped_cycles')} -> "
                f"{record.get('stepped_cycles')} (step schedule changed)")
        floor = base["cycles_per_second"] * (1.0 - tolerance)
        if record["cycles_per_second"] < floor:
            problems.append(
                f"{label}: throughput {record['cycles_per_second']}/s "
                f"below tolerance floor {floor:.0f}/s "
                f"(baseline {base['cycles_per_second']}/s)")
    for label in base_scenarios:
        if label not in fresh.get("scenarios", {}):
            problems.append(f"{label}: scenario disappeared")
    return problems


#: History entries kept per payload — enough to read a trend without
#: letting BENCH_core.json grow without bound.
HISTORY_LIMIT = 24


def history_entry(payload: Dict) -> Dict:
    """Condense one benchmark payload into a history line.

    Keeps only the numbers a trend reader needs: per-scenario
    throughput and wall time, the aggregate, and the fig7 quick-sweep
    wall time when measured.
    """
    entry = {
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "cycles_per_second": payload["cycles_per_second"],
        "total_wall_seconds": payload["total_wall_seconds"],
        "scenarios": {
            label: {
                "cycles_per_second": record["cycles_per_second"],
                "wall_seconds": record["wall_seconds"],
            }
            for label, record in payload.get("scenarios", {}).items()
        },
    }
    sweep = payload.get("fig7_quick_sweep")
    if sweep:
        entry["fig7_quick_seconds"] = sweep["wall_seconds"]
    return entry


def append_history(payload: Dict, limit: int = HISTORY_LIMIT) -> Dict:
    """Append this run to ``payload['history']`` (capped), in place.

    Every ``bench-perf`` run records itself, so the committed
    BENCH_core.json carries the recent per-scenario trajectory instead
    of a single point.  Returns the appended entry.
    """
    entry = history_entry(payload)
    history = list(payload.get("history", []))
    history.append(entry)
    payload["history"] = history[-limit:]
    return entry


def render_delta(fresh: Dict, baseline: Dict) -> str:
    """Per-scenario delta table of a fresh payload vs a baseline.

    Shows relative throughput change (positive = faster than the
    baseline).  Scenarios present on only one side are flagged rather
    than dropped.
    """
    lines = [f"{'scenario':18s} {'base c/s':>12s} {'fresh c/s':>12s} "
             f"{'delta':>8s}"]
    base_scenarios = baseline.get("scenarios", {})
    fresh_scenarios = fresh.get("scenarios", {})
    for label in sorted(set(base_scenarios) | set(fresh_scenarios)):
        base = base_scenarios.get(label)
        record = fresh_scenarios.get(label)
        if base is None:
            lines.append(f"{label:18s} {'-':>12s} "
                         f"{record['cycles_per_second']:>12d} {'new':>8s}")
            continue
        if record is None:
            lines.append(f"{label:18s} {base['cycles_per_second']:>12d} "
                         f"{'-':>12s} {'gone':>8s}")
            continue
        base_cps = base["cycles_per_second"]
        delta = ((record["cycles_per_second"] - base_cps) / base_cps
                 if base_cps else 0.0)
        lines.append(f"{label:18s} {base_cps:>12d} "
                     f"{record['cycles_per_second']:>12d} {delta:>+8.1%}")
    base_total = baseline.get("cycles_per_second", 0)
    fresh_total = fresh.get("cycles_per_second", 0)
    total_delta = ((fresh_total - base_total) / base_total
                   if base_total else 0.0)
    lines.append(f"{'total':18s} {base_total:>12d} {fresh_total:>12d} "
                 f"{total_delta:>+8.1%}")
    return "\n".join(lines)


def load_payload(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def dump_payload(payload: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
