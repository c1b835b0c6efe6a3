"""The repository benchmark: one command, three workloads.

    python3 e2ebench/run.py --workload paper-sweep --seed 0 --seconds 40 --trace 0

Run it from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics with nothing instrumented; with ``--trace 1`` it runs
the cold job twice untraced and once traced and prints the per-layer
metrics of the traced run.  Every run checks the workload's outputs.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed and 2
when the checkout holds no program to measure.  See README.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List

import jobs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (listed in .gitignore).
WORK_ROOT = ROOT / ".e2ebench"

#: Set-up is timed in at least this many fresh processes per run.
SETUP_PROBES = 5
#: After each cold job the warm job is repeated at least this often and
#: for at least this many seconds: one warm run takes well under a
#: second.
WARM_BURST_REPS = 3
WARM_BURST_SECONDS = 0.3

#: How a run's samples of each timing become its value.  The host's
#: speed drifts by up to 1.7x in stretches of seconds to tens of
#: seconds, and the drift only ever adds time, so the fastest of the
#: many cold and warm jobs of a run is the steadiest estimate of their
#: cost; each workload's cold job is sized (a few seconds) so that a run
#: holds ten or more of them.  Set-up, sampled in fresh processes,
#: reports its median.
SUMMARY = {"wall_s": min, "warm_wall_s": min, "setup_s": statistics.median}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "warm_wall_s": "s",
                    "peak_rss_mb": "MB"}


def _layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.startswith(("pipeline.us_", "verify.us_")):
        return "us"
    if name.endswith(("_share", "_util")):
        return "fraction"
    if name.endswith("_pct"):
        return "percentile"
    if name.endswith("_per_committed"):
        return "ratio"
    return "count"


def probe_setup(workload: str, seed: int, work: Path, tiny: bool) -> float:
    """Host seconds from starting a fresh interpreter until it reports
    the workload set up (``setup_probe.py``)."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload,
               str(seed), str(work), "1" if tiny else "0"]
    started = time.monotonic()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.monotonic() - started
        proc.stdout.read()
        code = proc.wait(timeout=60)
    shutil.rmtree(work, ignore_errors=True)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed


def peak_rss_mb() -> float:
    """Largest resident set of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Tally:
    """Trials attempted and failed across every pass of a run."""

    def __init__(self, n_trials: int):
        self.n_trials = n_trials
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def add(self, failed_indices, what: str) -> None:
        self.attempted += self.n_trials
        self.failed += len(failed_indices)
        if failed_indices:
            self.notes.append(f"{what}: {len(failed_indices)} trial(s) "
                              f"failed, first index {min(failed_indices)}")


def _run_pass(job, tally: Tally, what: str, reference=None, runner=None,
              expect_cached=False, golden=None):
    """Run the job once and check its outputs.  Returns the outcome, or
    None when the job raised (every trial of the pass counts failed)."""
    try:
        outcome = job.run(runner=runner)
    except Exception:  # reported as a failed pass; the run goes on
        traceback.print_exc()
        tally.add(set(range(tally.n_trials)), f"{what} raised")
        return None
    if reference is None:
        failed = jobs.check_records(job, outcome.text, golden)
    else:
        failed = jobs.differing(reference, outcome.text)
    want_cached = tally.n_trials if expect_cached else 0
    if outcome.cached != want_cached:
        tally.notes.append(f"{what}: {outcome.cached} cached trials, "
                           f"expected {want_cached}")
        failed = set(range(tally.n_trials))
    tally.add(failed, what)
    return outcome


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> Dict[str, Any]:
    """One benchmark run; returns the result object and extra facts."""
    work = WORK_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    golden = None if tiny or seed != jobs.DEFAULT_SEED \
        else jobs.load_golden()
    probes = itertools.count()

    def probe() -> float:
        return probe_setup(workload, seed, work / f"probe-{next(probes)}",
                           tiny)
    job = jobs.prepare(workload, seed, work / "job", tiny=tiny)
    tally = Tally(len(job.sweep.trials))
    try:
        if trace:
            metrics = _traced(job, tally, golden)
        else:
            samples = _untraced(job, tally, seconds, golden, probe)
            metrics = {name: SUMMARY[name](values)
                       for name, values in samples.items()}
            if metrics:
                metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        job.cleanup()
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": tally.failed == 0 and not tally.notes,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "notes": tally.notes}


def _untraced(job, tally: Tally, seconds: float, golden,
              probe) -> Dict[str, List[float]]:
    """Cold job repeated while another repetition fits in ``seconds``
    (at least once), each repetition followed by a burst of warm jobs
    and one set-up probe; the time left goes to more warm bursts and
    probes.  Every metric's samples so spread over the whole run rather
    than one stretch of it."""
    samples: Dict[str, List[float]] = {"wall_s": [], "warm_wall_s": [],
                                       "setup_s": [probe()]}
    begin = time.monotonic()
    reference = None
    while True:
        started = time.monotonic()
        if reference is not None:
            job.fresh()
        cold = samples["wall_s"]
        outcome = _run_pass(job, tally, f"cold #{len(cold) + 1}",
                            golden=golden if reference is None else None,
                            reference=reference)
        if outcome is None:
            return {}
        reference = reference or outcome.text
        cold.append(outcome.wall)
        if not _warm_burst(job, tally, reference, samples["warm_wall_s"]):
            return {}
        samples["setup_s"].append(probe())
        now = time.monotonic()
        if now + (now - started) - begin > seconds:
            break
    # The rest of the run goes to more warm jobs and set-up probes.
    extra = 0.0
    while time.monotonic() + extra - begin < seconds:
        started = time.monotonic()
        if not _warm_burst(job, tally, reference, samples["warm_wall_s"]):
            return {}
        samples["setup_s"].append(probe())
        extra = time.monotonic() - started
    while len(samples["setup_s"]) < SETUP_PROBES:
        samples["setup_s"].append(probe())
    for name, values in samples.items():
        print(f"# {name} samples ({len(values)}): "
              + " ".join(f"{value:.4g}" for value in values), file=sys.stderr)
    return samples


def _warm_burst(job, tally: Tally, reference: str,
                warm: List[float]) -> bool:
    """Warm jobs for WARM_BURST_SECONDS, at least WARM_BURST_REPS."""
    begin = time.monotonic()
    reps = 0
    while reps < WARM_BURST_REPS \
            or time.monotonic() - begin < WARM_BURST_SECONDS:
        job.warm()
        outcome = _run_pass(job, tally, f"warm #{len(warm) + 1}",
                            reference=reference, expect_cached=True)
        if outcome is None:
            return False
        warm.append(outcome.wall)
        reps += 1
    return True


def _traced(job, tally: Tally, golden) -> Dict[str, float]:
    """Two untraced cold jobs, then a traced cold and warm job whose
    results must be byte-identical to the untraced ones.  The faster
    untraced job is the base of the tracing overhead: the first job of
    a process also pays for warming the interpreter."""
    untraced = _run_pass(job, tally, "untraced cold", golden=golden)
    if untraced is None:
        return {}
    job.fresh()
    again = _run_pass(job, tally, "untraced cold #2",
                      reference=untraced.text)
    if again is None:
        return {}
    untraced_wall = min(untraced.wall, again.wall)
    span_dir = WORK_ROOT / "trace" / f"{job.workload}-seed{job.seed}"
    shutil.rmtree(span_dir, ignore_errors=True)
    job.fresh()
    runner = spans.worker_run_trial if job.is_campaign else None
    with spans.traced(span_dir):
        cold = _run_pass(job, tally, "traced cold", runner=runner,
                         reference=untraced.text)
        job.warm()
        warm = _run_pass(job, tally, "traced warm", runner=runner,
                         reference=untraced.text, expect_cached=True)
    if cold is None or warm is None:
        return {}
    print(f"# spans written to {span_dir}", file=sys.stderr)
    metrics = spans.layer_metrics(spans.load_span_files(span_dir),
                                  wall_s=cold.wall, workers=job.workers,
                                  started=cold.started)
    metrics["trace.overhead_s"] = cold.wall - untraced_wall
    return metrics


def units_for(metrics: Dict[str, float]) -> Dict[str, str]:
    return {name: END_TO_END_UNITS.get(name) or _layer_unit(name)
            for name in metrics}


def report(result: Dict[str, Any]) -> str:
    """Human-readable lines, then the JSON result line."""
    metrics = result["metrics"]
    units = units_for(metrics)
    lines = [f"{name:34s} {value:>16.6g} {units[name]}"
             for name, value in sorted(metrics.items())]
    share = result["failed"] / result["attempted"] \
        if result["attempted"] else 1.0
    lines.append(f"{'failed_share':34s} {share:>16.6g} fraction "
                 f"({result['failed']} of {result['attempted']} trials)")
    lines.extend(f"# check: {note}" for note in result["notes"])
    payload = {"correct": result["correct"],
               "attempted": result["attempted"],
               "failed": result["failed"],
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    lines.append(json.dumps(payload, sort_keys=True))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Nothing may fall back to the per-user default cache location.
    os.environ["REPRO_CACHE_DIR"] = str(WORK_ROOT / "default-cache")
    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print(report(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
