"""Fast self-test of the benchmark at a tiny size.

    python3 e2ebench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its
unit, that traced and untraced runs give the same result bytes (the run
is marked incorrect otherwise), that each output check rejects one
deliberately corrupted record, and that the command fails without a
result in a directory holding only the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402

SEED = 5


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(spec: dict) -> None:
    for workload in jobs.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.measure(workload, SEED, seconds=0, trace=trace,
                                 tiny=True)
            expect(result["correct"], f"{workload} trace={trace}: "
                                      f"{result['notes']}")
            printed = json.loads(run.report(result).splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in printed["metrics"].items()}
            expect(got == want, f"{workload} {section}: metrics/units "
                                f"differ: {sorted(set(got) ^ set(want))}")
            print(f"ok  {workload} trace={int(trace)}: {len(got)} metrics, "
                  f"{printed['attempted']} trials", flush=True)


def corrupt_one(workload: str) -> None:
    """A good result passes; one corrupted record is the one rejected."""
    work = run.WORK_ROOT / f"selftest-{workload}"
    job = jobs.prepare(workload, SEED, work, tiny=True)
    try:
        text = job.run().text
    finally:
        job.cleanup()
    expect(not jobs.check_records(job, text), f"{workload}: good result "
                                              f"rejected")
    data = json.loads(text)
    index = len(data["records"]) - 1
    result = data["records"][index]["result"]
    if workload == "paper-sweep":        # a defense that "recovers"
        result["success_rate"] = 1.0
    elif workload == "verify-crosscheck":
        result["ok"] = False
    else:                                # warm result differs from cold
        result["clean"] = not result["clean"]
    bad = json.dumps(data)
    if workload == "campaign":
        rejected = jobs.differing(text, bad)
    else:
        rejected = jobs.check_records(job, bad)
    expect(rejected == {index}, f"{workload}: corrupted record {index} "
                                f"gave {sorted(rejected)}")
    # The pinned-digest check, as run at the default seed.
    job.seed, job.tiny = jobs.DEFAULT_SEED, False
    good = json.loads(text)["records"]
    golden = {workload: {"records": [jobs.record_digest(r) for r in good],
                         "sweep_sha256": ""}}
    data = json.loads(text)
    data["records"][0]["params"]["tampered"] = True
    rejected = jobs.check_records(job, json.dumps(data), golden)
    expect(0 in rejected, f"{workload}: digest check missed record 0")
    print(f"ok  {workload}: corrupted records rejected", flush=True)


def bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: exit != 0, no
    result line."""
    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", jobs.WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare directory: exit {proc.returncode}, stdout "
           f"{proc.stdout[-200:]!r}")
    print("ok  bare directory refused", flush=True)


if __name__ == "__main__":
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bare_directory()
    for name in jobs.WORKLOADS:
        corrupt_one(name)
    check_metrics(spec)
    print("selftest ok")
