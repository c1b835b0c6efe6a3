"""Record the pinned per-trial digests of every workload at the default
seed into golden.json.

    python3 e2ebench/golden.py [workload ...]

Run it only when a change is meant to alter simulated results; the
benchmark fails every trial whose record no longer matches.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import jobs  # noqa: E402


def record(workload: str) -> dict:
    work = HERE.parent / ".e2ebench" / f"golden-{workload}"
    job = jobs.prepare(workload, jobs.DEFAULT_SEED, work)
    try:
        text = job.run().text
    finally:
        job.cleanup()
    records = json.loads(text)["records"]
    return {"sweep_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "records": [jobs.record_digest(r) for r in records]}


if __name__ == "__main__":
    golden = (json.loads(jobs.GOLDEN_PATH.read_text())
              if jobs.GOLDEN_PATH.exists() else {})
    for name in sys.argv[1:] or jobs.WORKLOADS:
        golden[name] = record(name)
        print(f"{name}: {len(golden[name]['records'])} records, "
              f"{golden[name]['sweep_sha256'][:16]}", flush=True)
    jobs.GOLDEN_PATH.write_text(json.dumps(golden, indent=1,
                                           sort_keys=True) + "\n")
