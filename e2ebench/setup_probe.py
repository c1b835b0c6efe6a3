"""Set up one workload in a fresh interpreter, print ``ready``, exit.

    python3 e2ebench/setup_probe.py <workload> <seed> <work dir> <tiny 0|1>

``run.py`` times this process from its start until the ``ready`` line:
that is the benchmark's ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import jobs  # noqa: E402

if __name__ == "__main__":
    workload, seed, work, tiny = sys.argv[1:5]
    jobs.prepare(workload, int(seed), Path(work), tiny=tiny == "1")
    print("ready", flush=True)
