"""Write ``reference.json``: each workload's pinned output values at the default seed.

Usage, from the repository root: ``python3 perfbench/pin.py``. Run it only on
the commit whose outputs are the reference; the benchmark compares every
later commit with what this wrote.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

from run import REFERENCE, Runner, remove_if_empty
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> None:
    root = Path.cwd()
    scratch = root / ".perfbench_tmp" / "pin"
    scratch.mkdir(parents=True)
    runner = Runner(root, scratch, time.perf_counter())
    reference = {}
    try:
        for name, workload in WORKLOADS.items():
            runner.started = time.perf_counter()
            _, _, outputs = runner.iteration(workload.commands, DEFAULT_SEED, threads=1)
            values = {label: value for label, (value, _) in workload.pinned(outputs).items()}
            reference[name] = {"values": values, "sha256": [o["sha256"] for o in outputs]}
            print(f"{name}: {len(values)} values")
    finally:
        shutil.rmtree(scratch)
        remove_if_empty(scratch.parent)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
