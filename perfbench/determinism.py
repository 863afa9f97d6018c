#!/usr/bin/env python3
"""Check that two traced runs with the same seed give identical layer counts.

Run from the root of a provwrap checkout:

    python3 perfbench/determinism.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload (all three by default) it runs `run.py --trace 1` twice
as separate processes and compares every counter of probes.LAYER_METRICS:
each *_calls, *_bytes, *_files, records, segments, count and
allocate_probes, and monitor.rehash_ratio. It prints the counters and
exits 1 if any differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from probes import LAYER_METRICS, is_count  # noqa: E402
from run import WORKLOADS  # noqa: E402


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"traced run of {workload} failed:\n{proc.stdout[-2000:]}")
    spans = json.loads(
        (Path.cwd() / ".perfbench_out" / f"spans-{workload}.json").read_text()
    )
    first = spans["invocations"][0]["metrics"]
    return {name: first[name] for name, unit, *_ in LAYER_METRICS if is_count(name, unit)}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    differ = False
    for workload in args.workloads:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        print(f"{workload} (seed {args.seed}):")
        for name, value in first.items():
            same = value == second[name]
            differ |= not same
            mark = "" if same else f"   DIFFERS: second run {second[name]}"
            print(f"  {name:<26} {value}{mark}")
    print("counts identical across both runs" if not differ else "counts DIFFER")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
