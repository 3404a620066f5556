"""Record the expected outputs of a workload for some seeds.

    python3 perfbench/record.py --workload reference --seeds 0-15

Runs the set-up and two passes per seed (the second must repeat the first)
and stores every checked output (graph sha256, graph counts, report values,
loss curves) in ``perfbench/expected.json``. Re-record only for a change
whose new outputs are intended; say so where the change is described.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil
import sys

import run as bench


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def store(workload: str, seed: int, observed: dict) -> None:
    """Read-modify-write under an exclusive lock, so that recorders of other
    workloads running at the same time keep each other's entries."""
    with open(bench.EXPECTED_FILE, "a+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        text = fh.read()
        data = json.loads(text) if text.strip() else {}
        data.setdefault(workload, {})[str(seed)] = observed
        fh.seek(0)
        fh.truncate()
        fh.write(json.dumps(data, indent=0, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-15 or 3,21")
    args = parser.parse_args(argv)

    bench.pin_blas_threads()
    bench.import_program()
    wl = bench.make_workloads()[args.workload]
    for seed in parse_seeds(args.seeds):
        run = bench.Run({})
        work = bench.WORK_DIR / f"record-{args.workload}-{seed}-{os.getpid()}"
        try:
            bench.measure(wl, run, seed, 0, 0, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if run.failed or run.problems:
            print(f"seed {seed}: not recorded: {run.problems}", file=sys.stderr)
            return 1
        store(args.workload, seed, run.expected)
        print(f"{args.workload} seed {seed}: recorded {len(run.expected)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
