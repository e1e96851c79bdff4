"""Compare the verify record streams of two source trees over the fixed seed sweep.

Usage: python tools/record_sweep.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are directories that hold the `fracgeo` package (the
`src/` of two checkouts). On each tree, `python -m fracgeo verify --suite all`
runs in a fresh single-threaded interpreter at seeds 0-99, 200-209 and
300-309 under the default profile, and at seed 0 under `full` and `fine`.
Records are paired in stream order and counted as byte-identical, moved with
the same verdict, pass -> fail, or fail -> pass. The exit status is 1 when any
record goes from pass to fail, when a run's record counts differ between the
trees, or when a run ends with an exit code other than 0 or 1; else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

RUNS = [(seed, "default") for seed in (*range(100), *range(200, 210), *range(300, 310))]
RUNS += [(0, "full"), (0, "fine")]
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def verify(src: Path, seed: int, profile: str):
    """Exit code and record lines of one verify run on the tree at src."""
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(THREADS, "1"))
    argv = [sys.executable, "-m", "fracgeo", "verify", "--suite", "all",
            "--seed", str(seed), "--profile", profile]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def compare(base, change):
    """Counts of identical, moved, pass -> fail and fail -> pass record pairs."""
    counts = dict.fromkeys(("identical", "moved", "pass->fail", "fail->pass"), 0)
    for old, new in zip(base, change):
        if old == new:
            counts["identical"] += 1
            continue
        was, now = json.loads(old)["passed"], json.loads(new)["passed"]
        counts["moved" if was == now else ("pass->fail" if was else "fail->pass")] += 1
    return counts


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(a, "fracgeo").is_dir() for a in argv):
        print("usage: python tools/record_sweep.py BASE_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    base, change = (Path(a).resolve() for a in argv)
    totals = dict.fromkeys(("identical", "moved", "pass->fail", "fail->pass"), 0)
    broken = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for seed, profile in RUNS:
            (code_a, old), (code_b, new) = pool.map(
                lambda src: verify(src, seed, profile), (base, change))
            counts = compare(old, new)
            for key, value in counts.items():
                totals[key] += value
            label = f"seed {seed} {profile}"
            if code_a not in (0, 1) or code_b not in (0, 1) or len(old) != len(new):
                broken += 1
                print(f"{label}: exit {code_a}/{code_b}, records {len(old)}/{len(new)}")
            elif counts["identical"] != len(old):
                print(f"{label}: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    print(
        f"{len(RUNS)} runs, {broken} broken; records: "
        + ", ".join(f"{v} {k}" for k, v in totals.items())
    )
    return 1 if broken or totals["pass->fail"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
