"""Compare the verify record streams of two source trees over the fixed seed sweep.

Usage: python tools/record_sweep.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are directories that hold the `fracgeo` package (the
`src/` of two checkouts). On each tree, `python -m fracgeo verify --suite all`
runs in a fresh single-threaded interpreter at seeds 0-99, 200-209 and
300-309 under the default profile, and at seed 0 under `full` and `fine`.
Records are paired in stream order and counted as byte-identical, moved with
the same verdict, pass -> fail, or fail -> pass. For each record name that
has records that differ, the summary prints how many differ and the largest
relative change of lhs and of rhs among them. The exit status is 1 when any
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


def relative_change(a: float, b: float) -> float:
    """|b - a| over the larger magnitude of the two; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return abs(b - a) / scale if scale else 0.0


def compare(base, change, moves):
    """Counts of identical, moved, pass -> fail and fail -> pass record pairs.

    Each pair that differs adds to `moves[name]`, a list of the count of such
    pairs and the largest relative change of lhs and of rhs.
    """
    counts = dict.fromkeys(("identical", "moved", "pass->fail", "fail->pass"), 0)
    for old, new in zip(base, change):
        if old == new:
            counts["identical"] += 1
            continue
        a, b = json.loads(old), json.loads(new)
        was, now = a["passed"], b["passed"]
        counts["moved" if was == now else ("pass->fail" if was else "fail->pass")] += 1
        entry = moves.setdefault(a["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] = max(entry[1], relative_change(a["lhs"], b["lhs"]))
        entry[2] = max(entry[2], relative_change(a["rhs"], b["rhs"]))
    return counts


def main(argv) -> int:
    if len(argv) != 2 or not all(Path(a, "fracgeo").is_dir() for a in argv):
        print("usage: python tools/record_sweep.py BASE_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    base, change = (Path(a).resolve() for a in argv)
    totals = dict.fromkeys(("identical", "moved", "pass->fail", "fail->pass"), 0)
    moves: dict[str, list] = {}
    broken = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for seed, profile in RUNS:
            (code_a, old), (code_b, new) = pool.map(
                lambda src: verify(src, seed, profile), (base, change))
            counts = compare(old, new, moves)
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
    for name, (count, lhs, rhs) in sorted(moves.items()):
        print(f"  {name}: {count} differ; largest relative change lhs {lhs:.2g}, rhs {rhs:.2g}")
    return 1 if broken or totals["pass->fail"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
