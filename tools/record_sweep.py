"""Compare the verify record streams and the fixture outputs of two source trees.

Usage: python tools/record_sweep.py BASE_SRC CHANGE_SRC

BASE_SRC and CHANGE_SRC are directories that hold the `fracgeo` package (the
`src/` of two checkouts). Every command runs in a fresh single-threaded
interpreter on each tree.

First `python -m fracgeo verify --suite all` runs at seeds 0-99, 200-209 and
300-309 under the default profile, and at seed 0 under `full` and `fine`.
Records are paired in stream order and counted as byte-identical, moved with
the same verdict, pass -> fail, or fail -> pass. For each record name that
has records that differ, the summary prints how many differ and the largest
relative change of lhs and of rhs among them.

Then `halpha` in both forms with `--count 16`, `seminorm` at its defaults
and `seminorm --surface-resolution 640 --s 0.9 --p 1` (a node set with many
near pairs, at a second power) run on each of the six fixtures;
`flow --markers 64` on ball2d, square and thinrect;
`flow --body ball2d --markers 80 --alpha 0.75`, the run on which the step
limiter stays active; and `flow --body ball2d --markers 8`, the fewest
markers a flow accepts. Every flow command passes `--report-states 20001`,
more than any run's state count, so each state's record is compared rather
than a sample of about 40. Each command is printed as identical or differing
by its standard output, or as broken when its exit codes differ.

The exit status is 1 when any record goes from pass to fail, when a verify
run's record counts differ between the trees, when a verify run ends with an
exit code other than 0 or 1, or when a fixture command's exit codes differ
between the trees; else 0.
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
FIXTURES = ("ball2d", "ball3d", "square", "thinrect", "cube", "icosa")
COMMANDS = [
    ["halpha", "--body", body, "--form", form, "--count", "16"]
    for body in FIXTURES for form in ("chord", "boundary")
]
COMMANDS += [["seminorm", "--body", body] for body in FIXTURES]
# many near pairs, at a second power
COMMANDS += [
    ["seminorm", "--body", body, "--surface-resolution", "640", "--s", "0.9", "--p", "1"]
    for body in FIXTURES
]
# a flow records at most MAX_STEPS + 1 = 20,001 states, so every one is reported
EVERY_STATE = ["--report-states", "20001"]
COMMANDS += [
    ["flow", "--body", body, "--markers", "64", *EVERY_STATE]
    for body in ("ball2d", "square", "thinrect")
]
COMMANDS += [
    ["flow", "--body", "ball2d", "--markers", "80", "--alpha", "0.75", *EVERY_STATE],
    ["flow", "--body", "ball2d", "--markers", "8", *EVERY_STATE],
]
THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run(src: Path, args: list):
    """Exit code and stdout lines of `python -m fracgeo ARGS` on the tree at src."""
    env = dict(os.environ, PYTHONPATH=str(src), **dict.fromkeys(THREADS, "1"))
    done = subprocess.run([sys.executable, "-m", "fracgeo", *args],
                          env=env, capture_output=True, text=True)
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
            args = ["verify", "--suite", "all", "--seed", str(seed), "--profile", profile]
            (code_a, old), (code_b, new) = pool.map(lambda src: run(src, args), (base, change))
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
    outcomes = dict.fromkeys(("identical", "differing", "broken"), 0)
    with ThreadPoolExecutor(max_workers=2) as pool:
        for args in COMMANDS:
            (code_a, old), (code_b, new) = pool.map(lambda src: run(src, args), (base, change))
            outcome = "broken" if code_a != code_b else "identical" if old == new else "differing"
            outcomes[outcome] += 1
            print(f"fracgeo {' '.join(args)}: {outcome} (exit {code_a}/{code_b})")
    print(f"{len(COMMANDS)} fixture commands: "
          + ", ".join(f"{v} {k}" for k, v in outcomes.items()))
    return 1 if broken or outcomes["broken"] or totals["pass->fail"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
