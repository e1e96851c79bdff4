"""fracgeo benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see BENCHMARK.json) for about S seconds as a closed loop
of passes, each in a fresh single-threaded interpreter started by this
script: one pass at a time, BLAS limited to one thread. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics of the first traced one, and the tracing overhead.
`--workload all` runs every workload in turn. The exit code is nonzero when
an output fails its check.

Times in the metrics are normalized against a speed probe run inside each
untraced pass (see bench/workloads.py), because the host slows a core by
tens of percent for seconds to minutes at a time; raw times are in the
report line printed before the metrics.

Only the standard library is used here; the package and numpy are imported
in the pass processes (bench/workloads.py).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
SETUP_SAMPLES = 5
MIN_PASSES = 2
PASS_TIMEOUT_S = 150

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402

THREAD_LIMITS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    pass


def _spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    listed = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    produced = {(n, u, b) for n, u, b, _ in layers.metric_specs()}
    if listed != produced:
        raise BenchError(
            "per_layer in BENCHMARK.json and bench/layers.py differ: "
            f"{sorted(listed ^ produced)}"
        )
    return spec


def _source_digest() -> str:
    """Digest of the package source, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _spawn(workload, seed, mode, workdir):
    """Run one pass process; returns its JSON result and its wall time."""
    env = dict(os.environ, PYTHONHASHSEED="0", **THREAD_LIMITS)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "workloads.py"), workload, str(seed), mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + [repr(start), str(workdir)], env=env, cwd=str(ROOT),
            capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} ({mode}) exceeded {PASS_TIMEOUT_S} s") from exc
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def _percentile(values, q):
    """Inclusive-method quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def run_workload(workload, seed, seconds, trace):
    """Run the passes; returns (correct, attempted, failed, metrics, report,
    notes), where notes maps each per-layer metric to its prediction."""
    workdir = WORKDIR / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = time.monotonic()
        passes = []
        while True:
            # a traced run alternates untraced and traced passes
            mode = "traced" if trace and len(passes) % 2 == 1 else "pass"
            passes.append(_spawn(workload, seed, mode, workdir))
            cost = max(elapsed for _, elapsed in passes)
            if len(passes) >= MIN_PASSES and time.monotonic() - start + cost > seconds:
                break
        setups = [r["setup_s"] for r, _ in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_spawn(workload, seed, "setup", workdir)[0]["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    results = [r for r, _ in passes]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    # every pass of one run computes the same outputs; a differing stream
    # fails the whole pass
    for r in results[1:]:
        if r["digest"] != results[0]["digest"]:
            failed += r["attempted"]
    errors = results[0]["errors"]
    if any(r["errors"] != errors for r in results[1:]):
        failed += 1
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(results),
        "env": dict(results[0]["env"], git_sha=_git_sha(), src_digest=_source_digest()),
        "failed_frac": failed / attempted,
        "errors": errors,
    }
    if trace:
        traced = [r for r in results if "layers" in r]
        # traced passes run without the speed probe, so compare raw times
        base = statistics.median(r["wall_s"] for r in results if "layers" not in r)
        metrics = dict(traced[0]["layers"])
        metrics["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - base
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
        report.update(missing=traced[0]["missing"], profile=traced[0]["profile"])
        notes = {n: moves for n, _, _, moves in layers.metric_specs()}
    else:
        walls = [r["wall_norm_s"] for r in results]
        ops = [op for r in results for op in r["ops_norm_ms"]]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(r["items"] / r["wall_norm_s"] for r in results),
            "op_p50_ms": _percentile(ops, 0.5),
            "op_p90_ms": _percentile(ops, 0.9),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            # 1.0 when no output got as far as its closed-form comparison
            "oracle_rel_err": max(errors.values(), default=1.0),
        }
        report.update(
            pass_walls=walls,
            raw_pass_walls=[r["wall_s"] for r in results],
            raw_op_p50_ms=_percentile([op for r in results for op in r["ops_ms"]], 0.5),
            probes=[r["probes"] for r in results],
            op_samples=len(ops),
            setup_samples=len(setups),
        )
        notes = None
    return failed == 0, attempted, failed, metrics, report, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "fracgeo" / "__init__.py").is_file():
            raise BenchError(f"no package source under {SRC}")
        spec = _spec()
        seconds = args.seconds or spec["run_seconds"]
        names = [w["name"] for w in spec["workloads"]]
        if args.workload != "all" and args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; have {names}")
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
        all_ok = True
        for workload in names if args.workload == "all" else [args.workload]:
            ok, attempted, failed, metrics, report, notes = run_workload(
                workload, args.seed, seconds, args.trace
            )
            if sorted(metrics) != sorted(wanted):
                raise BenchError(f"metrics differ from BENCHMARK.json: "
                                 f"{sorted(set(metrics) ^ set(wanted))}")
            print(json.dumps(report, sort_keys=True))
            rows = [(n, metrics[n], units[n], notes[n] if notes else "") for n in wanted]
            if not args.trace:
                rows.append(("failed_frac", report["failed_frac"], "ratio", ""))
                rows += [(n, e, "ratio", "") for n, e in sorted(report["errors"].items())]
            for name, value, unit, note in rows:
                note = f"  ({note})" if note else ""
                print(f"{workload:12s} {name:48s} {value:<14.6g} {unit}{note}")
            all_ok &= ok
            print(json.dumps({
                "correct": ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in wanted},
            }))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
