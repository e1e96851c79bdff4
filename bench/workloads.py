"""One pass of one benchmark workload, in a fresh interpreter.

    python3 bench/workloads.py WORKLOAD SEED MODE SPAWN_T WORKDIR

Builds the workload's inputs from SEED, then, unless MODE is "setup", runs
one pass timed against the speed probe (MODE "pass"), or one pass under the
outside-in tracer (MODE "traced"), checks the outputs against closed forms
and prints one JSON line.
SPAWN_T is the parent's monotonic clock just before it started this process,
so setup_s covers interpreter start, the cold `import fracgeo` and input
construction. WORKDIR is a working directory inside the checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import math
import os
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# `verify --suite all --profile default` emits this many records for any seed.
VERIFY_RECORDS = 498

# Largest relative error against a closed form that still counts as a correct
# output. They are loose on purpose: they catch a broken program, while the
# error itself is the oracle_rel_err metric. The chord gate admits the known
# near-tangent defect of the planar chord rule (8 % at alpha = 0.95).
ORACLE_GATES = {
    "gauss_rel_err": 2e-2,
    "tstar_rel_err": 0.1,
    "chord_rel_err": 0.1,
    "boundary_rel_err": 2e-2,
}


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


# Timing normalization. A core shared with other machines' load runs
# everything slower by a factor that drifts within seconds and across
# minutes, and processor time inflates with wall time. While an untraced
# pass runs, a timer signal runs speed_probe every PROBE_INTERVAL_S; reported
# times exclude the probes and are scaled by PROBE_REF_S over the mean probe
# time around them. PROBE_REF_S is the probe's time on an unloaded core of
# the reference machine (a 2-vCPU x86-64 VM at 2.1 GHz) and only sets the
# scale; raw times are reported alongside.
PROBE_INTERVAL_S = 0.2
PROBE_REF_S = 0.006
PROBE_WINDOW_S = 0.5


def speed_probe():
    """A fixed mix of interpreter, small-array and pairwise-array work."""
    total = 0.0
    for i in range(15000):
        total += i * 0.5
    a = np.linspace(0.0, 1.0, 1000)
    for _ in range(150):
        a = np.sqrt(a * a + 1.0) - 1.0
    pts = np.linspace(0.0, 1.0, 900).reshape(300, 3)
    d = pts[:, None, :] - pts[None, :, :]
    np.sqrt((d * d).sum(axis=2))


class SpeedLog:
    """Probes the core's speed from a timer signal while a pass runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        speed_probe()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, t0, t1):
        """(raw, normalized) seconds of work in [t0, t1], probes excluded."""
        raw = t1 - t0 - sum(d for s, d in self.samples if t0 <= s < t1)
        near = [d for s, d in self.samples if t0 - PROBE_WINDOW_S <= s < t1 + PROBE_WINDOW_S]
        near = near or [d for _, d in self.samples]
        if not near:
            return raw, raw
        return raw, raw * PROBE_REF_S * len(near) / sum(near)


class Outcome:
    """What a pass produced: op intervals, output count, checks and digest."""

    def __init__(self):
        self.ops: list[tuple[float, float]] = []  # (start, end) of timed ops
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.errors: dict[str, float] = {}
        self.digest = ""

    def check(self, ok: bool):
        self.attempted += 1
        self.failed += not ok

    def oracle(self, name: str, err: float):
        """Record a relative error against a closed form; worst one wins."""
        self.errors[name] = max(self.errors.get(name, 0.0), err)


def _timed(out: Outcome, call, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        return call(*args, **kwargs)
    finally:
        out.ops.append((t0, time.perf_counter()))


# ---------------------------------------------------------------------------
# verify-all: the whole verification suite through the command line entry


def build_verify(fg, seed, workdir):
    cli = importlib.import_module("fracgeo.cli")
    out_path = Path(workdir) / f"verify-{os.getpid()}.jsonl"
    argv = ["verify", "--suite", "all", "--seed", str(seed), "--out", str(out_path)]
    return {"cli": cli, "argv": argv, "out": out_path}


def run_verify(fg, inp, out: Outcome):
    # look the entry up at call time so a traced pass reaches the wrapper
    return _timed(out, lambda: inp["cli"].main(inp["argv"]))


def check_verify(oracles, inp, code, out: Outcome):
    data = inp["out"].read_bytes()
    inp["out"].unlink()
    records = [json.loads(line) for line in data.splitlines()]
    out.items = len(records)
    out.digest = hashlib.sha256(data).hexdigest()
    for rec in records:
        out.check(rec["passed"] and _finite(rec["lhs"], rec["rhs"]))
        # the solid-angle law on the two fixed showcase bodies has a closed form
        if rec["name"] == "gauss-law" and rec["details"].get("body") in (
            "disk-512gon", "icosahedron",
        ):
            out.oracle("gauss_rel_err",
                       rec["lhs"] / oracles.half_solid_angle(rec["params"]["n"]))
    for _ in range(len(records), VERIFY_RECORDS):
        out.check(False)
    if code != 0 or len(records) != VERIFY_RECORDS:
        out.check(False)


# ---------------------------------------------------------------------------
# flow-planar: the shrinking-front flow on five planar bodies

# (label, fixture or None for the seed-drawn ellipse, alpha, markers). At
# alpha 0.75 and 80 markers the default step leaves the limiter active on
# most steps. Op latencies cover the fixture flows only: the ellipse's run
# time varies with the seed by more than the latency bounds allow.
FLOWS = (
    ("ball2d-a0.5", "ball2d", 0.5, 64),
    ("ball2d-a0.75", "ball2d", 0.75, 80),
    ("square", "square", 0.5, 64),
    ("thinrect", "thinrect", 0.5, 64),
    ("ellipse", None, 0.5, 64),
)


def build_flow(fg, seed, workdir):
    from fracgeo.inequalities import corpus

    ellipse = corpus.random_ellipse_polygon(np.random.default_rng([seed, 2]))
    return [
        (label, fg.load_fixture(name) if name else ellipse, alpha,
         fg.FlowOptions(markers=markers), name is not None)
        for label, name, alpha, markers in FLOWS
    ]


def run_flow(fg, inp, out: Outcome):
    traces = []
    for _, body, alpha, options, fixed in inp:
        try:
            if fixed:
                traces.append(_timed(out, fg.flow, body, alpha, options))
            else:
                traces.append(fg.flow(body, alpha, options))
        except fg.GeometryError as exc:
            traces.append(exc)
    return traces


def check_flow(oracles, inp, traces, out: Outcome):
    summary = []
    for (label, _, alpha, _, _), trace in zip(inp, traces):
        if isinstance(trace, Exception):
            out.check(False)
            summary.append([label, repr(trace)])
            continue
        t_star = trace.t_star_num
        ok = (
            trace.ending == "extinct"
            and t_star is not None
            and _finite(t_star)
            and all(_finite(*s.halpha) for s in trace.states)
        )
        out.check(ok)
        out.items += len(trace.states)
        summary.append([label, trace.ending, len(trace.states), t_star])
        if ok and label.startswith("ball2d"):
            out.oracle("tstar_rel_err",
                       abs(t_star / oracles.circle_extinction_time(alpha) - 1.0))
    out.digest = _digest(summary)


# ---------------------------------------------------------------------------
# surface-ops: curvature, seminorm and perimeter evaluation on 3D node sets

# (fixture, node budget, halpha_boundary nodes). The pooled median latency
# falls among the cube's nodes, whose latencies spread widest; 128 draws keep
# that median within a few percent from seed to seed. The ball3d nodes are
# the slow tail that sets op_p90_ms.
SURFACES = (("icosa", 1280, 32), ("ball3d", 1280, 32), ("cube", 768, 128))
BOUNDARY_ALPHA = 0.5
ENERGY_S, ENERGY_P = 0.5, 2.0
CHORD_ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9, 0.95)


def build_surface(fg, seed, workdir):
    from fracgeo.inequalities import corpus

    rng = np.random.default_rng([seed, 3])
    meshes = []
    order = []
    for name, resolution, count in SURFACES:
        body = fg.load_fixture(name)
        quad = fg.surface_quadrature(body, resolution)
        # one node drawn from each of equal runs of node indices, which are
        # ordered by facet, so every seed samples the whole surface
        edges = np.linspace(0, quad.node_count, count + 1).astype(int)
        nodes = rng.integers(edges[:-1], edges[1:])
        fields = [
            fg.ScalarField(quad, corpus.field_values(rng, quad, kind))
            for kind in ("cap", "cosine", "bump")
        ]
        cap = corpus.random_subset(rng, quad, int(rng.integers(quad.node_count)), "cap")
        meshes.append((name, body, quad, fields, cap))
        order += [((k + 0.5) / count, len(meshes) - 1, int(i)) for k, i in enumerate(nodes)]
    chords = []
    for name in ("ball2d", "ball3d"):
        body = fg.load_fixture(name)
        x = np.zeros(body.dim)
        x[-1] = 1.0
        chords.append((name, body, x))
    # the meshes' nodes are evaluated interleaved, so a slow spell of the host
    # weighs on every mesh's latencies alike
    nodes = [(m, i) for _, m, i in sorted(order)]
    return {"meshes": meshes, "nodes": nodes, "chords": chords}


def run_surface(fg, inp, out: Outcome):
    boundary, energies, chord = [], [], []
    for m, i in inp["nodes"]:
        name, body, quad, _, _ = inp["meshes"][m]
        value = _timed(out, fg.halpha_boundary, body, quad, i, BOUNDARY_ALPHA)
        boundary.append((name, value))
    for name, body, quad, fields, cap in inp["meshes"]:
        for field in fields:
            energies.append(fg.gagliardo(field, ENERGY_S, ENERGY_P))
        energies.append(fg.frac_perimeter(cap, ENERGY_S))
    for name, body, x in inp["chords"]:
        for alpha in CHORD_ALPHAS:
            chord.append((name, alpha, fg.halpha_chord(body, x, alpha, normal=x)))
    return boundary, energies, chord


def check_surface(oracles, inp, outputs, out: Outcome):
    boundary, energies, chord = outputs
    for name, cv in boundary:
        ok = not cv.overflow and _finite(cv.value) and cv.value > 0.0
        out.check(ok)
        if ok and name == "ball3d":
            ref = oracles.sphere_halpha(BOUNDARY_ALPHA)
            out.oracle("boundary_rel_err", abs(cv.value / ref - 1.0))
    for energy in energies:
        out.check(_finite(energy) and energy > 0.0)
    for name, alpha, cv in chord:
        ok = not cv.overflow and _finite(cv.value)
        out.check(ok)
        if ok:
            ref = (oracles.disk_halpha if name == "ball2d" else oracles.sphere_halpha)(alpha)
            out.oracle("chord_rel_err", abs(cv.value / ref - 1.0))
    out.items = len(boundary) + len(energies) + len(chord)
    out.digest = _digest(
        [cv.value for _, cv in boundary] + energies + [cv.value for *_, cv in chord]
    )


WORKLOADS = {
    "verify-all": (build_verify, run_verify, check_verify),
    "flow-planar": (build_flow, run_flow, check_flow),
    "surface-ops": (build_surface, run_surface, check_surface),
}


def _environment():
    import numpy
    import scipy

    limits = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in limits},
    }


def main(argv) -> int:
    workload, seed, mode, spawn_t, workdir = argv
    build, run, check = WORKLOADS[workload]
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import fracgeo as fg

    if Path(fg.__file__).resolve().parent != SRC / "fracgeo":
        print(f"fracgeo imported from {fg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    inputs = build(fg, int(seed), workdir)
    result = {"setup_s": time.monotonic() - float(spawn_t)}
    if mode != "setup":
        import oracles

        tracer = None
        speed = SpeedLog()
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out = Outcome()
        # traced passes run without the probe, so span times are the program's
        with speed if tracer is None else contextlib.nullcontext():
            t0 = time.perf_counter()
            outputs = run(fg, inputs, out)
            t1 = time.perf_counter()
        wall, wall_norm = speed.normalize(t0, t1)
        ops = [speed.normalize(a, b) for a, b in out.ops]
        check(oracles, inputs, outputs, out)
        for name, err in out.errors.items():
            out.check(err <= ORACLE_GATES[name])
        result.update(
            wall_s=wall, wall_norm_s=wall_norm,
            ops_ms=[raw * 1e3 for raw, _ in ops], ops_norm_ms=[n * 1e3 for _, n in ops],
            probes=len(speed.samples), items=out.items, attempted=out.attempted,
            failed=out.failed, errors=out.errors, digest=out.digest,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            env=_environment(),
        )
        if tracer is not None:
            from layers import layer_metrics

            values, missing = layer_metrics(tracer.stats, wall)
            result.update(
                layers=values,
                missing=missing,
                profile=sorted(
                    ((label, s.calls, s.self_s) for label, s in tracer.stats.items()),
                    key=lambda row: -row[2],
                )[:20],
            )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
