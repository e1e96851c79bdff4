"""End-to-end gate: ten numbered criteria, one pass/fail line each.

Each test computes every part of its criterion, prints a single verdict
line with the headline numbers, then asserts. Criteria with stated time
budgets measure wall clock and include it in the verdict.
"""

import math
import time

import numpy as np
import pytest

from fracgeo.cli import main
from fracgeo.fixtures import load_fixture
from fracgeo.flow import (
    FlowOptions,
    check_decay_and_bounds,
    check_first_variation,
    flow,
)
from fracgeo.geometry import Ball, NodeSubset, Params, make_body, surface_quadrature
from fracgeo.icosphere import icosahedron
from fracgeo.inequalities import SlicingSequence, checks
from fracgeo.inequalities import corpus
from fracgeo.inequalities.reports import fit_constant
from fracgeo.nonlocal_ops import ScalarField, halpha_boundary, halpha_chord
from fracgeo.quadrature import sphere_rule

import oracles

ALPHAS = (0.25, 0.5, 0.75)
SP_GRID = ((0.25, 1.0), (0.5, 1.0), (0.75, 1.0), (0.25, 2.0), (0.5, 1.5))
BASE_RES = {1: 96, 2: 80}


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def icosahedron_body():
    verts, _ = icosahedron()
    return make_body({"type": "hull3d", "vertices": verts})


@pytest.fixture(scope="module")
def corpus100():
    return corpus.body_corpus(0, 70, 30)


def test_criterion_01_solid_angle_law():
    t0 = time.time()
    disk = corpus.disk_polygon(512)
    quad = surface_quadrature(disk, 1024)
    picks = np.unique(np.linspace(0, quad.node_count - 1, 16).astype(int))
    # absolute 1e-3 band around pi, expressed as a relative tolerance
    disk_rep = checks.check_gauss_law(disk, quad, picks, 1e-3 / np.pi)
    icosa = icosahedron_body()
    iquad = surface_quadrature(icosa, 1280)
    ipicks = np.unique(np.linspace(0, iquad.node_count - 1, 12).astype(int))
    icosa_rep = checks.check_gauss_law(icosa, iquad, ipicks, 2e-2)
    elapsed = time.time() - t0
    ok = disk_rep.passed and icosa_rep.passed and elapsed < 5.0
    _verdict(
        1, "solid angle", ok,
        f"disk dev {disk_rep.lhs:.2e} < 1e-3, "
        f"icosa dev {icosa_rep.lhs:.2e} < {icosa_rep.tolerance:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_absolute_cosine_rules():
    tau1 = np.array([0.6, 0.8])
    rep1 = checks.check_abs_cosine(1, sphere_rule(1, 720), tau1, 1e-3 / 4.0)
    tau2 = np.array([1.0, -2.0, 0.5])
    tau2 /= np.linalg.norm(tau2)
    rep2 = checks.check_abs_cosine(2, sphere_rule(2, 1280), tau2, 1e-2)
    ok = (
        rep1.passed and abs(rep1.lhs - 4.0) < 1e-3
        and rep2.passed and abs(rep2.lhs - 2.0 * np.pi) < 1e-2 * 2.0 * np.pi
    )
    _verdict(
        2, "cosine average", ok,
        f"n=1 value {rep1.lhs:.6f} vs 4, n=2 value {rep2.lhs:.6f} vs 2pi",
    )


def test_criterion_03_curvature_cross_validation():
    # (fixture, surface resolution, interior point picker)
    settings = {
        "ball2d": (360, lambda q, b: 0),
        "ball3d": (320, lambda q, b: 17),
        "square": (64, lambda q, b: int(
            np.argmin(np.linalg.norm(q.points - [0.5, 0.0], axis=1)))),
        "thinrect": (128, lambda q, b: int(
            np.argmin(np.linalg.norm(q.points - [0.5, 0.0], axis=1)))),
        "cube": (320, lambda q, b: int(np.argmin(
            np.linalg.norm(q.points - b.face_corners[0].mean(axis=0), axis=1)))),
        "icosa": (640, lambda q, b: int(np.argmin(
            np.linalg.norm(q.points - b.face_corners[0].mean(axis=0), axis=1)))),
    }
    worst = 0.0
    for name, (res, pick) in settings.items():
        body = load_fixture(name)
        quad = surface_quadrature(body, res)
        i = pick(quad, body)
        chord = halpha_chord(
            body, quad.points[i], 0.5, normal=quad.normals[i]
        ).value
        bnd = halpha_boundary(body, quad, i, 0.5).value
        worst = max(worst, abs(bnd / chord - 1.0))
    forms_ok = worst < 0.01

    disk = Ball(2, np.zeros(2), 1.0)
    x = np.array([1.0, 0.0])
    value = halpha_chord(disk, x, 0.5, normal=x).value
    gamma_form = 2.0 ** -0.5 * math.sqrt(math.pi) * math.gamma(0.25) / math.gamma(0.75)
    disk_err = abs(value / gamma_form - 1.0)

    # dilation sends every chord to lambda times itself
    scale_err = 0.0
    for lam in (0.5, 2.0):
        scaled = halpha_chord(
            disk.scaled(lam), lam * x, 0.5, normal=x
        ).value
        scale_err = max(scale_err, abs(scaled / (lam ** -0.5 * value) - 1.0))

    ok = forms_ok and disk_err < 5e-3 and scale_err < 5e-3
    _verdict(
        3, "curvature forms", ok,
        f"worst form gap {worst:.4f} < 0.01, disk vs gamma form {disk_err:.2e}, "
        f"dilation {scale_err:.2e}",
    )


def test_criterion_04_pointwise_and_integrated_bounds(corpus100):
    t0 = time.time()
    fails = 0
    worst_margin = np.inf
    for i, (name, body) in enumerate(corpus100):
        quad = surface_quadrature(body, BASE_RES[body.n])
        alpha = ALPHAS[i % 3]
        point = checks.check_pointwise_global(body, quad, alpha)
        integ = checks.check_integral_bound(body, quad, alpha, ALPHAS[(i + 1) % 3])
        for rep in (point, integ):
            fails += 0 if rep.passed else 1
            worst_margin = min(worst_margin, rep.margin)
    elapsed = time.time() - t0
    ok = fails == 0 and worst_margin > 0 and elapsed < 120.0
    _verdict(
        4, "curvature bounds", ok,
        f"100 bodies x 3 alphas cycled, {fails} fails, "
        f"worst margin {worst_margin:.3g}, {elapsed:.0f}s < 120s",
    )


def test_criterion_05_classical_geometry(corpus100):
    rng = np.random.default_rng([0, 401])
    rules = {1: sphere_rule(1, 720), 2: sphere_rule(2, 1152)}
    shadow = [
        corpus.rectangle(1.0, 1.0),
        load_fixture("cube"),
        corpus.random_hull3d(rng),
        corpus.random_hull3d(rng),
        corpus.random_hull3d(rng),
    ]
    cauchy_ok = all(
        checks.check_cauchy_formula(b, rules[b.n], 0.01).passed for b in shadow
    )

    eq_gap = 0.0
    for dim in (2, 3):
        rep = checks.check_rosenthal_szasz(Ball(dim, np.zeros(dim), 1.2))
        eq_gap = max(eq_gap, abs(rep.lhs / rep.rhs - 1.0))
    balls_ok = eq_gap < 1e-9

    iso_fails = sum(
        0 if checks.check_isodiametric(body).passed else 1
        for _, body in corpus100
    )
    ok = cauchy_ok and balls_ok and iso_fails == 0
    _verdict(
        5, "shadows and diameters", ok,
        f"shadow identity on {len(shadow)} bodies, ball equality gap {eq_gap:.1e}, "
        f"{iso_fails} diameter-bound fails over 100 bodies",
    )


def test_criterion_06_dyadic_slicing_sweep():
    worked = checks.check_slicing_inequality(
        SlicingSequence(0, [1.0]), Params(n=2, s=0.5, p=1.0)
    )
    exact_ok = (
        worked.passed
        and abs(worked.lhs - 2.0) < 1e-12
        and abs(worked.rhs - 2.0 ** (4.0 / 3.0)) < 1e-12
    )
    combos = [
        (n, s, p)
        for n in (1, 2)
        for s in ALPHAS
        for p in (1.0, 1.5, 2.0)
        if n > s * p
    ]
    rng = np.random.default_rng([0, 411])
    violations = 0
    for k in range(1000):
        n, s, p = combos[k % len(combos)]
        seq = corpus.random_slicing_sequence(rng)
        if not checks.check_slicing_inequality(seq, Params(n, s=s, p=p)).passed:
            violations += 1
    ok = exact_ok and violations == 0
    _verdict(
        6, "dyadic slicing", ok,
        f"worked example lhs 2 rhs 2^(4/3) exact, "
        f"{violations} violations in 1000 sequences",
    )


def test_criterion_07_layer_cake_identity():
    bodies = [
        (corpus.disk_polygon(96), 128),
        (icosahedron_body(), 80),
    ]
    quads = [surface_quadrature(b, r) for b, r in bodies]
    rng = np.random.default_rng([0, 421])
    smooth_dev = 0.0
    smooth_fails = 0
    for k in range(10):
        quad = quads[k % 2]
        kind = ("cosine", "bump")[(k // 2) % 2]
        field = ScalarField(quad, corpus.field_values(rng, quad, kind))
        s = 0.25 if kind == "cosine" else 0.5
        rep = checks.check_coarea(field, s, levels=128, rel_tolerance=2e-2)
        smooth_fails += 0 if rep.passed else 1
        smooth_dev = max(smooth_dev, abs(rep.lhs / rep.rhs - 1.0))
    indicator_dev = 0.0
    for quad in quads:
        field = ScalarField(quad, corpus.field_values(rng, quad, "cap"))
        rep = checks.check_coarea(field, 0.5, levels=64, rel_tolerance=1e-10)
        assert rep.passed
        indicator_dev = max(indicator_dev, abs(rep.lhs / rep.rhs - 1.0))
    ok = smooth_fails == 0 and indicator_dev < 1e-10
    _verdict(
        7, "layer cake", ok,
        f"10 smooth fields worst dev {smooth_dev:.4f} < 0.02, "
        f"indicators exact to {indicator_dev:.1e}",
    )


def _fitted_constants(named, scale):
    """Envelope constants refit on meshes `scale` times the base resolution.

    Instances are specified mesh-independently (support-point anchors, caps
    as diameter fractions, fixed field axes) so that refitting at another
    resolution measures discretization drift and not instance turnover.
    """
    rng = np.random.default_rng([0, 431])
    specs = []
    for k in range(18):
        i = k % len(named)
        body = named[i][1]
        direction = rng.normal(size=body.dim)
        direction /= np.linalg.norm(direction)
        axis = rng.normal(size=body.dim)
        axis /= np.linalg.norm(axis)
        specs.append(dict(
            i=i, direction=direction,
            cap_frac=rng.uniform(0.15, 0.45),
            split_frac=rng.uniform(0.15, 0.45),
            sp=SP_GRID[k % 5], alpha=ALPHAS[i % 3],
            kind=("cosine", "bump")[k % 2], axis=axis,
            freq=rng.uniform(1.0, 3.0),
            width_frac=rng.uniform(0.1, 0.4),
        ))

    quads, inst = {}, []
    for k, spec in enumerate(specs):
        i = spec["i"]
        body = named[i][1]
        if i not in quads:
            quads[i] = surface_quadrature(body, BASE_RES[body.n] * scale)
        quad = quads[i]
        anchor = int(np.argmax(quad.points @ spec["direction"]))
        x = quad.points[anchor]
        cap = NodeSubset(
            quad,
            np.linalg.norm(quad.points - x, axis=1)
            <= spec["cap_frac"] * body.diameter(),
        )
        inst.append((k, spec, body, quad, anchor, cap))

    # one evaluation per instance with constant 1.0, then one fit per bound
    split, c_split = fit_constant([
        checks.check_reverse_isoperimetric(
            body, quad, anchor, spec["split_frac"] * body.diameter(), 1.0
        )
        for k, spec, body, quad, anchor, cap in inst[:14]
    ])
    fitted = {"split": c_split}
    passes = [rep.passed for rep in split]

    def subset_rep(spec, quad, anchor, cap):
        s, p = spec["sp"]
        return checks.check_pointwise_subset(
            quad, cap, anchor, spec["alpha"], s, p, 1.0, c_split
        )

    def set_rep(spec, body, quad, cap):
        hv = checks.halpha_at_nodes(quad, spec["alpha"])
        return checks.check_set_sobolev(
            quad, cap, Params(body.n, s=spec["sp"][0]), spec["alpha"], 1.0, hv
        )

    def fn_rep(spec, body, quad, anchor):
        hv = checks.halpha_at_nodes(quad, spec["alpha"])
        pts = quad.points
        diam = body.diameter()
        if spec["kind"] == "cosine":
            values = 1.0 + np.cos(
                spec["freq"] * (pts @ spec["axis"]) * 2.0 * np.pi / diam
            )
        else:
            d = np.linalg.norm(pts - pts[anchor], axis=1)
            values = np.exp(-((d / (spec["width_frac"] * diam)) ** 2))
        s, p = spec["sp"]
        return checks.check_function_sobolev(
            ScalarField(quad, values), Params(body.n, s=s, p=p),
            spec["alpha"], 1.0, hv,
        )

    for key, rows, probe in (
        ("subset", inst, lambda row: subset_rep(row[1], row[3], row[4], row[5])),
        ("set", inst[:16], lambda row: set_rep(row[1], row[2], row[3], row[5])),
        ("fn", inst[:8], lambda row: fn_rep(row[1], row[2], row[3], row[4])),
    ):
        reports, fitted[key] = fit_constant([probe(row) for row in rows])
        passes.extend(rep.passed for rep in reports)
    return fitted, all(passes)


def test_criterion_08_fitted_constant_stability():
    named = corpus.body_corpus(0, 10, 4)
    coarse, coarse_ok = _fitted_constants(named, 1)
    fine, fine_ok = _fitted_constants(named, 2)
    drift = {k: abs(fine[k] / coarse[k] - 1.0) for k in coarse}
    worst = max(drift.values())

    rng = np.random.default_rng([0, 441])
    quads = {}
    rearr_fails = 0
    for k in range(200):
        i = k % len(named)
        body = named[i][1]
        if i not in quads:
            quads[i] = surface_quadrature(body, BASE_RES[body.n])
        quad = quads[i]
        anchor = int(rng.integers(quad.node_count))
        subset = corpus.random_subset(
            rng, quad, anchor, kind=("cap", "rand", "cap")[k % 3]
        )
        rep = checks.check_rearrangement(quad, subset, anchor, ALPHAS[k % 3])
        rearr_fails += 0 if rep.passed else 1

    ok = coarse_ok and fine_ok and worst < 0.05 and rearr_fails == 0
    _verdict(
        8, "fitted constants", ok,
        "drift " + " ".join(f"{k} {v:.3f}" for k, v in sorted(drift.items()))
        + f" under 2x refinement, {rearr_fails} rearrangement fails in 200",
    )


def _perimeter_power_monotone(trace):
    q = np.array([s.perimeter for s in trace.states]) ** (1.0 + trace.alpha)
    return bool(np.all(np.diff(q) <= 1e-6 * q[:-1]))


def test_criterion_09_shrinking_front():
    t0 = time.time()
    default_trace = flow(load_fixture("ball2d"), 0.5, FlowOptions())
    default_seconds = time.time() - t0
    t_star_err = abs(
        default_trace.t_star_num / oracles.circle_extinction_time(0.5) - 1.0
    )

    lams = (0.5, 1.0, 2.0)
    lam_traces = [
        flow(Ball(2, np.zeros(2), lam), 0.5, FlowOptions(markers=96))
        for lam in lams
    ]
    slope = float(np.polyfit(
        np.log(lams), np.log([t.t_star_num for t in lam_traces]), 1
    )[0])

    fv = check_first_variation(default_trace)

    square = flow(load_fixture("square"), 0.5, FlowOptions(markers=64))
    rect = flow(load_fixture("thinrect"), 0.5, FlowOptions(markers=64))
    runs = [default_trace, *lam_traces, square, rect]
    monotone_ok = all(_perimeter_power_monotone(t) for t in runs)

    ratios = {}
    for label, trace in (("square", square), ("rect", rect)):
        rep = check_decay_and_bounds(trace, slope_floor=0.0)
        assert rep.passed
        ratios[label] = rep.details
    spread_p = (
        ratios["square"]["t_star_over_perimeter_power"]
        / ratios["rect"]["t_star_over_perimeter_power"]
    )
    spread_d = (
        ratios["square"]["t_star_over_diameter_power"]
        / ratios["rect"]["t_star_over_diameter_power"]
    )

    ok = (
        t_star_err < 0.02
        and default_seconds < 180.0
        and abs(slope - 1.5) < 0.05
        and fv.passed
        and monotone_ok
        and spread_p < spread_d
    )
    _verdict(
        9, "shrinking front", ok,
        f"extinction err {t_star_err:.4f} < 0.02 in {default_seconds:.0f}s, "
        f"dilation exponent {slope:.4f} vs 1.5, variation rate dev "
        f"{abs(fv.lhs / fv.rhs - 1.0):.2e}, perimeter power monotone on "
        f"{len(runs)} runs, shape spread {spread_p:.1f} (perimeter) vs "
        f"{spread_d:.1f} (diameter)",
    )


def test_criterion_10_deterministic_verification(tmp_path):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    rc1 = main(["verify", "--suite", "all", "--seed", "0", "--out", str(first)])
    rc2 = main(["verify", "--suite", "all", "--seed", "0", "--out", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    lines = first.read_text().count("\n")
    ok = rc1 == 0 and rc2 == 0 and identical and lines > 0
    _verdict(
        10, "deterministic suite", ok,
        f"exit codes {rc1}/{rc2}, {lines} records, reruns byte-identical: "
        f"{identical}",
    )
