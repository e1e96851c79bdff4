"""Chord and boundary curvature forms, perimeters, energies, tails."""

import numpy as np
import pytest

from fracgeo.geometry import (
    Ball,
    GeometryError,
    NodeSubset,
    ParamError,
    make_body,
    sphere_cap_measure,
    surface_quadrature,
)
from fracgeo.nonlocal_ops import (
    NonInteriorPointError,
    ScalarField,
    double_layer,
    frac_perimeter,
    gagliardo,
    halpha_boundary,
    halpha_chord,
    interaction_matrix,
    tail_integral,
)
from fracgeo.fixtures import FIXTURE_NAMES, load_fixture
from fracgeo.inequalities import corpus
from fracgeo.inequalities.corpus import rectangle
from fracgeo.inequalities.suite import PROFILES

import oracles


def unit_disk():
    return Ball(2, np.zeros(2), 1.0)


def unit_square():
    return make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    )


# ---------------------------------------------------------------------------
# chord form against closed forms


# the alpha grid of the planar closed-form checks, out to both ends of (0, 1)
EDGE_ALPHAS = (0.001, 0.1, 0.5, 0.9, 0.97, 0.999)


def test_disk_chord_closed_form():
    disk = unit_disk()
    x = np.array([1.0, 0.0])
    for alpha in (0.25, 0.5, 0.75):
        got = halpha_chord(disk, x, alpha)
        assert got.value == pytest.approx(oracles.disk_halpha(alpha), rel=1e-12)
        assert not got.overflow
        assert got.estimated_error == 0.0


@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_disk_forms_match_closed_form_across_alpha(radius):
    disk = Ball(2, np.array([0.3, -0.2]), radius)
    quad = surface_quadrature(disk, 96)
    for alpha in EDGE_ALPHAS:
        want = oracles.disk_halpha(alpha, radius)
        for i in (0, 17, 50):
            chord = halpha_chord(disk, quad.points[i], alpha)
            bnd = halpha_boundary(disk, quad, i, alpha)
            assert chord.value == pytest.approx(want, rel=1e-12)
            assert bnd.value == pytest.approx(want, rel=1e-12)
            assert chord.estimated_error == 0.0 and bnd.estimated_error == 0.0


# 40-digit mpmath values of the sum over edges of h^-alpha times the
# integral of cos^alpha over the angles each edge subtends from x, with the
# edges through x left out; computed offline (mpmath is not a dependency)
SQUARE_MIDPOINT_REFS = (
    (0.001, 3.1425673868284368266),
    (0.1, 3.2419801275415888984),
    (0.5, 3.7087074759546626174),
    (0.9, 4.3007208327581026703),
    (0.97, 4.4196320426275263273),
    (0.999, 4.4703706171505979816),
)
# thinrect at (1, 0.0125), on its short right edge
THINRECT_REFS = (
    (0.25, 7.1149897791409490634),
    (0.5, 16.920325026548715463),
    (0.9, 73.116529818978583968),
)
# regular 11-gon of radius 0.8, 1e-6 along edge 3 from vertex 3
ELEVEN_GON_REFS = (
    (0.25, 17.098170522838569375),
    (0.5, 389.36273937489182075),
    (0.9, 77473.448810031241146),
)


def test_polygon_chord_matches_mpmath_references():
    for alpha, want in SQUARE_MIDPOINT_REFS:
        got = halpha_chord(unit_square(), np.array([0.5, 0.0]), alpha)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert got.estimated_error == 0.0
    thin = load_fixture("thinrect")
    for alpha, want in THINRECT_REFS:
        got = halpha_chord(thin, np.array([1.0, 0.0125]), alpha).value
        assert got == pytest.approx(want, rel=1e-12)
    gon = corpus.regular_polygon(11, 0.8)
    v = gon.vertices
    x = v[3] + 1e-6 * (v[4] - v[3]) / np.linalg.norm(v[4] - v[3])
    for alpha, want in ELEVEN_GON_REFS:
        assert halpha_chord(gon, x, alpha).value == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", ["square", "ball2d", "cube", "ball3d"])
def test_curvature_forms_reject_alpha_outside_the_unit_interval(name):
    body = load_fixture(name)
    quad = surface_quadrature(body, 80)
    for alpha in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ParamError):
            halpha_chord(body, quad.points[0], alpha)
        with pytest.raises(ParamError):
            halpha_chord(body, quad.points[0], alpha, normal=quad.normals[0])
        with pytest.raises(ParamError):
            halpha_boundary(body, quad, 0, alpha)


def test_sphere_chord_closed_form():
    ball = Ball(3, np.zeros(3), 1.0)
    x = np.array([0.0, 0.0, 1.0])
    for alpha in (0.25, 0.5, 0.75):
        got = halpha_chord(ball, x, alpha)
        assert got.value == pytest.approx(oracles.sphere_halpha(alpha), rel=1e-6)


def test_ball_radius_homogeneity():
    x = np.array([1.0, 0.0])
    for alpha in (0.25, 0.5):
        unit = halpha_chord(unit_disk(), x, alpha).value
        big = halpha_chord(Ball(2, np.zeros(2), 2.0), 2.0 * x, alpha).value
        assert big == pytest.approx(2.0 ** (-alpha) * unit, rel=1e-3)


def test_polygon_scaling_homogeneity():
    sq = unit_square()
    x = np.array([0.5, 0.0])
    alpha = 0.5
    base = halpha_chord(sq, x, alpha).value
    for lam in (0.5, 2.0):
        scaled = halpha_chord(sq.scaled(lam), lam * x, alpha).value
        assert scaled == pytest.approx(lam ** (-alpha) * base, rel=5e-3)


def test_slab_truncation_stability():
    alpha = 0.5
    wide = rectangle(100.0, 1.0)
    wider = rectangle(10000.0, 1.0)
    a = halpha_chord(wide, np.array([50.0, 0.0]), alpha).value
    b = halpha_chord(wider, np.array([5000.0, 0.0]), alpha).value
    assert a == pytest.approx(b, rel=0.02)


def test_chord_monotone_under_body_inclusion():
    # same boundary point and normal, larger body, longer chords
    small = unit_square()
    tall = rectangle(1.0, 2.0)
    x = np.array([0.5, 0.0])
    for alpha in (0.25, 0.5, 0.75):
        h_small = halpha_chord(small, x, alpha).value
        h_tall = halpha_chord(tall, x, alpha).value
        assert h_tall < h_small


def test_positive_on_fixture_corpus():
    for name in FIXTURE_NAMES:
        body = load_fixture(name)
        quad = surface_quadrature(body, 40)
        for i in (0, quad.node_count // 2):
            got = halpha_chord(body, quad.points[i], 0.5, normal=quad.normals[i])
            assert got.value > 0.0


def test_vertex_neighborhood_overflows():
    sq = unit_square()
    got = halpha_chord(sq, np.array([1e-10, 0.0]), 0.5)
    assert got.overflow and np.isinf(got.value)


def test_off_surface_point_rejected():
    with pytest.raises(NonInteriorPointError):
        halpha_chord(unit_square(), np.array([0.5, 0.5]), 0.5)
    with pytest.raises(NonInteriorPointError):
        halpha_chord(unit_disk(), np.array([0.5, 0.0]), 0.5)


# ---------------------------------------------------------------------------
# boundary form cross-check


def test_boundary_matches_chord_on_disk():
    disk = unit_disk()
    quad = surface_quadrature(disk, 360)
    chord = halpha_chord(disk, quad.points[0], 0.5, normal=quad.normals[0]).value
    bnd = halpha_boundary(disk, quad, 0, 0.5)
    assert bnd.value == pytest.approx(chord, rel=0.01)
    assert bnd.method == "boundary"


def test_boundary_matches_chord_on_square():
    sq = unit_square()
    quad = surface_quadrature(sq, 64)
    i = int(np.argmin(np.linalg.norm(quad.points - [0.5, 0.0], axis=1)))
    chord = halpha_chord(sq, quad.points[i], 0.5, normal=quad.normals[i]).value
    bnd = halpha_boundary(sq, quad, i, 0.5)
    assert bnd.value == pytest.approx(chord, rel=0.01)


def test_boundary_matches_chord_on_ball3d():
    ball = load_fixture("ball3d")
    quad = surface_quadrature(ball, 320)
    chord = halpha_chord(ball, quad.points[17], 0.5, normal=quad.normals[17]).value
    bnd = halpha_boundary(ball, quad, 17, 0.5)
    assert bnd.value == pytest.approx(chord, rel=0.01)


@pytest.mark.parametrize("name", ["square", "thinrect", "ellipse"])
def test_boundary_equals_chord_on_polygons(name):
    # edge by edge the two forms are one integral, so they agree at every node
    if name == "ellipse":
        body = corpus.random_ellipse_polygon(np.random.default_rng(12))
    else:
        body = load_fixture(name)
    quad = surface_quadrature(body, 96)
    for alpha in (0.25, 0.5, 0.9):
        for i in range(quad.node_count):
            chord = halpha_chord(body, quad.points[i], alpha).value
            bnd = halpha_boundary(body, quad, i, alpha).value
            assert bnd == pytest.approx(chord, rel=1e-13)


def test_boundary_of_foreign_quadrature_rejected():
    quad = surface_quadrature(unit_square(), 64)
    with pytest.raises(GeometryError):
        halpha_boundary(unit_disk(), quad, 0, 0.5)


# ---------------------------------------------------------------------------
# interaction sums


def test_interaction_matrix_shape_and_symmetry():
    quad = surface_quadrature(unit_disk(), 120)
    mat = interaction_matrix(quad, 1.5)
    assert mat.shape == (120, 120)
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)
    assert mat.min() >= 0.0


def test_interaction_matrix_is_built_once_per_power():
    quad = surface_quadrature(unit_disk(), 120)
    mat = interaction_matrix(quad, 1.5)
    assert interaction_matrix(quad, 1.5) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 1] = 0.0
    other = interaction_matrix(quad, 2.5)
    assert other is not mat and not np.array_equal(other, mat)
    twin = surface_quadrature(unit_disk(), 120)
    fresh = interaction_matrix(twin, 1.5)
    assert fresh is not mat and np.array_equal(fresh, mat)
    # frac_perimeter and gagliardo read the matrix the quadrature holds
    upper = NodeSubset(quad, quad.points[:, 1] > 0)
    frac_perimeter(upper, 0.5)
    gagliardo(ScalarField.indicator(upper), 0.5, 1.0)
    assert set(quad.matrices) == {1.5, 2.5}


@pytest.mark.parametrize(
    "name, res", [("square", 64), ("ball2d", 96), ("cube", 192), ("ball3d", 320)]
)
def test_batched_near_pairs_match_a_per_pair_loop(name, res):
    quad = surface_quadrature(load_fixture(name), res)
    power = quad.n + 0.5
    mat = interaction_matrix(quad, power)
    pts = quad.points
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    spacing = np.maximum(quad.spacings[:, None], quad.spacings[None, :])
    near_i, near_j = np.nonzero((dist < 2.0 * spacing) & (dist > 0.0))
    pairs = [(i, j) for i, j in zip(near_i, near_j) if i < j]
    assert len(pairs) >= quad.node_count
    want, got = [], []
    for i, j in pairs:
        pi, _, wi = quad.refine_node(int(i), 1)
        pj, _, wj = quad.refine_node(int(j), 1)
        d = np.linalg.norm(pi[:, None, :] - pj[None, :, :], axis=2)
        want.append(float(np.sum(np.outer(wi, wj) / d**power)))
        got.append((mat[i, j], mat[j, i]))
    want = np.array(want)
    got = np.array(got)
    assert np.array_equal(got[:, 0].view(np.uint64), want.view(np.uint64))
    assert np.array_equal(got[:, 1].view(np.uint64), want.view(np.uint64))


def test_frac_perimeter_trivial_sets():
    quad = surface_quadrature(unit_disk(), 120)
    empty = NodeSubset(quad, np.zeros(120, dtype=bool))
    full = NodeSubset(quad, np.ones(120, dtype=bool))
    assert frac_perimeter(empty, 0.5) == 0.0
    assert frac_perimeter(full, 0.5) == 0.0


def test_frac_perimeter_complement_symmetry():
    quad = surface_quadrature(unit_disk(), 240)
    upper = NodeSubset(quad, quad.points[:, 1] > 0)
    assert frac_perimeter(upper, 0.5) == frac_perimeter(~upper, 0.5)


def test_frac_perimeter_against_dense_brute_sum():
    quad = surface_quadrature(unit_disk(), 240)
    upper = NodeSubset(quad, quad.points[:, 1] > 0)
    got = frac_perimeter(upper, 0.5)
    assert got == pytest.approx(oracles.brute_half_circle_perimeter(0.5), rel=0.02)


def test_frac_perimeter_validates_order():
    quad = surface_quadrature(unit_disk(), 120)
    upper = NodeSubset(quad, quad.points[:, 1] > 0)
    with pytest.raises(GeometryError):
        frac_perimeter(upper, 1.5)


def test_gagliardo_constant_field_vanishes():
    quad = surface_quadrature(unit_disk(), 120)
    f = ScalarField(quad, np.full(120, 3.7))
    assert gagliardo(f, 0.5, 1.0) == 0.0


def test_gagliardo_indicator_doubles_perimeter():
    for name, res in (("ball2d", 240), ("square", 64), ("ball3d", 80)):
        quad = surface_quadrature(load_fixture(name), res)
        subset = NodeSubset(quad, quad.points[:, -1] > 0.3)
        f = ScalarField.indicator(subset)
        per = frac_perimeter(subset, 0.5)
        assert gagliardo(f, 0.5, 1.0) == pytest.approx(2.0 * per, abs=1e-10 * max(per, 1.0))


def test_gagliardo_against_dense_brute_sum():
    quad = surface_quadrature(unit_disk(), 240)
    f = ScalarField(quad, quad.points[:, 0])
    got = gagliardo(f, 0.5, 1.0)
    assert got == pytest.approx(oracles.brute_cosine_gagliardo(0.5, 1.0), rel=0.02)


def test_field_validation():
    quad = surface_quadrature(unit_disk(), 120)
    with pytest.raises(GeometryError):
        ScalarField(quad, np.ones(7))
    with pytest.raises(GeometryError):
        ScalarField(quad, np.full(120, np.nan))


# ---------------------------------------------------------------------------
# double layer


def test_double_layer_full_square():
    quad = surface_quadrature(unit_square(), 64)
    assert double_layer(quad, 0) == pytest.approx(np.pi, rel=0.01)


def test_double_layer_full_icosahedron():
    quad = surface_quadrature(load_fixture("icosa"), 80)
    assert double_layer(quad, 0) == pytest.approx(2.0 * np.pi, rel=0.02)


def test_polygon_double_layer_is_exact_across_seeds():
    # the curvature section's planar gauss-law body, drawn from each seed
    prof = PROFILES["default"]
    worst = 0.0
    for seed in range(200):
        body = corpus.body_corpus(seed, prof["n1"], prof["n2"])[1][1]
        quad = surface_quadrature(body, prof["res"][1])
        for i in range(quad.node_count):
            worst = max(worst, abs(double_layer(quad, i) - np.pi))
    assert worst <= 1e-11


@pytest.mark.parametrize(
    "body",
    [unit_square(), corpus.regular_polygon(11, 0.8), unit_disk(),
     Ball(2, np.array([0.4, -0.7]), 1.3)],
)
def test_polygon_angle_within_radius_plus_cap_is_half_circle(body):
    quad = surface_quadrature(body, 64)
    for i in (0, 5, 17, 40):
        x = quad.points[i]
        for radius in (1e-4, 0.05, 0.3, 0.7, 1.2, 2.5, 3.0):
            near = double_layer(quad, i, within=radius)
            cap = sphere_cap_measure(body, x, radius) / radius
            assert near + cap == pytest.approx(np.pi, abs=1e-11)


def test_double_layer_monotone_in_region():
    quad = surface_quadrature(unit_disk(), 240)
    full = double_layer(quad, 0)
    rng = np.random.default_rng(2)
    for _ in range(5):
        subset = NodeSubset(quad, rng.random(240) < 0.4)
        part = double_layer(quad, 0, subset=subset)
        assert 0.0 <= part <= full + 1e-9


# ---------------------------------------------------------------------------
# tails


def test_tail_of_full_set_vanishes():
    quad = surface_quadrature(unit_disk(), 240)
    full = NodeSubset(quad, np.ones(240, dtype=bool))
    assert tail_integral(quad, 0, full, 0.5) == 0.0


def test_tail_against_dense_brute_sum():
    quad = surface_quadrature(unit_disk(), 240)
    near = NodeSubset(quad, quad.points[:, 0] > 0)
    got = tail_integral(quad, 0, near, 0.5)
    assert got == pytest.approx(oracles.brute_half_arc_tail(0.5), rel=0.02)


def test_matched_cap_minimizes_tail():
    quad = surface_quadrature(unit_disk(), 240)
    x = quad.points[0]
    rng = np.random.default_rng(4)
    d = np.linalg.norm(quad.points - x, axis=1)
    for _ in range(6):
        mask = rng.random(240) < 0.35
        mask[0] = True
        subset = NodeSubset(quad, mask)
        order = np.argsort(d)
        cap_mask = np.zeros(240, dtype=bool)
        take, acc = [], 0.0
        for i in order:
            if acc >= subset.measure:
                break
            take.append(i)
            acc += quad.weights[i]
        cap_mask[np.array(take)] = True
        cap = NodeSubset(quad, cap_mask)
        assert tail_integral(quad, 0, cap, 0.5) <= tail_integral(quad, 0, subset, 0.5) + 1e-9
