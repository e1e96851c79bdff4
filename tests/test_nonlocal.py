"""Chord and boundary curvature forms, perimeters, energies, tails."""

import numpy as np
import pytest
from scipy.spatial.distance import squareform

from fracgeo.geometry import (
    Ball,
    GeometryError,
    Hull3D,
    NodeSubset,
    ParamError,
    SurfaceQuadrature,
    make_body,
    sphere_cap_measure,
    surface_quadrature,
)
from fracgeo.nonlocal_ops import (
    NonInteriorPointError,
    ScalarField,
    _chord_values,
    double_layer,
    frac_perimeter,
    gagliardo,
    halpha_at_nodes,
    halpha_boundary,
    halpha_chord,
    interaction_matrix,
    tail_integral,
)
from fracgeo.fixtures import FIXTURE_NAMES, load_fixture
from fracgeo.icosphere import sphere_cells, split4
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


@pytest.mark.parametrize("alpha", [0.001, 0.5, 0.999])
def test_batched_polygon_chord_matches_a_per_point_sum(alpha):
    rng = np.random.default_rng(17)
    for body in (
        unit_square(), corpus.regular_polygon(17, 1.1), corpus.random_ellipse_polygon(rng)
    ):
        # every node, and a point just past each vertex, where the next
        # edges are seen at grazing angles
        v, e = body.vertices, body.edges
        pts = np.concatenate([
            surface_quadrature(body, 96).points,
            v + 1e-6 * e / np.linalg.norm(e, axis=1, keepdims=True),
        ])
        values, errors = _chord_values(body, pts, alpha)
        want = np.array([oracles.polygon_halpha(v, x, alpha) for x in pts])
        assert np.all(errors == 0.0)
        np.testing.assert_allclose(values, want, rtol=1e-14, atol=0.0)


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


def test_node_curvature_rejects_alpha_before_caching():
    quad = surface_quadrature(load_fixture("ball2d"), 80)
    for alpha in (1.5, np.nan):
        with pytest.raises(ParamError):
            halpha_at_nodes(quad, alpha)
    assert quad.curvatures == {}


def test_sphere_chord_closed_form():
    ball = Ball(3, np.zeros(3), 1.0)
    x = np.array([0.0, 0.0, 1.0])
    for alpha in (0.25, 0.5, 0.75):
        got = halpha_chord(ball, x, alpha)
        assert got.value == pytest.approx(oracles.sphere_halpha(alpha), rel=1e-6)


@pytest.mark.parametrize("radius", [1.0, 1.3])
def test_ball_chord_closed_form_at_rotated_points(radius):
    # a generic normal needs no frame rotation: near-tangent directions,
    # where the chord of a sphere vanishes, must keep their weight
    center = np.array([0.2, -0.4, 0.1])
    ball = Ball(3, center, radius)
    rng = np.random.default_rng(41)
    for _ in range(5):
        u = rng.normal(size=3)
        x = center + radius * u / np.linalg.norm(u)
        for alpha in EDGE_ALPHAS:
            got = halpha_chord(ball, x, alpha)
            want = oracles.sphere_halpha(alpha, radius)
            assert got.value == pytest.approx(want, rel=1e-12)
            assert got.estimated_error == 0.0


# 30-digit mpmath values of the sum over facets of h_j times the integral of
# |y - x|^-(3 + alpha) over facet j (2D tanh-sinh quadrature on each facet,
# the facets coplanar with x left out); computed offline, since mpmath is
# not a dependency. CUBE_POINT is on the face y = 0, ICOSA_POINT is
# 0.21 a + 0.33 b + 0.46 c for the corners a, b, c of face 0.
CUBE_POINT = np.array([0.3, 0.0, 0.55])
CUBE_REFS = (
    (0.001, 6.2858416886572920822738611791),
    (0.1, 6.55896864203911913236110199927),
    (0.5, 7.89891607397677236747539123375),
    (0.9, 9.73211887870562016595267429002),
    (0.97, 10.1179276345386177436960026718),
    (0.999, 10.2843145807600438564193431345),
)
ICOSA_POINT = np.array(
    [0.5647906388412527, -0.3911183003011913, 0.42047298132873007]
)
ICOSA_REFS = (
    (0.001, 6.28459562374446350669030458105),
    (0.1, 6.43481825268546627505811142813),
    (0.5, 7.29219658349410537182170024001),
    (0.9, 8.69318053669168787648781409117),
    (0.97, 9.01340169986147920767385665078),
    (0.999, 9.15387277664091475046293159941),
)


def test_hull_chord_matches_mpmath_references():
    cases = (("cube", CUBE_POINT, CUBE_REFS), ("icosa", ICOSA_POINT, ICOSA_REFS))
    for name, x, refs in cases:
        body = load_fixture(name)
        for alpha, want in refs:
            got = halpha_chord(body, x, alpha)
            assert abs(got.value - want) < 1e-10
            assert abs(got.value - want) <= got.estimated_error < 1e-11


def test_hull_chord_where_foot_points_meet_edge_lines():
    # from a cube face centre the foot point on every side face lies on an
    # edge's line (d = 0), and the centre sits on its own face's diagonal
    cube = load_fixture("cube")
    centres = np.array([[0.5, 0.0, 0.5], [0.5, 1.0, 0.5], [0.0, 0.5, 0.5], [0.5, 0.5, 1.0]])
    normals = np.array([[0, -1, 0], [0, 1, 0], [-1, 0, 0], [0, 0, 1]], dtype=float)
    for alpha in (0.1, 0.5, 0.9):
        values = [
            halpha_chord(cube, x, alpha, normal=nu).value for x, nu in zip(centres, normals)
        ]
        assert np.ptp(values) < 1e-13 * values[0]
        nearby = halpha_chord(cube, centres[0] + [1e-8, 0.0, 2e-8], alpha).value
        assert nearby == pytest.approx(values[0], rel=1e-6)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@pytest.mark.parametrize("name", ["cube", "icosa", "hull3d"])
def test_hull_chord_is_invariant_under_motions_and_scales_under_dilation(name):
    rng = np.random.default_rng(19)
    body = corpus.random_hull3d(rng) if name == "hull3d" else load_fixture(name)
    quad = surface_quadrature(body, 80)
    rot, shift = random_rotation(rng), np.array([0.25, -0.5, 0.125])
    moved = Hull3D(body.vertices @ rot.T + shift, body.faces)
    for alpha in (0.001, 0.05, 0.5, 0.95, 0.999):
        for i in range(0, quad.node_count, 7):
            x, nu = quad.points[i], quad.normals[i]
            base = halpha_chord(body, x, alpha, normal=nu).value
            turned = halpha_chord(moved, rot @ x + shift, alpha, normal=rot @ nu).value
            assert turned == pytest.approx(base, rel=1e-12)
            for lam in (0.37, 2.9):
                grown = halpha_chord(body.scaled(lam), lam * x, alpha, normal=nu).value
                assert grown == pytest.approx(lam ** (-alpha) * base, rel=1e-12)


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


def test_a_supplied_normal_does_not_admit_off_surface_points():
    cube = load_fixture("cube")
    with pytest.raises(NonInteriorPointError):
        halpha_chord(cube, np.array([0.5, 0.5, 0.5]), 0.5, normal=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(NonInteriorPointError):
        halpha_chord(unit_disk(), np.array([0.5, 0.0]), 0.5, normal=np.array([1.0, 0.0]))
    # a quadrature node with its normal keeps its value
    for name, want in (("cube", 10.862335131037732), ("square", 4.0053359797756745),
                       ("ball3d", 8.885765876316732)):
        body = load_fixture(name)
        quad = surface_quadrature(body, 80)
        got = halpha_chord(body, quad.points[5], 0.5, normal=quad.normals[5]).value
        assert got == pytest.approx(want, rel=1e-15)
        assert got == halpha_chord(body, quad.points[5], 0.5).value


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
    assert bnd.value == pytest.approx(chord, rel=1e-12)


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


def solid(name):
    if name == "hull3d":
        return corpus.random_hull3d(np.random.default_rng(5))
    return load_fixture(name)


SOLIDS = ["cube", "icosa", "hull3d", "ball3d"]


@pytest.mark.parametrize("name", SOLIDS)
def test_boundary_equals_chord_on_solids(name):
    # the cells tile the surface, so their exact sum is the chord form's integral
    body = solid(name)
    quad = surface_quadrature(body, 320)
    for alpha in EDGE_ALPHAS:
        for i in range(quad.node_count):
            chord = halpha_chord(body, quad.points[i], alpha, normal=quad.normals[i])
            bnd = halpha_boundary(body, quad, i, alpha)
            assert bnd.value == pytest.approx(chord.value, rel=1e-12)
            assert bnd.estimated_error == chord.estimated_error


def test_boundary_of_foreign_quadrature_rejected():
    quad = surface_quadrature(unit_square(), 64)
    with pytest.raises(GeometryError):
        halpha_boundary(unit_disk(), quad, 0, 0.5)


# ---------------------------------------------------------------------------
# interaction sums


def condensed_index(count, i, j):
    """Position of the pair i < j in a `pdist`-ordered vector."""
    return count * i - i * (i + 1) // 2 + (j - i - 1)


def test_interaction_matrix_shape_and_symmetry():
    quad = surface_quadrature(unit_disk(), 120)
    mat = interaction_matrix(quad, 1.5)
    assert mat.shape == (120 * 119 // 2,)
    full = squareform(mat)
    assert np.array_equal(full, full.T)
    assert np.all(np.diag(full) == 0.0)
    assert mat.min() >= 0.0


def test_interaction_matrix_is_built_once_per_power():
    quad = surface_quadrature(unit_disk(), 120)
    mat = interaction_matrix(quad, 1.5)
    assert interaction_matrix(quad, 1.5) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0] = 0.0
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


def test_near_pair_geometry_is_built_once_per_node_set(monkeypatch):
    quad, twin = (surface_quadrature(load_fixture("cube"), 192) for _ in range(2))
    calls = {"split_cells": 0, "split4": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(
        SurfaceQuadrature, "split_cells", counted("split_cells", SurfaceQuadrature.split_cells))
    monkeypatch.setattr("fracgeo.geometry.split4", counted("split4", split4))
    assert quad.near_pairs is None and calls == {"split_cells": 0, "split4": 0}
    interaction_matrix(quad, 2.5)
    near = quad.near_pairs
    assert calls == {"split_cells": 1, "split4": 1}
    # a second power and repeated tails reuse the split and the sub-distances
    interaction_matrix(quad, 3.0)
    subset = NodeSubset(quad, quad.points[:, 0] > 0.0)
    for i in np.flatnonzero(subset.mask)[:8]:
        tail_integral(quad, i, subset, 0.5)
    assert calls == {"split_cells": 1, "split4": 1}
    assert quad.near_pairs is near
    assert len(near.first) >= quad.node_count
    for arr in near:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # a tail asked first builds the same geometry
    tail_integral(twin, 0, NodeSubset(twin, twin.points[:, 0] > 0.0), 0.5)
    assert calls == {"split_cells": 2, "split4": 2}
    for a, b in zip(twin.near_pairs, near):
        assert a.tobytes() == b.tobytes()


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
    near_i, near_j = np.nonzero((dist <= 2.0 * (1.0 + 1e-9) * spacing) & (dist > 0.0))
    pairs = [(i, j) for i, j in zip(near_i, near_j) if i < j]
    assert len(pairs) >= quad.node_count
    want, got = [], []
    for i, j in pairs:
        pi, wi = oracles.split_cell(quad, i)
        pj, wj = oracles.split_cell(quad, j)
        d = np.linalg.norm(pi[:, None, :] - pj[None, :, :], axis=2)
        want.append(float(np.sum(np.outer(wi, wj) / d**power)))
        got.append(mat[condensed_index(quad.node_count, i, j)])
    want = np.array(want)
    got = np.array(got)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "name, res", [("square", 64), ("ball2d", 96), ("cube", 192), ("ball3d", 320)]
)
def test_tails_match_a_per_pair_loop(name, res):
    # each near pair is summed with node i's sub-cells first, whichever way
    # round the shared geometry holds it
    quad = surface_quadrature(load_fixture(name), res)
    pts, sp = quad.points, 0.5
    flipped = 0
    for mask in (pts[:, 0] > 0.1 * pts[:, 1], pts[:, 0] <= 0.1 * pts[:, 1]):
        subset, out = NodeSubset(quad, mask), np.flatnonzero(~mask)
        gaps = np.linalg.norm(pts[mask][:, None, :] - pts[out][None, :, :], axis=2).min(axis=1)
        flipped += _check_tails(quad, subset, np.flatnonzero(mask)[np.argsort(gaps)[:8]], sp)
    assert flipped > 0


def _check_tails(quad, subset, nodes, sp):
    """Assert each node's tail equals the per-pair loop's bit for bit; count
    the near pairs whose other node comes first."""
    pts, w, power = quad.points, quad.weights, quad.n + sp
    out, flipped = np.flatnonzero(~subset.mask), 0
    for i in nodes:
        d = np.linalg.norm(pts[out] - pts[i], axis=1)
        row = w[i] * w[out] / d**power
        near = d <= 2.0 * (1.0 + 1e-9) * np.maximum(quad.spacings[i], quad.spacings[out])
        pi, wi = oracles.split_cell(quad, i)
        for k in np.flatnonzero(near):
            po, wo = oracles.split_cell(quad, out[k])
            dd = np.linalg.norm(pi[:, None, :] - po[None, :, :], axis=2)
            row[k] = float(np.sum(np.outer(wi, wo) / dd**power))
        flipped += np.count_nonzero(out[near] < i)
        want = float(row.sum() / w[i])
        assert np.float64(tail_integral(quad, i, subset, sp)).tobytes() == np.float64(want).tobytes()
    return flipped


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_condensed_matrix_matches_the_dense_build(name):
    body = load_fixture(name)
    for res in (128, 640):
        quad = surface_quadrature(body, res)
        upper = np.triu_indices(quad.node_count, 1)
        for s in (0.25, 0.5):
            power = quad.n + s
            dense = oracles.dense_interaction_matrix(quad, power)
            mat = interaction_matrix(quad, power)
            assert np.array_equal(mat.view(np.uint64), dense[upper].view(np.uint64))
            # the perimeter sums the same mixed pairs in the same order
            subset = NodeSubset(quad, quad.points[:, 0] > 0.1 * quad.points[:, 1])
            mixed = subset.mask[:, None] ^ subset.mask[None, :]
            assert frac_perimeter(subset, s) == float(dense[np.triu(mixed)].sum())
            values = np.sin(3.0 * quad.points[:, 0]) + quad.points[:, -1] ** 2
            du = np.abs(values[:, None] - values[None, :])
            want = float((dense * du).sum())
            assert gagliardo(ScalarField(quad, values), s, 1.0) == pytest.approx(want, rel=1e-14)


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
    assert double_layer(quad, 0) == pytest.approx(2.0 * np.pi, rel=1e-12)


@pytest.mark.parametrize("name", ["square", "ball2d", "cube", "ball3d"])
def test_node_set_operators_take_a_node_index(name):
    body = load_fixture(name)
    quad = surface_quadrature(body, 64)
    full = NodeSubset(quad, np.ones(quad.node_count, dtype=bool))
    operators = (
        lambda i: double_layer(quad, i),
        lambda i: tail_integral(quad, i, full, 0.5),
        lambda i: halpha_boundary(body, quad, i, 0.5).value,
    )
    for op in operators:
        assert op(np.int64(3)) == op(3)
        for i in (-1, quad.node_count):
            with pytest.raises(NonInteriorPointError):
                op(i)
        with pytest.raises(TypeError):
            op(quad.points[3])


@pytest.mark.parametrize("name", ["cube", "icosa", "ball3d"])
def test_solid_double_layer_is_half_the_sphere_at_every_node(name):
    quad = surface_quadrature(load_fixture(name), 1280)
    values = np.array([double_layer(quad, i) for i in range(quad.node_count)])
    assert np.max(np.abs(values - 2.0 * np.pi)) <= 1e-12 * 2.0 * np.pi


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


@pytest.mark.parametrize("name", SOLIDS)
def test_solid_angle_within_radius_plus_cap_is_half_the_sphere(name):
    body = solid(name)
    quad = surface_quadrature(body, 320)
    for i in (0, 5, 17, 40):
        x = quad.points[i]
        for radius in (1e-4, 0.05, 0.3, 0.7, 1.2, 2.5, 3.0):
            near = double_layer(quad, i, within=radius)
            cap = sphere_cap_measure(body, x, radius) / radius**2
            assert near + cap == pytest.approx(2.0 * np.pi, abs=1e-11)


@pytest.mark.parametrize("name", SOLIDS)
def test_double_layer_of_a_subset_and_its_complement_add_up(name):
    quad = surface_quadrature(solid(name), 320)
    rng = np.random.default_rng(8)
    for i in rng.integers(0, quad.node_count, 4):
        mask = rng.random(quad.node_count) < 0.5
        mask[i] = bool(rng.integers(2))  # x's own cell on either side
        subset = NodeSubset(quad, mask)
        for within in (None, 0.4, 1.1):
            full = double_layer(quad, int(i), within=within)
            parts = (double_layer(quad, int(i), subset=part, within=within)
                     for part in (subset, ~subset))
            assert sum(parts) == pytest.approx(full, abs=1e-12)


def _midpoint_double_layer(body, x, corners, levels):
    """Midpoint sum of the kernel over a cell split `levels` times."""
    if isinstance(body, Ball):
        tris = _split4_levels((corners - body.center) / body.radius, levels, True)
        bary, solid_angles = sphere_cells(tris)
        pts, nrms, w = body.center + body.radius * bary, bary, body.radius**2 * solid_angles
    else:
        tris = _split4_levels(corners, levels, False)
        cr = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        pts, w = tris.mean(axis=1), 0.5 * np.linalg.norm(cr, axis=1)
        nrms = cr / (2.0 * w[:, None])
    diff = pts - x
    return float(np.sum(w * np.vecdot(diff, nrms) / np.linalg.norm(diff, axis=1) ** 3))


def _split4_levels(tris, levels, sphere):
    tris = np.asarray(tris, dtype=float)[None]
    for _ in range(levels):
        tris = split4(tris, sphere)
    return tris


@pytest.mark.parametrize("name", ["icosa", "ball3d"])
def test_one_cell_double_layer_matches_a_deep_midpoint_sum(name):
    # cells two spacings or more from x: the midpoint sums at depth 5 and 6,
    # extrapolated in h^2, are good to about 1e-9 there
    body = load_fixture(name)
    quad = surface_quadrature(body, 320)
    x = quad.points[17]
    dist = np.linalg.norm(quad.points - x, axis=1)
    far = np.nonzero(dist >= 2.0 * quad.spacings.max())[0]
    picks = far[np.argsort(dist[far])][[0, 1, 5, 40, 120, -1]]
    for j in picks:
        mask = np.zeros(quad.node_count, dtype=bool)
        mask[j] = True
        got = double_layer(quad, 17, subset=NodeSubset(quad, mask))
        coarse, fine = (_midpoint_double_layer(body, x, quad.patches[j], k) for k in (5, 6))
        assert got == pytest.approx((4.0 * fine - coarse) / 3.0, rel=1e-8)


def _moved_quadrature(quad, rot, shift, lam):
    """The node set of quad, turned by rot, scaled by lam and shifted."""
    body = quad.body
    if isinstance(body, Ball):
        moved = Ball(3, lam * rot @ body.center + shift, lam * body.radius)
    else:
        moved = Hull3D(lam * body.vertices @ rot.T + shift, body.faces)
    return SurfaceQuadrature(
        moved, lam * quad.points @ rot.T + shift, quad.normals @ rot.T,
        lam**2 * quad.weights, quad.facet_ids, lam * quad.spacings,
        lam * quad.patches @ rot.T + shift,
    )


@pytest.mark.parametrize("name", SOLIDS)
def test_double_layer_is_invariant_under_motions_and_dilation(name):
    quad = surface_quadrature(solid(name), 320)
    rng = np.random.default_rng(23)
    rot, shift = random_rotation(rng), np.array([0.25, -0.5, 0.125])
    for lam in (1.0, 0.37, 2.9):
        moved = _moved_quadrature(quad, rot, shift, lam)
        for i in rng.integers(0, quad.node_count, 3):
            mask = rng.random(quad.node_count) < 0.5
            for within in (None, 0.3, 0.9):
                base = double_layer(quad, int(i), subset=NodeSubset(quad, mask), within=within)
                got = double_layer(moved, int(i), subset=NodeSubset(moved, mask),
                                   within=None if within is None else lam * within)
                assert got == pytest.approx(base, rel=1e-12, abs=1e-13)


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


def test_tail_rejects_sp_outside_the_positive_reals():
    quad = surface_quadrature(unit_disk(), 64)
    half = NodeSubset(quad, quad.points[:, 0] > 0)
    for sp in (np.nan, -0.5, 0.0, np.inf):
        with pytest.raises(ParamError):
            tail_integral(quad, 0, half, sp)


def fixture_quadrature(name, lam=1.0):
    """The fixture's node set at 256 nodes (curves) or 320 (surfaces), dilated by lam."""
    body = load_fixture(name)
    return surface_quadrature(body.scaled(lam), 256 if body.n == 1 else 320)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_weighted_tails_sum_to_the_perimeter(name):
    # the step that takes the pointwise bound to the set bound: the tails of
    # a set, weighted by its nodes' weights, add up to its perimeter
    quad = fixture_quadrature(name)
    d = np.linalg.norm(quad.points - quad.points[0], axis=1)
    rng = np.random.default_rng(5)
    for mask in (d <= 0.8 * np.median(d), rng.random(quad.node_count) < 0.4):
        subset = NodeSubset(quad, mask)
        for s in (0.25, 0.5, 0.75):
            tails = [tail_integral(quad, i, subset, s) for i in np.flatnonzero(mask)]
            got = float(np.dot(quad.weights[mask], tails))
            assert got == pytest.approx(frac_perimeter(subset, s), rel=1e-13)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_perimeter_energy_and_tail_scale_under_dilation(name):
    # pairs that sit on the near threshold stay on the same side of it
    quad = fixture_quadrature(name)
    n = quad.n
    subset = NodeSubset(quad, quad.points[:, 0] > 0.1 * quad.points[:, 1])
    # the tail is taken at the subset's node nearest the complement, so its
    # row holds near pairs
    inside, outside = quad.points[subset.mask], quad.points[~subset.mask]
    gaps = np.linalg.norm(inside[:, None, :] - outside[None, :, :], axis=2).min(axis=1)
    i = int(np.flatnonzero(subset.mask)[np.argmin(gaps)])
    values = np.sin(3.0 * quad.points[:, 0]) + quad.points[:, -1] ** 2
    for lam in (0.3, 2.5, 1000.0):
        grown = fixture_quadrature(name, lam)
        grown_subset = NodeSubset(grown, subset.mask)
        for s in (0.05, 0.5, 0.95):
            pairs = (
                (frac_perimeter(subset, s), frac_perimeter(grown_subset, s), n - s),
                (
                    gagliardo(ScalarField(quad, values), s, 2.0),
                    gagliardo(ScalarField(grown, values), s, 2.0),
                    n - 2.0 * s,
                ),
                (tail_integral(quad, i, subset, s), tail_integral(grown, i, grown_subset, s), -s),
            )
            for base, scaled, power in pairs:
                assert scaled == pytest.approx(lam**power * base, rel=1e-12)
