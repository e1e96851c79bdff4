"""Bodies, boundary node sets, and boundary-piece measures."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from fracgeo.geometry import (
    Ball,
    DegenerateError,
    NonConvexError,
    NotPolytopeError,
    ParamError,
    Hull3D,
    Params,
    Polygon2D,
    ResolutionTooLowError,
    TargetOutOfRangeError,
    NodeSubset,
    ball_intersection_volume,
    ball_patch_measure,
    make_body,
    matching_radius,
    projection_measure,
    sphere_cap_measure,
    surface_quadrature,
)
from fracgeo.fixtures import load_fixture
from fracgeo.flow import sample_boundary
from fracgeo.inequalities import corpus
from fracgeo.icosphere import (
    icosahedron,
    sphere_cells,
    sphere_mesh,
    spherical_triangle_areas,
    split4,
)

import oracles


def unit_square() -> Polygon2D:
    return make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    )


def unit_disk() -> Ball:
    return Ball(2, np.zeros(2), 1.0)


def regular_polygon(k: int, radius: float = 1.0) -> Polygon2D:
    theta = 2.0 * np.pi * np.arange(k) / k
    verts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return make_body({"type": "polygon", "vertices": verts.tolist()})


# ---------------------------------------------------------------------------
# construction and global measures


def test_unit_square_measures():
    sq = unit_square()
    assert sq.area() == pytest.approx(1.0, abs=1e-14)
    assert sq.perimeter() == pytest.approx(4.0, abs=1e-14)
    assert sq.diameter() == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_regular_512gon_perimeter_closed_form():
    poly = regular_polygon(512)
    assert poly.perimeter() == pytest.approx(1024.0 * np.sin(np.pi / 512), rel=1e-12)


def test_ball3d_surface_and_volume():
    ball = Ball(3, np.zeros(3), 2.0)
    assert ball.perimeter() == pytest.approx(16.0 * np.pi, rel=1e-14)
    assert ball.area() == pytest.approx(32.0 * np.pi / 3.0, rel=1e-14)
    assert ball.diameter() == 4.0


def test_collinear_vertices_are_degenerate():
    with pytest.raises(DegenerateError):
        make_body({"type": "polygon", "vertices": [[0, 0], [1, 0], [2, 0]]})


def test_dented_polygon_is_rejected():
    verts = [[0, 0], [2, 0], [1, 0.5], [2, 2], [0, 2]]
    with pytest.raises(NonConvexError):
        make_body({"type": "polygon", "vertices": verts})


def test_unknown_body_type():
    with pytest.raises(DegenerateError):
        make_body({"type": "torus"})
    with pytest.raises(DegenerateError):
        make_body({"type": "ball", "dim": 2, "radius": -1.0})


def test_random_ellipse_points_match_hull_oracle():
    rng = np.random.default_rng(11)
    theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=50))
    pts = np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=1)
    poly = make_body({"type": "polygon", "vertices": pts.tolist()})
    hull = ConvexHull(pts)
    assert poly.edge_count == len(hull.vertices)
    assert poly.area() == pytest.approx(hull.volume, rel=1e-12)
    # strict convexity: every cross product positive
    e = poly.edges
    cross = e[:, 0] * np.roll(e, -1, axis=0)[:, 1] - e[:, 1] * np.roll(e, -1, axis=0)[:, 0]
    assert cross.min() > 0.0


def test_clockwise_input_is_reoriented():
    poly = make_body(
        {"type": "polygon", "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}
    )
    assert poly.area() == pytest.approx(1.0)


def test_hull_without_faces_is_triangulated():
    cube = make_body(
        {
            "type": "hull3d",
            "vertices": [
                [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
            ],
        }
    )
    assert cube.perimeter() == pytest.approx(6.0, rel=1e-12)
    assert cube.area() == pytest.approx(1.0, rel=1e-12)


def _fresh_polygon_arrays(v):
    e = np.roll(v, -1, axis=0) - v
    nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
    nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
    return {"edges": e, "edge_lengths": np.linalg.norm(e, axis=1),
            "facet_normals": nrm, "facet_offsets": np.einsum("ij,ij->i", nrm, v)}


def _fresh_hull_arrays(v, f):
    c = v[f]
    cr = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
    nrm = cr / np.linalg.norm(cr, axis=1, keepdims=True)
    return {"face_corners": c, "facet_normals": nrm,
            "face_areas": 0.5 * np.linalg.norm(cr, axis=1),
            "facet_offsets": np.einsum("ij,ij->i", nrm, c[:, 0])}


def _bit_equal(a, b):
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.uint64), np.ascontiguousarray(b).view(np.uint64)
    )


@pytest.mark.parametrize("name", ["square", "thinrect", "ellipse", "cube", "icosa"])
def test_body_arrays_are_stored_read_only_and_exact(name):
    if name == "ellipse":
        theta = np.sort(np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, 40))
        pts = np.stack([2.0 * np.cos(theta), np.sin(theta)], axis=1)
        body = make_body({"type": "polygon", "vertices": pts})
    else:
        body = load_fixture(name)
    for b in (body, body.scaled(2.5), body.scaled(1e-3)):
        if isinstance(b, Hull3D):
            fresh = _fresh_hull_arrays(b.vertices, b.faces)
        else:
            fresh = _fresh_polygon_arrays(b.vertices)
        assert not b.vertices.flags.writeable
        for attr, want in fresh.items():
            got = getattr(b, attr)
            assert got is getattr(b, attr)
            assert not got.flags.writeable
            assert _bit_equal(got, want), attr


def test_body_freezes_a_copy_of_its_vertices():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    poly = Polygon2D(v)
    assert v.flags.writeable
    v[0] = [0.5, 0.5]
    assert np.array_equal(poly.vertices[0], [0.0, 0.0])
    with pytest.raises(ValueError):
        poly.facet_normals[0, 0] = 2.0
    cube = load_fixture("cube")
    verts = np.array(cube.vertices)
    hull = Hull3D(verts, np.array(cube.faces))
    verts *= 3.0
    assert hull.perimeter() == pytest.approx(6.0, rel=1e-12)


@pytest.mark.parametrize("name", ["square", "cube", "ball2d", "ball3d"])
def test_contains_accepts_lists_and_tuples(name):
    body = load_fixture(name)
    dim = body.dim
    inner, outer = [0.01] * dim, [5.0] * dim
    if name in ("square", "cube"):
        inner = [0.5] * dim
    for point, want in ((inner, True), (outer, False)):
        got = body.contains(point)
        assert isinstance(got, bool) and got is want
        assert body.contains(tuple(point)) is want
    many = body.contains([inner, outer, inner])
    assert isinstance(many, np.ndarray)
    assert many.tolist() == [True, False, True]
    assert body.contains((tuple(inner), tuple(outer))).tolist() == [True, False]


def _indexed_subdivide(vertices, faces):
    """Reference 4-split on a shared-vertex mesh, one edge midpoint per edge."""
    midpoint_cache = {}
    verts = [tuple(p) for p in vertices]

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in midpoint_cache:
            m = (vertices[i] + vertices[j]) / 2.0
            m /= np.linalg.norm(m)
            midpoint_cache[key] = len(verts)
            verts.append(tuple(m))
        return midpoint_cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(verts, dtype=float), np.array(new_faces, dtype=int)


@pytest.mark.parametrize("level", [0, 2, 3])
def test_sphere_mesh_is_built_once_per_level(level):
    first = sphere_mesh(level)
    again = sphere_mesh(level)
    v, f = icosahedron()
    for _ in range(level):
        v, f = _indexed_subdivide(v, f)
    corners = v[f]
    nodes = corners.mean(axis=1)
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    fresh = (corners, nodes,
             spherical_triangle_areas(corners[:, 0], corners[:, 1], corners[:, 2]))
    for got, same, want in zip(first, again, fresh):
        assert got is same
        assert not got.flags.writeable
        assert _bit_equal(got, want)
    assert sphere_mesh(level + 1)[1].shape == (20 * 4 ** (level + 1), 3)


# ---------------------------------------------------------------------------
# the triangle 4-split


def _flat_area(tris):
    cr = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return 0.5 * np.linalg.norm(cr, axis=1)


def test_flat_split_is_parent_major_with_exact_quarters():
    tris = np.random.default_rng(3).uniform(-1.0, 1.0, size=(5, 3, 3))
    kids = split4(tris)
    assert kids.shape == (20, 3, 3)
    for k, c in enumerate(tris):
        m01, m12, m20 = (c[0] + c[1]) / 2, (c[1] + c[2]) / 2, (c[2] + c[0]) / 2
        want = np.array([[c[0], m01, m20], [c[1], m12, m01], [c[2], m20, m12], [m01, m12, m20]])
        assert _bit_equal(kids[4 * k : 4 * k + 4], want)
    # the medial triangle and the three corner triangles all have a quarter
    # of the parent's area; on dyadic corners the quarters are exact
    def doubled(t):
        u, v = t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]
        return np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])

    grid = np.random.default_rng(4).integers(-64, 64, size=(6, 3, 2)).astype(float)
    grid = grid[doubled(grid) > 0]
    assert np.array_equal(doubled(split4(grid)), np.repeat(doubled(grid) / 4.0, 4))
    assert np.allclose(_flat_area(kids), np.repeat(_flat_area(tris) / 4.0, 4), rtol=1e-13)


def test_sphere_split_partitions_the_solid_angle():
    rng = np.random.default_rng(5)
    centres = rng.normal(size=(40, 1, 3))
    tris = centres + 0.3 * rng.normal(size=(40, 3, 3))
    tris /= np.linalg.norm(tris, axis=2, keepdims=True)
    kids = split4(tris, sphere=True)
    # unit to within the rounding of the norm that measures it
    assert np.allclose(np.linalg.norm(kids, axis=2), 1.0, rtol=0.0, atol=4.5e-16)
    area = lambda t: spherical_triangle_areas(t[:, 0], t[:, 1], t[:, 2])
    sums = area(kids).reshape(-1, 4).sum(axis=1)
    assert np.max(np.abs(sums - area(tris))) <= 1e-15
    # corners pass through; midpoints round like one vector's norm
    for k, c in enumerate(tris):
        m01 = (c[0] + c[1]) / np.linalg.norm(c[0] + c[1])
        assert _bit_equal(kids[4 * k, 0], c[0]) and _bit_equal(kids[4 * k, 1], m01)


# unit-vector corners of spherical triangles about 1e-3, 1e-5, 1e-6 and 1e-7
# across, and their solid angles: mpmath at 50 digits, corners renormalized
# exactly, computed offline (mpmath is not a dependency)
TINY_TRIANGLES = (
    ([[0.6184333453574478, -0.775573795903496, 0.12659180249067534],
      [0.6176920038036817, -0.7762464717766896, 0.12608728520843657],
      [0.6211634097117971, -0.7734499402233364, 0.12621889083545118]],
     1.0668131210193403855e-6),
    ([[-0.219736084992133, -0.5218502955796553, -0.8242501573889789],
      [-0.2197229447362868, -0.5218579332526126, -0.824248824723291],
      [-0.21971724320074557, -0.5218509095317337, -0.8242547914699475]],
     8.2401867737017024783e-11),
    ([[-0.09062828404019384, 0.26792249853132427, 0.95916841530185],
      [-0.09062890739403115, 0.267922469629216, 0.9591683644764071],
      [-0.09062746179366661, 0.2679229155642938, 0.9591683765035032]],
     1.2312465814673843028e-13),
    ([[-0.8960256696920277, 0.32357302502164176, -0.3040369989512747],
      [-0.896025666415543, 0.3235729327490667, -0.30403710680893864],
      [-0.8960256063762114, 0.3235731734246849, -0.3040370276101605]],
     1.040753439937742903e-14),
)


def test_spherical_triangle_areas_keep_accuracy_on_tiny_triangles():
    corners = np.array([c for c, _ in TINY_TRIANGLES])
    want = np.array([area for _, area in TINY_TRIANGLES])
    got = spherical_triangle_areas(corners[:, 0], corners[:, 1], corners[:, 2])
    assert np.max(np.abs(got / want - 1.0)) <= 4e-15


# ---------------------------------------------------------------------------
# surface node sets


def test_circle_quadrature_counts_and_total():
    quad = surface_quadrature(unit_disk(), 360)
    assert quad.node_count == 360
    assert quad.total_measure() == pytest.approx(2.0 * np.pi, abs=1e-10)
    assert np.allclose(np.linalg.norm(quad.normals, axis=1), 1.0, atol=1e-12)


def test_square_quadrature_exact_total():
    quad = surface_quadrature(unit_square(), 16)
    assert quad.node_count == 16
    assert quad.total_measure() == pytest.approx(4.0, abs=1e-12)


LAYOUT_BODIES = ["square", "thinrect", "disk-512gon"] + [
    f"{kind}-{i}" for kind in ("ellipse", "box") for i in range(20)
]


def layout_body(name):
    kind, _, i = name.partition("-")
    if not i:
        return load_fixture(name)
    if kind == "disk":
        return corpus.disk_polygon(512)
    rng = np.random.default_rng([int(i), 23])
    return corpus.random_ellipse_polygon(rng) if kind == "ellipse" else corpus.random_box2d(rng)


@pytest.mark.parametrize("name", LAYOUT_BODIES)
def test_polygon_layouts_match_the_per_edge_loops(name):
    # node sets and flow markers cut edges with one vectorized sampler
    body = layout_body(name)
    k = body.edge_count
    for count in (k, 3 * k + 1, 40 * k):
        quad = surface_quadrature(body, count)
        got = (quad.points, quad.normals, quad.weights, quad.facet_ids, quad.spacings,
               quad.patches)
        for mine, ref in zip(got, oracles.polygon_nodes_per_edge(body, count), strict=True):
            assert mine.dtype == ref.dtype and np.array_equal(mine, ref)
        assert np.array_equal(sample_boundary(body, count), oracles.markers_per_edge(body, count))


def test_icosahedron_normals_point_outward():
    quad = surface_quadrature(load_fixture("icosa"), 40)
    centroid = quad.points.mean(axis=0)
    outward = np.einsum("ij,ij->i", quad.normals, quad.points - centroid)
    assert outward.min() > 0.0


def test_resolution_floor_is_enforced():
    with pytest.raises(ResolutionTooLowError):
        surface_quadrature(unit_disk(), 4)
    with pytest.raises(ResolutionTooLowError):
        surface_quadrature(unit_square(), 3)


def test_split_cells_weights_partition_parent():
    for body, res in (
        (unit_square(), 16), (unit_disk(), 32), (load_fixture("icosa"), 40),
        (load_fixture("ball3d"), 80),
    ):
        quad = surface_quadrature(body, res)
        pts, w = quad.split_cells(np.arange(quad.node_count))
        assert pts.shape == (quad.node_count, 4, body.dim)
        np.testing.assert_allclose(w.sum(axis=1), quad.weights, rtol=1e-12)


def test_convexity_node_pair_invariant():
    for name in ("square", "ball2d", "icosa", "cube"):
        quad = surface_quadrature(load_fixture(name), 48)
        gap = np.einsum(
            "ijk,jk->ij", quad.points[None, :, :] - quad.points[:, None, :], quad.normals
        )
        assert gap.min() >= -1e-9


def test_scaled_measures_covariance():
    sq = unit_square()
    for lam in (0.5, 2.0):
        assert sq.scaled(lam).perimeter() == pytest.approx(lam * 4.0, rel=1e-12)
        assert sq.scaled(lam).area() == pytest.approx(lam**2, rel=1e-12)
        assert sq.scaled(lam).diameter() == pytest.approx(lam * np.sqrt(2), rel=1e-12)


# ---------------------------------------------------------------------------
# matched radii and boundary-piece measures


def test_matching_radius_half_circle():
    quad = surface_quadrature(unit_disk(), 720)
    x = quad.points[0]
    r = matching_radius(quad, x, np.pi)
    # half the circumference sits within the chord of a quarter turn
    assert r == pytest.approx(np.sqrt(2.0), abs=2e-2)


def test_matching_radius_full_surface():
    quad = surface_quadrature(unit_disk(), 360)
    r = matching_radius(quad, quad.points[0], quad.total_measure())
    assert r >= quad.body.diameter() - 2.0 * quad.spacings.max()


def test_matching_radius_monotone_in_target():
    quad = surface_quadrature(unit_square(), 64)
    x = quad.points[0]
    targets = [0.001 * 4.0, 0.01 * 4.0, 0.1 * 4.0, 4.0]
    radii = [matching_radius(quad, x, t) for t in targets]
    assert all(a <= b + 1e-12 for a, b in zip(radii, radii[1:]))


def test_matching_radius_target_range():
    quad = surface_quadrature(unit_square(), 64)
    with pytest.raises(TargetOutOfRangeError):
        matching_radius(quad, quad.points[0], 0.0)
    with pytest.raises(TargetOutOfRangeError):
        matching_radius(quad, quad.points[0], 4.0 + 1.0)


def test_matching_radius_inverts_patch_measure():
    for name, res in (("ball2d", 360), ("square", 64)):
        quad = surface_quadrature(load_fixture(name), res)
        x = quad.points[3]
        for r0 in (0.3, 0.8, 1.4):
            m = ball_patch_measure(quad, x, r0)
            if m <= 0.0:
                continue
            r = matching_radius(quad, x, m)
            assert abs(ball_patch_measure(quad, x, r) - m) <= quad.weights.max() + 1e-12


def test_matching_radius_reaches_nodes_off_the_body():
    # nodes more than twice the diameter away still fall inside the bracket
    quad = surface_quadrature(regular_polygon(64), 64)
    for x in ([10.0, 0.0], [0.0, -3.5], [2.5, 2.5], [0.1, 0.2]):
        for target in (0.5, np.pi, quad.total_measure()):
            r = matching_radius(quad, x, target)
            assert ball_patch_measure(quad, x, r) >= target


def test_cap_measure_half_plane_limit():
    big = make_body(
        {"type": "polygon",
         "vertices": [[-100, 0], [100, 0], [100, 200], [-100, 200]]}
    )
    x = np.array([0.0, 0.0])
    for radius in (0.5, 1.0, 2.0):
        cap = sphere_cap_measure(big, x, radius)
        assert cap == pytest.approx(np.pi * radius, rel=1e-12)


def test_cap_ratio_small_radius_limit():
    disk = unit_disk()
    cap = sphere_cap_measure(disk, np.array([1.0, 0.0]), 0.01)
    assert cap / 0.01 == pytest.approx(np.pi, rel=0.05)
    ball = Ball(3, np.zeros(3), 1.0)
    cap = sphere_cap_measure(ball, np.array([0.0, 0.0, 1.0]), 0.05)
    assert cap / 0.05**2 == pytest.approx(2.0 * np.pi * (1.0 - 0.05 / 2.0), rel=1e-12)


def test_cap_measure_matches_circle_closed_form():
    # unit circle: the sphere around a boundary point cuts an arc of the
    # body bounded by the two chord crossings
    disk = unit_disk()
    x = np.array([1.0, 0.0])
    for radius in (0.4, 1.0, 1.5):
        # a point x + r e(psi) lies inside the unit disk iff cos(psi) < -r/2,
        # so the contained arc has angular width pi - 2 arcsin(r/2)
        width = np.pi - 2.0 * np.arcsin(radius / 2.0)
        assert sphere_cap_measure(disk, x, radius) == pytest.approx(
            radius * width, rel=1e-12
        )


def _scan_cap_measure(body, x, radius, resolution=4096):
    """Reference: the planar cap measure the package computed before its
    closed form, a scan of the circle bisecting each in/out change."""
    m = max(int(resolution), 64)
    theta = 2.0 * np.pi * np.arange(m) / m
    pts = x + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    inside = body.contains(pts)
    if inside.all():
        return 2.0 * np.pi * radius
    if not inside.any():
        return 0.0
    measure = 0.0
    h = 2.0 * np.pi / m
    for j in range(m):
        k = (j + 1) % m
        if inside[j] and inside[k]:
            measure += h
        elif inside[j] != inside[k]:
            lo, hi = theta[j], theta[j] + h
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                p = x + radius * np.array([np.cos(mid), np.sin(mid)])
                if bool(body.contains(p)) == inside[j]:
                    lo = mid
                else:
                    hi = mid
            cross = 0.5 * (lo + hi)
            measure += (cross - theta[j]) if inside[j] else (theta[j] + h - cross)
    return radius * measure


def test_planar_cap_measure_matches_the_scan():
    rng = np.random.default_rng(8)
    bodies = [corpus.random_ellipse_polygon(rng) for _ in range(3)]
    bodies += [unit_disk(), Ball(2, np.array([0.5, -0.3]), 1.3)]
    cases = 0
    for body in bodies:
        if isinstance(body, Polygon2D):
            lo, hi = body.vertices.min(axis=0), body.vertices.max(axis=0)
        else:
            lo, hi = body.center - body.radius, body.center + body.radius
        for _ in range(16):
            # inside, on and around the body; radii out past its diameter
            x = rng.uniform(lo - 0.3, hi + 0.3)
            radius = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0))))
            want = _scan_cap_measure(body, x, radius)
            got = sphere_cap_measure(body, x, radius)
            assert abs(got - want) <= 1e-12 * 2.0 * np.pi * radius
            cases += 0.0 < want < 2.0 * np.pi * radius
        x = body.vertices[0] if isinstance(body, Polygon2D) else body.center + [body.radius, 0.0]
        big = 1.5 * body.diameter()
        assert sphere_cap_measure(body, x, big) == _scan_cap_measure(body, x, big) == 0.0
    assert cases >= 20  # a good share of the circles cross the boundary


def box(lo, hi) -> Hull3D:
    corners = [[x, y, z] for x in (lo[0], hi[0]) for y in (lo[1], hi[1]) for z in (lo[2], hi[2])]
    return make_body({"type": "hull3d", "vertices": corners})


def assert_measures(body, x, radius, cap, volume, rel=1e-12):
    got_cap = sphere_cap_measure(body, x, radius)
    got_volume = ball_intersection_volume(body, x, radius)
    assert got_cap == pytest.approx(cap, rel=rel, abs=rel * radius**body.n)
    assert got_volume == pytest.approx(volume, rel=rel, abs=rel * radius**body.dim)
    assert ball_intersection_volume(body, x, radius, got_cap) == got_volume


@pytest.mark.parametrize("depth", [-0.6, -0.3, 0.0, 0.2, 0.55])
def test_cap_and_volume_under_a_half_space(depth):
    # x at signed depth d under the face of a large box or square, radius 0.7
    r, d = 0.7, depth
    big = box([-50.0, -50.0, -100.0], [50.0, 50.0, 0.0])
    cap = 2.0 * np.pi * r * (r + d)
    volume = 4.0 / 3.0 * np.pi * r**3 - np.pi * (r - d) ** 2 * (2.0 * r + d) / 3.0
    assert_measures(big, np.array([0.3, -0.2, -d]), r, cap, volume)
    square = make_body(
        {"type": "polygon", "vertices": [[-50, -100], [50, -100], [50, 0], [-50, 0]]}
    )
    arc = 2.0 * r * (np.pi - np.arccos(d / r))
    area = r * r * (np.pi - np.arccos(d / r)) + d * np.sqrt(r * r - d * d)
    assert_measures(square, np.array([0.3, -d]), r, arc, area)


def test_cap_and_volume_on_the_unit_cube():
    cube = load_fixture("cube")
    x = np.array([0.5, 0.5, 1.0])
    for r in (0.15, 0.3, 0.5):
        # the half ball under the face centre
        assert_measures(cube, x, r, 2.0 * np.pi * r * r, 2.0 * np.pi * r**3 / 3.0)
    for r in (0.55, 0.6, 0.7):
        # past the four side faces, whose half caps do not meet while r < sqrt(1/2)
        h = r - 0.5
        cap = 2.0 * np.pi * r * r - 4.0 * np.pi * r * h
        volume = 2.0 * np.pi * r**3 / 3.0 - 2.0 * np.pi * h * h * (3.0 * r - h) / 3.0
        assert_measures(cube, x, r, cap, volume)
    # a quarter ball on an edge, an eighth at a corner
    for y, share in (([0.5, 1.0, 1.0], 0.25), ([1.0, 1.0, 1.0], 0.125)):
        ball = 4.0 / 3.0 * np.pi * 0.3**3
        assert_measures(cube, np.array(y), 0.3, share * 4.0 * np.pi * 0.3**2, share * ball)
    # wholly inside, wholly outside, and a sphere around the whole cube
    centre = np.array([0.5, 0.5, 0.5])
    assert_measures(cube, centre, 0.4, 4.0 * np.pi * 0.16, 4.0 / 3.0 * np.pi * 0.064)
    assert_measures(cube, np.array([3.0, 0.5, 0.5]), 1.5, 0.0, 0.0)
    assert_measures(cube, x, 2.0, 0.0, 1.0)


@pytest.mark.parametrize("r", [0.45, 1.0, 2.5])
def test_cap_and_volume_of_a_slab(r):
    # a slab of width 0.4 under x: the sphere meets both faces, so the cap is an annulus
    w = 0.4
    slab = box([-50.0, -50.0, -w], [50.0, 50.0, 0.0])
    x = np.array([0.1, 0.2, 0.0])
    assert_measures(slab, x, r, 2.0 * np.pi * r * w, np.pi * (r * r * w - w**3 / 3.0))
    strip = make_body({"type": "polygon", "vertices": [[-50, -w], [50, -w], [50, 0], [-50, 0]]})
    arc = 2.0 * r * np.arcsin(w / r)
    area = w * np.sqrt(r * r - w * w) + r * r * np.arcsin(w / r)
    assert_measures(strip, np.array([0.1, 0.0]), r, arc, area)


def test_ball_cap_and_lens_closed_forms():
    big = 1.3
    for dim in (2, 3):
        ball = Ball(dim, np.full(dim, 0.2), big)
        pole = ball.center + big * np.eye(dim)[-1]
        # equal balls a radius apart
        if dim == 2:
            lens = (2.0 * np.pi / 3.0 - np.sqrt(3.0) / 2.0) * big**2
        else:
            lens = 5.0 * np.pi * big**3 / 12.0
        assert ball_intersection_volume(ball, pole, big) == pytest.approx(lens, rel=1e-12)
        # wholly inside and wholly outside
        small = Ball(dim, ball.center, 0.5)
        assert ball_intersection_volume(ball, ball.center, 0.5) == pytest.approx(small.area())
        assert ball_intersection_volume(ball, ball.center, 2.0) == pytest.approx(ball.area())
        assert ball_intersection_volume(ball, pole + 0.5, 0.1) == 0.0
        assert sphere_cap_measure(ball, ball.center, 0.5) == pytest.approx(small.perimeter())
        assert sphere_cap_measure(ball, ball.center, 2.0) == 0.0
        assert sphere_cap_measure(ball, pole + 0.5, 0.1) == 0.0
    ball = Ball(3, np.array([0.2, -0.4, 0.1]), big)
    rng = np.random.default_rng(4)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for _ in range(12):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        dist, r = rng.uniform(0.0, 2.0), rng.uniform(0.05, 2.5)
        # on the sphere q = -r / 2R; off it the cap is 2 pi r^2 (1 + q)
        on = 2.0 * np.pi * r * r * max(1.0 - r / (2.0 * big), 0.0)
        assert sphere_cap_measure(ball, ball.center + big * e, r) == pytest.approx(on, rel=1e-12)

        def cap(s):
            q = np.clip((big**2 - dist**2 - s * s) / (2 * s * dist), -1.0, 1.0)
            return 2.0 * np.pi * s * s * (1.0 + q)

        x = ball.center + dist * e
        assert sphere_cap_measure(ball, x, r) == pytest.approx(cap(r), rel=1e-12, abs=1e-15)
        # the volume is the cap integrated over the radius, a cubic between the kinks
        kinks = np.unique(np.clip([0.0, abs(big - dist), big + dist, r], 0.0, r))
        total = sum(
            0.5 * (hi - lo) * np.dot(weights, cap(lo + 0.5 * (hi - lo) * (nodes + 1.0)))
            for lo, hi in zip(kinks[:-1], kinks[1:])
        )
        assert ball_intersection_volume(ball, x, r) == pytest.approx(total, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize(
    "ball",
    [load_fixture("ball3d"), Ball(3, np.array([3.0, 1.0, -2.0]), 0.01),
     Ball(3, np.array([100.0, 0.0, 0.0]), 7.0)],
    ids=["ball3d", "small-off-centre", "far-off-centre"],
)
def test_ball_cap_at_nodes_keeps_full_accuracy_at_small_radii(ball):
    # a node sits a rounding of its coordinates off the sphere; the cap must
    # not turn that into an error of eps / r
    quad = surface_quadrature(ball, 320)
    for r in ball.radius * np.array([1e-2, 1e-4, 1e-6]):
        want = 2.0 * np.pi * r * r * (1.0 - r / (2.0 * ball.radius))
        got = np.array([sphere_cap_measure(ball, x, r) for x in quad.points])
        assert np.all(np.abs(got - want) <= 1e-14 * want)


def _walk_cap_measure(body, x, radius, resolution=4096):
    """Reference: the solid cap measure the package computed before its
    arc formula, icosahedral cells classified by node and corners, the
    straddling ones split three levels down (error up to about 0.5 %)."""
    level = 0
    while 20 * 4**level < resolution:
        level += 1
    corners, nodes, solid = sphere_mesh(level)
    return radius**2 * _cap_cells(body, x, radius, corners, nodes, solid, depth=3)


def _cap_cells(body, x, radius, corners, nodes, solid, depth):
    node_in = body.contains(x + radius * nodes)
    corner_in = body.contains(x + radius * corners.reshape(-1, 3)).reshape(len(corners), 3)
    uniform_in = node_in & corner_in.all(axis=1)
    uniform_out = ~node_in & ~corner_in.any(axis=1)
    total = float(solid[uniform_in].sum())
    straddle = ~(uniform_in | uniform_out)
    if depth == 0:
        return total + float(solid[straddle & node_in].sum())
    subs = split4(corners[straddle], sphere=True)
    bary, areas = sphere_cells(subs)
    for k in range(0, len(subs), 4):
        total += _cap_cells(
            body, x, radius, subs[k : k + 4], bary[k : k + 4], areas[k : k + 4], depth - 1
        )
    return total


@pytest.mark.parametrize("seed", [0, 16, 208])
def test_hull_cap_matches_the_cell_walk(seed):
    rng = np.random.default_rng([seed, 31])
    body = corpus.random_hull3d(rng)
    quad = surface_quadrature(body, 80)
    for _ in range(3):
        x = quad.points[int(rng.integers(quad.node_count))]
        radius = float(rng.uniform(0.15, 0.45)) * body.diameter()
        got = sphere_cap_measure(body, x, radius)
        assert abs(got - _walk_cap_measure(body, x, radius)) <= 5e-3 * got


def test_hull_volume_is_the_cap_integrated_over_the_radius():
    # d|K and B_r(x)|/dr = |dB_r(x) and K|; the cap is smooth between the
    # radii at which the sphere meets a vertex, an edge or a facet plane
    rng = np.random.default_rng(23)
    body = corpus.random_hull3d(rng)
    quad = surface_quadrature(body, 80)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    for i in (3, 41, 66):
        x = quad.points[i]
        radius = 0.4 * body.diameter()
        c = body.face_corners - x
        e = np.roll(c, -1, axis=1) - c
        t = np.clip(-np.vecdot(c, e) / np.vecdot(e, e), 0.0, 1.0)
        kinks = np.concatenate([
            np.linalg.norm(body.vertices - x, axis=1),
            np.abs(body.facet_offsets - body.facet_normals @ x),
            np.linalg.norm(c + t[..., None] * e, axis=-1).ravel(),
        ])
        edges = np.unique(np.concatenate([[0.0, radius], kinks[kinks < radius]]))
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            rho = lo + 0.5 * (hi - lo) * (nodes + 1.0)
            caps = [sphere_cap_measure(body, x, s) for s in rho]
            total += 0.5 * (hi - lo) * np.dot(weights, caps)
        assert ball_intersection_volume(body, x, radius) == pytest.approx(total, rel=1e-6)


def test_polygon_area_is_the_divergence_identity():
    # area = (r cap + sum_j h_j |edge_j and B|) / 2, each chord from the
    # roots of |a + t d|^2 = r^2 clipped to the edge
    rng = np.random.default_rng(12)
    for _ in range(3):
        body = corpus.random_ellipse_polygon(rng)
        lo, hi = body.vertices.min(axis=0), body.vertices.max(axis=0)
        for _ in range(10):
            x = rng.uniform(lo - 0.3, hi + 0.3)
            radius = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
            h = body.facet_offsets - body.facet_normals @ x
            a, d = body.vertices - x, body.edges
            dd, ad = np.vecdot(d, d), np.vecdot(a, d)
            root = np.sqrt(np.maximum(ad**2 - dd * (np.vecdot(a, a) - radius**2), 0.0))
            t0, t1 = np.clip((-ad - root) / dd, 0, 1), np.clip((-ad + root) / dd, 0, 1)
            chords = (t1 - t0) * np.sqrt(dd)
            want = 0.5 * (radius * sphere_cap_measure(body, x, radius) + h @ chords)
            got = ball_intersection_volume(body, x, radius)
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13 * radius**2)


def _random_rotation(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    return q if np.linalg.det(q) > 0 else -q


@pytest.mark.parametrize("name", ["square", "polygon", "cube", "icosa", "hull3d"])
def test_cap_and_volume_are_invariant_under_motions_and_scale_under_dilation(name):
    rng = np.random.default_rng(29)
    if name == "polygon":
        body = corpus.random_ellipse_polygon(rng)
    elif name == "hull3d":
        body = corpus.random_hull3d(rng)
    else:
        body = load_fixture(name)
    rot = _random_rotation(rng, body.dim)
    shift = np.array([0.25, -0.5, 0.125])[: body.dim]
    if body.dim == 2:
        moved = Polygon2D(body.vertices @ rot.T + shift)
    else:
        moved = Hull3D(body.vertices @ rot.T + shift, body.faces)
    quad = surface_quadrature(body, 80)
    for i in range(0, quad.node_count, quad.node_count // 8):
        x = quad.points[i]
        for frac in (0.1, 0.3, 0.6, 1.2):
            radius = frac * body.diameter()
            cap = sphere_cap_measure(body, x, radius)
            volume = ball_intersection_volume(body, x, radius)
            assert volume > 0.0 and (cap > 0.0 or frac > 0.5)
            y = rot @ x + shift
            assert sphere_cap_measure(moved, y, radius) == pytest.approx(cap, rel=1e-12)
            assert ball_intersection_volume(moved, y, radius) == pytest.approx(volume, rel=1e-12)
            for lam in (0.37, 2.9):
                grown = body.scaled(lam)
                assert sphere_cap_measure(grown, lam * x, lam * radius) == pytest.approx(
                    lam**body.n * cap, rel=1e-12
                )
                assert ball_intersection_volume(grown, lam * x, lam * radius) == pytest.approx(
                    lam**body.dim * volume, rel=1e-12
                )


def test_patch_measure_saturates_at_diameter():
    for name in ("square", "ball2d", "icosa"):
        quad = surface_quadrature(load_fixture(name), 48)
        body = quad.body
        full = ball_patch_measure(quad, quad.points[0], body.diameter() * 1.01)
        assert full == pytest.approx(quad.total_measure(), rel=1e-12)


# ---------------------------------------------------------------------------
# shadows


def test_square_shadows():
    sq = unit_square()
    assert projection_measure(sq, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)
    diag = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert projection_measure(sq, diag) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # one shadow per row, each row normalised on its own
    rows = projection_measure(sq, np.array([[2.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(rows, [1.0, np.sqrt(2.0)], rtol=0.0, atol=1e-12)


def test_cube_axis_shadow():
    cube = load_fixture("cube")
    assert projection_measure(cube, np.array([0.0, 0.0, 1.0])) == pytest.approx(
        1.0, abs=1e-10
    )


def test_shadow_needs_facets():
    with pytest.raises(NotPolytopeError):
        projection_measure(unit_disk(), np.array([1.0, 0.0]))


def test_polygon_shadow_matches_projected_width():
    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=14))
        pts = np.stack([1.5 * np.cos(theta), np.sin(theta)], axis=1)
        poly = make_body({"type": "polygon", "vertices": pts.tolist()})
        sigma = rng.normal(size=2)
        sigma /= np.linalg.norm(sigma)
        coord = poly.vertices @ np.array([-sigma[1], sigma[0]])
        width = coord.max() - coord.min()
        assert projection_measure(poly, sigma) == pytest.approx(width, abs=1e-10)


def test_hull_shadow_matches_projected_hull_area():
    rng = np.random.default_rng(9)
    for _ in range(4):
        pts = rng.normal(size=(24, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        body = make_body({"type": "hull3d", "vertices": pts.tolist()})
        sigma = rng.normal(size=3)
        sigma /= np.linalg.norm(sigma)
        basis = np.linalg.svd(sigma[None, :])[2][1:]
        flat = body.vertices @ basis.T
        shadow = ConvexHull(flat).volume
        assert projection_measure(body, sigma) == pytest.approx(shadow, abs=1e-10)


# ---------------------------------------------------------------------------
# subsets and parameters


def test_node_subset_measure_and_complement():
    quad = surface_quadrature(unit_disk(), 360)
    upper = NodeSubset(quad, quad.points[:, 1] > 0)
    lower = ~upper
    assert upper.measure + lower.measure == pytest.approx(quad.total_measure())
    assert np.array_equal(lower.mask, ~upper.mask)
    with pytest.raises(Exception):
        NodeSubset(quad, np.ones(3, dtype=bool))


def test_params_validation_and_critical_exponent():
    p = Params(n=2, alpha=0.5, s=0.5, p=1.0)
    assert p.sp == 0.5
    assert p.p_star == pytest.approx(2.0 / 1.5)
    with pytest.raises(ParamError):
        Params(n=3)
    with pytest.raises(ParamError):
        Params(n=1, alpha=1.0)
    with pytest.raises(ParamError):
        Params(n=1, p=0.5)
    with pytest.raises(ParamError):
        Params(n=1, s=0.6, p=2.0).p_star
