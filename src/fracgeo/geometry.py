"""Convex bodies, surface node sets, and elementary convex-geometric measures.

Bodies come in three variants: planar convex polygons, convex triangulated
3D hulls, and round balls in either dimension. Every downstream operator
consumes the same node representation (points, outward normals, weights,
facet ids) produced by `surface_quadrature`, so polytopes and smooth bodies
share one code path.

Conventions: `n` is the surface dimension (1 for curves bounding planar
bodies, 2 for surfaces bounding solids); all normals are outward units;
chords are measured from a boundary point into the body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.spatial import ConvexHull

from .icosphere import sphere_cells, sphere_mesh, spherical_triangle_areas, split4

# grazing-ray threshold for directional denominators
RAY_EPSILON = 1e-12
# points closer than this (relative to diameter) to a facet boundary count as on it
BOUNDARY_REL_TOL = 1e-9


class GeometryError(Exception):
    """Base class for body and node-set construction failures."""


class NonConvexError(GeometryError):
    pass


class DegenerateError(GeometryError):
    pass


class ResolutionTooLowError(GeometryError):
    pass


class NotInwardError(GeometryError):
    pass


class TargetOutOfRangeError(GeometryError):
    pass


class NotPolytopeError(GeometryError):
    pass


class ParamError(GeometryError):
    pass


@dataclass(frozen=True)
class Params:
    """Order parameters shared across the toolkit.

    n is the surface dimension, alpha the curvature order, s the perimeter
    order, p the integrability exponent. The critical exponent `p_star` is
    only defined when n > s*p; accessing it outside that range raises.
    """

    n: int
    alpha: float = 0.5
    s: float = 0.5
    p: float = 1.0

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ParamError(f"surface dimension must be 1 or 2, got {self.n}")
        if not 0.0 < self.alpha < 1.0:
            raise ParamError(f"alpha must lie in (0,1), got {self.alpha}")
        if not 0.0 < self.s < 1.0:
            raise ParamError(f"s must lie in (0,1), got {self.s}")
        if self.p < 1.0:
            raise ParamError(f"p must be >= 1, got {self.p}")

    @property
    def sp(self) -> float:
        return self.s * self.p

    @property
    def p_star(self) -> float:
        if self.n <= self.sp:
            raise ParamError(
                f"critical exponent needs n > s*p, got n={self.n}, s*p={self.sp}"
            )
        return self.n * self.p / (self.n - self.sp)


def _frozen(a) -> np.ndarray:
    out = np.ascontiguousarray(np.asarray(a, dtype=float))
    out.setflags(write=False)
    return out


def _store(body, **arrays):
    """Set a body's derived arrays, computed once at construction, read-only.

    The properties that read them (facet normals and offsets, edges, face
    corners and areas) return these shared arrays.
    """
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(body, name, a)


@dataclass(frozen=True)
class Polygon2D:
    """Strictly convex planar polygon, vertices in counter-clockwise order."""

    vertices: np.ndarray

    n = 1
    dim = 2
    is_polytope = True

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, order="C")
        e = np.roll(v, -1, axis=0) - v
        nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
        nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
        _store(self, vertices=v, _edges=e, _edge_lengths=np.linalg.norm(e, axis=1),
               _normals=nrm, _offsets=np.einsum("ij,ij->i", nrm, v))

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def edge_lengths(self) -> np.ndarray:
        return self._edge_lengths

    @property
    def facet_normals(self) -> np.ndarray:
        return self._normals

    @property
    def facet_offsets(self) -> np.ndarray:
        return self._offsets

    def perimeter(self) -> float:
        return float(self.edge_lengths.sum())

    def area(self) -> float:
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return float(0.5 * np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))

    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d * d).sum(axis=2)).max())

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        pts = np.atleast_2d(points)
        inside = np.all(pts @ self.facet_normals.T < self.facet_offsets, axis=1)
        return inside if points.ndim > 1 else bool(inside[0])

    def scaled(self, lam: float) -> "Polygon2D":
        return Polygon2D(self.vertices * lam)


@dataclass(frozen=True)
class Hull3D:
    """Convex triangulated surface; faces are outward-oriented vertex triples."""

    vertices: np.ndarray
    faces: np.ndarray

    n = 2
    dim = 3
    is_polytope = True

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, order="C")
        c = v[self.faces]
        cr = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        nrm = cr / np.linalg.norm(cr, axis=1, keepdims=True)
        _store(self, vertices=v, faces=np.array(self.faces, order="C"), _corners=c,
               _normals=nrm, _areas=0.5 * np.linalg.norm(cr, axis=1),
               _offsets=np.einsum("ij,ij->i", nrm, c[:, 0]))

    @property
    def face_corners(self) -> np.ndarray:
        return self._corners

    @property
    def facet_normals(self) -> np.ndarray:
        return self._normals

    @property
    def face_areas(self) -> np.ndarray:
        return self._areas

    @property
    def facet_offsets(self) -> np.ndarray:
        return self._offsets

    def perimeter(self) -> float:
        return float(self.face_areas.sum())

    def area(self) -> float:
        c = self.face_corners
        centroids = c.mean(axis=1)
        return float(
            np.sum(self.face_areas * np.einsum("ij,ij->i", centroids, self.facet_normals))
            / 3.0
        )

    def diameter(self) -> float:
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((d * d).sum(axis=2)).max())

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        pts = np.atleast_2d(points)
        inside = np.all(pts @ self.facet_normals.T < self.facet_offsets, axis=1)
        return inside if points.ndim > 1 else bool(inside[0])

    def scaled(self, lam: float) -> "Hull3D":
        return Hull3D(self.vertices * lam, self.faces)


@dataclass(frozen=True)
class Ball:
    """Round ball; dim 2 is a disk, dim 3 a solid ball."""

    dim: int
    center: np.ndarray
    radius: float

    is_polytope = False

    @property
    def n(self) -> int:
        return self.dim - 1

    def perimeter(self) -> float:
        if self.dim == 2:
            return float(2.0 * np.pi * self.radius)
        return float(4.0 * np.pi * self.radius**2)

    def area(self) -> float:
        if self.dim == 2:
            return float(np.pi * self.radius**2)
        return float(4.0 / 3.0 * np.pi * self.radius**3)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        pts = np.atleast_2d(points)
        inside = np.linalg.norm(pts - self.center, axis=1) < self.radius
        return inside if points.ndim > 1 else bool(inside[0])

    def scaled(self, lam: float) -> "Ball":
        return Ball(self.dim, _frozen(self.center * lam), self.radius * lam)


ConvexBody = Union[Polygon2D, Hull3D, Ball]


# ---------------------------------------------------------------------------
# construction and validation


def _merge_collinear(vertices: np.ndarray, dup_tol: float, cross_tol: float) -> np.ndarray:
    """Drop consecutive duplicates and interior points of collinear runs."""
    v = vertices
    keep = np.linalg.norm(v - np.roll(v, 1, axis=0), axis=1) > dup_tol
    v = v[keep]
    changed = True
    while changed and len(v) >= 3:
        prev = np.roll(v, 1, axis=0)
        nxt = np.roll(v, -1, axis=0)
        cross = (v[:, 0] - prev[:, 0]) * (nxt[:, 1] - prev[:, 1]) - (
            v[:, 1] - prev[:, 1]
        ) * (nxt[:, 0] - prev[:, 0])
        flat = np.abs(cross) <= cross_tol
        changed = bool(flat.any())
        if changed:
            # remove one flat vertex at a time to keep neighbor indices valid
            v = np.delete(v, int(np.argmax(flat)), axis=0)
    return v


def _validate_polygon(vertices) -> Polygon2D:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
        raise DegenerateError("polygon needs at least 3 planar vertices")
    scale = float(np.abs(v - v.mean(axis=0)).max())
    if scale == 0.0:
        raise DegenerateError("polygon has zero extent")
    signed = 0.5 * np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
    if signed < 0:
        v = v[::-1].copy()
    v = _merge_collinear(v, 1e-12 * scale, 1e-12 * scale * scale)
    if len(v) < 3 or abs(signed) < 1e-14 * scale * scale:
        raise DegenerateError("polygon degenerates to a segment or point")
    e = np.roll(v, -1, axis=0) - v
    cross = e[:, 0] * np.roll(e[:, 1], -1) - e[:, 1] * np.roll(e[:, 0], -1)
    if np.any(cross <= 0.0):
        raise NonConvexError("polygon has a reflex or flat vertex")
    turning = np.sum(np.arctan2(cross, np.einsum("ij,ij->i", e, np.roll(e, -1, axis=0))))
    if not np.isclose(turning, 2.0 * np.pi, atol=1e-8):
        raise NonConvexError("polygon boundary winds more than once")
    return Polygon2D(v)


def _validate_hull(vertices, faces) -> Hull3D:
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(faces, dtype=int)
    if v.ndim != 2 or v.shape[1] != 3 or len(v) < 4:
        raise DegenerateError("hull needs at least 4 points in 3D")
    if f.ndim != 2 or f.shape[1] != 3:
        raise DegenerateError("hull faces must be vertex-index triples")
    centroid = v.mean(axis=0)
    corners = v[f]
    nrm = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    areas = 0.5 * np.linalg.norm(nrm, axis=1)
    scale = float(np.abs(v - centroid).max())
    if np.any(areas <= 1e-14 * scale * scale):
        raise DegenerateError("hull contains a zero-area face")
    # flip faces whose normal points at the centroid
    inward = np.einsum("ij,ij->i", nrm, corners.mean(axis=1) - centroid) < 0
    f = f.copy()
    f[inward] = f[inward][:, [0, 2, 1]]
    # closed orientable surface: every undirected edge in exactly two faces,
    # traversed once in each direction
    directed = {}
    for face in f:
        for a, b in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0])):
            if (a, b) in directed:
                raise NonConvexError("duplicate directed edge; surface not orientable")
            directed[(a, b)] = True
    for a, b in directed:
        if (b, a) not in directed:
            raise NonConvexError("open edge; surface is not closed")
    edge_count = len(directed) // 2
    if len(v) - edge_count + len(f) != 2:
        raise NonConvexError("surface is not a topological sphere")
    hull = ConvexHull(v)
    if len(hull.vertices) != len(v):
        raise NonConvexError("a vertex is not extreme")
    body = Hull3D(v, f)
    slack = v @ body.facet_normals.T - body.facet_offsets
    if slack.max() > 1e-9 * scale:
        raise NonConvexError("a face plane does not support the hull")
    return body


def make_body(description: dict) -> ConvexBody:
    """Build a validated body from a plain description.

    The description is a mapping with a "type" key: "polygon" takes
    "vertices"; "hull3d" takes "vertices" and optional "faces" (missing faces
    are triangulated from the points); "ball" takes "dim", "center",
    "radius". Polygon vertices may arrive clockwise and may contain collinear
    runs; they are reoriented and merged. Hull faces are reoriented outward.
    """
    kind = description.get("type")
    if kind == "polygon":
        return _validate_polygon(description["vertices"])
    if kind == "hull3d":
        verts = np.asarray(description["vertices"], dtype=float)
        faces = description.get("faces")
        if faces is None:
            faces = ConvexHull(verts).simplices
        return _validate_hull(verts, faces)
    if kind == "ball":
        dim = int(description.get("dim", 2))
        if dim not in (2, 3):
            raise DegenerateError("ball dim must be 2 or 3")
        radius = float(description.get("radius", 1.0))
        if radius <= 0:
            raise DegenerateError("ball radius must be positive")
        center = np.asarray(description.get("center", np.zeros(dim)), dtype=float)
        if center.shape != (dim,):
            raise DegenerateError("ball center has wrong dimension")
        return Ball(dim, _frozen(center), radius)
    raise DegenerateError(f"unknown body type {kind!r}")


def perimeter(body: ConvexBody) -> float:
    return body.perimeter()


def area(body: ConvexBody) -> float:
    return body.area()


def diameter(body: ConvexBody) -> float:
    return body.diameter()


# ---------------------------------------------------------------------------
# surface node sets


@dataclass
class SurfaceQuadrature:
    """Node set on a body boundary: points, outward normals, weights, facets.

    `patches` stores enough of each node's cell to subdivide it later:
    segment endpoints for polygon edges, angle intervals for circles,
    triangle corners for hull faces and sphere cells. `spacings` is the
    cell diameter and drives near-field thresholds. `matrices` holds the
    read-only interaction matrices built on this node set, keyed by power
    (see `nonlocal_ops.interaction_matrix`); it lives and dies with the
    node set, so the arrays above must not change once one is built.
    """

    body: ConvexBody
    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    facet_ids: np.ndarray
    spacings: np.ndarray
    patches: np.ndarray = field(repr=False)
    matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return self.body.n

    def total_measure(self) -> float:
        return float(self.weights.sum())

    def refine_node(self, i: int, levels: int = 1):
        """Split node i's cell `levels` times; returns (points, normals, weights).

        Sub-cell weights sum exactly to the parent weight (planar splits are
        exact quarters; spherical splits partition the solid angle).
        """
        body = self.body
        if isinstance(body, Polygon2D):
            a, b = self.patches[i]
            return _refine_segment(a, b, self.normals[i], 4**levels)
        if isinstance(body, Ball) and body.dim == 2:
            t0, t1 = self.patches[i]
            return _refine_arc(body, t0, t1, 4**levels)
        if isinstance(body, Hull3D):
            return _refine_planar_triangle(self.patches[i], self.normals[i], levels)
        return _refine_sphere_triangle(body, self.patches[i], levels)

    def refine_towards(self, i: int, x, ratio: float = 0.4, max_depth: int = 16):
        """Split cell i (a triangle) until every part is small next to its distance from x.

        Parts at distance d stop splitting once their diameter drops under
        ratio * d, grading the sub-cells geometrically toward x. This is what
        near-singular kernels need when the evaluation point sits just off
        the cell, where any fixed split depth loses an O(1) contribution.
        Returns (points, normals, weights); weights still sum to the parent's.
        The cell splits one depth level at a time; the leaves are put back in
        the order of a depth-first stack that pops the last child first (path
        key: 3 - child per level, padded to max_depth digits), so every sum
        over them rounds as that walk's.
        """
        body = self.body
        x = np.asarray(x, dtype=float)
        sphere = isinstance(body, Ball)
        cells = np.asarray(self.patches[i], dtype=float)[None]
        if sphere:
            cells = (cells - body.center) / body.radius
        keys = np.zeros(1, dtype=np.int64)
        parts = []
        for depth in range(max_depth + 1):
            ctr = cells.mean(axis=1)
            diam = _norms(cells - cells[:, [1, 2, 0]]).max(axis=1)
            if sphere:
                ctr /= _norms(ctr)[:, None]
                pts = body.center + body.radius * ctr
                diam = body.radius * diam
            else:
                pts = ctr
            split = (depth < max_depth) & (diam > ratio * _norms(pts - x))
            leaf = ~split
            parts.append((keys[leaf] * 4 ** (max_depth - depth), cells[leaf], ctr[leaf], pts[leaf]))
            if not split.any():
                break
            cells = split4(cells[split], sphere)
            keys = (4 * keys[split, None] + [3, 2, 1, 0]).ravel()
        path, c, ctr, pts = (np.concatenate(a) for a in zip(*parts))
        order = np.argsort(path)
        c, ctr, pts = c[order], ctr[order], pts[order]
        if sphere:
            return pts, ctr, body.radius**2 * spherical_triangle_areas(c[:, 0], c[:, 1], c[:, 2])
        w = 0.5 * _norms(np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0]))
        return pts, np.tile(self.normals[i], (len(c), 1)), w


def _refine_segment(a, b, normal, parts):
    t = (np.arange(parts) + 0.5) / parts
    pts = a + np.outer(t, b - a)
    w = np.full(parts, np.linalg.norm(b - a) / parts)
    return pts, np.tile(normal, (parts, 1)), w


def _refine_arc(ball, t0, t1, parts):
    t = t0 + (t1 - t0) * (np.arange(parts) + 0.5) / parts
    dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
    pts = ball.center + ball.radius * dirs
    w = np.full(parts, ball.radius * (t1 - t0) / parts)
    return pts, dirs, w


def _refine_planar_triangle(corners, normal, levels):
    tris = _split_levels(np.asarray(corners)[None], levels)
    return _planar_cells(tris, np.asarray(normal)[None], 4**levels)


def _planar_cells(tris, normals, repeat):
    """Barycenters, normals (each repeated `repeat` times) and areas."""
    cr = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return tris.mean(axis=1), np.repeat(normals, repeat, axis=0), 0.5 * np.linalg.norm(cr, axis=1)


def _refine_sphere_triangle(ball, corners, levels):
    units = _split_levels((np.asarray(corners)[None] - ball.center) / ball.radius, levels, True)
    bary, solid = sphere_cells(units)
    return ball.center + ball.radius * bary, bary, ball.radius**2 * solid


def _split_levels(tris, levels, sphere=False):
    for _ in range(levels):
        tris = split4(tris, sphere)
    return tris


def _norms(v):
    """Row norms that round exactly like `np.linalg.norm` of each row alone."""
    return np.sqrt(np.vecdot(v, v))


def surface_quadrature(body: ConvexBody, resolution: int) -> SurfaceQuadrature:
    """Boundary node set with roughly `resolution` nodes in total.

    Polygons place midpoint nodes along each edge, edge counts proportional
    to length (at least one per edge); hulls and spheres use the smallest
    uniform 4-split meeting the budget; circles use a uniform angular grid
    with a node at angle zero. Node weights sum to the exact surface measure
    for polytopes and circles, and to the sphere area within rounding.
    """
    if isinstance(body, Polygon2D):
        if resolution < body.edge_count:
            raise ResolutionTooLowError(
                f"need at least one node per edge ({body.edge_count})"
            )
        lengths = body.edge_lengths
        counts = np.maximum(
            1, np.round(resolution * lengths / lengths.sum()).astype(int)
        )
        pts, nrms, wts, fids, spac, patches = [], [], [], [], [], []
        normals = body.facet_normals
        verts = body.vertices
        nxt = np.roll(verts, -1, axis=0)
        for e in range(body.edge_count):
            m = counts[e]
            t0 = np.arange(m) / m
            t1 = (np.arange(m) + 1) / m
            a = verts[e] + np.outer(t0, nxt[e] - verts[e])
            b = verts[e] + np.outer(t1, nxt[e] - verts[e])
            pts.append((a + b) / 2)
            nrms.append(np.tile(normals[e], (m, 1)))
            wts.append(np.full(m, lengths[e] / m))
            fids.append(np.full(m, e, dtype=int))
            spac.append(np.full(m, lengths[e] / m))
            patches.append(np.stack([a, b], axis=1))
        return SurfaceQuadrature(
            body,
            np.concatenate(pts),
            np.concatenate(nrms),
            np.concatenate(wts),
            np.concatenate(fids),
            np.concatenate(spac),
            np.concatenate(patches),
        )

    if isinstance(body, Ball) and body.dim == 2:
        if resolution < 8:
            raise ResolutionTooLowError("circle grid needs at least 8 nodes")
        m = int(resolution)
        theta = 2.0 * np.pi * np.arange(m) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        h = 2.0 * np.pi / m
        patches = np.stack([theta - h / 2, theta + h / 2], axis=1)
        return SurfaceQuadrature(
            body,
            body.center + body.radius * dirs,
            dirs,
            np.full(m, body.radius * h),
            np.arange(m),
            np.full(m, body.radius * h),
            patches,
        )

    if isinstance(body, Hull3D):
        nfaces = len(body.faces)
        if resolution < nfaces:
            raise ResolutionTooLowError(f"need at least one node per face ({nfaces})")
        level = 0
        while nfaces * 4**level < resolution:
            level += 1
        tris = _split_levels(body.face_corners, level)
        pts, nrms, wts = _planar_cells(tris, body.facet_normals, 4**level)
        return SurfaceQuadrature(
            body,
            pts,
            nrms,
            wts,
            np.repeat(np.arange(nfaces), 4**level),
            _triangle_diameters(tris),
            tris,
        )

    # sphere
    if resolution < 20:
        raise ResolutionTooLowError("sphere mesh needs at least 20 nodes")
    level = 0
    while 20 * 4**level < resolution:
        level += 1
    corners, nodes, solid = sphere_mesh(level)
    pts = body.center + body.radius * nodes
    patches = body.center + body.radius * corners
    return SurfaceQuadrature(
        body,
        pts,
        nodes,
        body.radius**2 * solid,
        np.arange(len(nodes)),
        _triangle_diameters(patches),
        patches,
    )


def _triangle_diameters(tris):
    d01 = np.linalg.norm(tris[:, 0] - tris[:, 1], axis=1)
    d12 = np.linalg.norm(tris[:, 1] - tris[:, 2], axis=1)
    d20 = np.linalg.norm(tris[:, 2] - tris[:, 0], axis=1)
    return np.maximum(np.maximum(d01, d12), d20)


@dataclass
class NodeSubset:
    """Boolean selection of quadrature nodes standing in for a boundary set."""

    quadrature: SurfaceQuadrature
    mask: np.ndarray

    def __post_init__(self):
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != (self.quadrature.node_count,):
            raise GeometryError("mask length must match the node count")

    @property
    def measure(self) -> float:
        return float(self.quadrature.weights[self.mask].sum())

    def complement(self) -> "NodeSubset":
        return NodeSubset(self.quadrature, ~self.mask)

    def __invert__(self) -> "NodeSubset":
        return self.complement()


# ---------------------------------------------------------------------------
# rays and chords


def surface_normal(body: ConvexBody, x: np.ndarray) -> np.ndarray:
    """Outward unit normal at a boundary point (nearest facet for polytopes)."""
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        r = x - body.center
        nr = np.linalg.norm(r)
        if nr == 0.0:
            raise GeometryError("center is not a boundary point")
        return r / nr
    slack = body.facet_offsets - body.facet_normals @ x
    return body.facet_normals[int(np.argmin(np.abs(slack)))]


def boundary_distance(body: ConvexBody, x: np.ndarray) -> float:
    """Distance from x to the nearest facet boundary (vertex/edge skeleton).

    Balls have no facet boundary; they report the body diameter.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        return body.diameter()
    if isinstance(body, Polygon2D):
        return float(np.linalg.norm(body.vertices - x, axis=1).min())
    best = np.inf
    c = body.face_corners
    for a, b in ((0, 1), (1, 2), (2, 0)):
        pa, pb = c[:, a], c[:, b]
        ab = pb - pa
        t = np.clip(
            np.einsum("ij,ij->i", x - pa, ab) / np.einsum("ij,ij->i", ab, ab), 0, 1
        )
        proj = pa + t[:, None] * ab
        best = min(best, float(np.linalg.norm(proj - x, axis=1).min()))
    return best


def ray_exits(body: ConvexBody, x: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Exit parameters sup{t > 0 : x + t*omega in the body} for many rays.

    Rays that leave immediately (directions outside the local tangent cone)
    report 0. Grazing denominators below the ray epsilon are treated as
    non-exiting, which selects the longer parameter.
    """
    x = np.asarray(x, dtype=float)
    om = np.atleast_2d(omegas)
    if isinstance(body, Ball):
        rho = -2.0 * (om @ (x - body.center))
        return np.maximum(rho, 0.0)
    denom = om @ body.facet_normals.T
    numer = body.facet_offsets - body.facet_normals @ x
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(denom > RAY_EPSILON, numer[None, :] / denom, np.inf)
    t = np.maximum(t, 0.0)
    return t.min(axis=1)


def chord_length(body: ConvexBody, x: np.ndarray, omega: np.ndarray) -> float:
    """Length of the chord cut by the body along the inward ray x + t*omega."""
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    nu = surface_normal(body, x)
    if float(omega @ nu) >= 0.0:
        raise NotInwardError("direction does not point into the body")
    return float(ray_exits(body, x, omega[None, :])[0])


# ---------------------------------------------------------------------------
# measures of boundary pieces


def ball_patch_measure(quad: SurfaceQuadrature, x: np.ndarray, radius: float) -> float:
    """Total weight of nodes within `radius` of x."""
    d = np.linalg.norm(quad.points - np.asarray(x, dtype=float), axis=1)
    return float(quad.weights[d <= radius].sum())


def matching_radius(quad: SurfaceQuadrature, x: np.ndarray, target: float) -> float:
    """Radius whose node-patch measure matches `target` within one node weight.

    The patch measure is a step function of the radius, so the match is found
    by bisection onto the jump location.
    """
    total = quad.total_measure()
    if not 0.0 < target <= total:
        raise TargetOutOfRangeError(
            f"target {target} outside (0, {total}] for this node set"
        )
    lo, hi = 0.0, quad.body.diameter() * 1.0000001
    if ball_patch_measure(quad, x, hi) < target:
        hi = quad.body.diameter() * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ball_patch_measure(quad, x, mid) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return hi


def circle_crossings(a: np.ndarray, d: np.ndarray, r: float):
    """Parameters t0 <= t1 where the rows' lines a + t d meet the circle |p| = r.

    A line that misses the circle gets its foot point from the origin twice.
    """
    dd, ad = np.vecdot(d, d), np.vecdot(a, d)
    root = np.sqrt(np.maximum(ad**2 - dd * (np.vecdot(a, a) - r**2), 0.0))
    return (-ad - root) / dd, (-ad + root) / dd


def sphere_cap_measure(
    body: ConvexBody, x: np.ndarray, radius: float, resolution: int = 4096
) -> float:
    """Measure of the sphere around x of given radius inside the body.

    Planar case, exact: a disk's arc follows from the law of cosines; a
    polygon's edge crossings cut the circle into arcs wholly in or out,
    classified by their midpoints. Solid case: icosahedral cells classified
    by their node, cells straddling the boundary refined.
    """
    x = np.asarray(x, dtype=float)
    if radius <= 0:
        raise TargetOutOfRangeError("radius must be positive")
    if isinstance(body, Ball) and body.dim == 2:
        dist = float(np.linalg.norm(x - body.center))
        top = body.radius**2 - dist**2 - radius**2
        cos_edge = top / (2.0 * radius * dist) if dist > 0.0 else np.sign(body.radius - radius)
        return float(radius * (2.0 * np.pi - 2.0 * np.arccos(np.clip(cos_edge, -1.0, 1.0))))
    if isinstance(body, Polygon2D):
        a, d = body.vertices - x, body.edges
        t = np.stack(circle_crossings(a, d, radius))
        p = (a + t[..., None] * d)[(t >= 0.0) & (t <= 1.0)]
        # a cut at -pi as well, so a circle no edge crosses is one whole arc
        cuts = np.sort(np.append(np.arctan2(p[:, 1], p[:, 0]), -np.pi))
        arcs = np.diff(np.append(cuts, np.pi))
        mids = cuts + 0.5 * arcs
        inside = body.contains(x + radius * np.stack([np.cos(mids), np.sin(mids)], axis=1))
        return float(radius * arcs[inside].sum())

    level = 0
    while 20 * 4**level < resolution:
        level += 1
    corners, nodes, solid = sphere_mesh(level)
    return radius**2 * _cap_cells(body, x, radius, corners, nodes, solid, depth=3)


def _cap_cells(body, x, radius, corners, nodes, solid, depth):
    pts = x + radius * nodes
    node_in = body.contains(pts)
    corner_in = body.contains(
        x + radius * corners.reshape(-1, 3)
    ).reshape(len(corners), 3)
    uniform_in = node_in & corner_in.all(axis=1)
    uniform_out = ~node_in & ~corner_in.any(axis=1)
    total = float(solid[uniform_in].sum())
    straddle = ~(uniform_in | uniform_out)
    if depth == 0:
        return total + float(solid[straddle & node_in].sum())
    subs = split4(corners[straddle], sphere=True)
    bary, areas = sphere_cells(subs)
    # one parent at a time, so the sum keeps the order of a depth-first walk
    for k in range(0, len(subs), 4):
        total += _cap_cells(
            body, x, radius, subs[k : k + 4], bary[k : k + 4], areas[k : k + 4], depth - 1
        )
    return total


def projection_measure(body: ConvexBody, sigma: np.ndarray) -> float:
    """Measure of the body's shadow on the hyperplane orthogonal to sigma.

    Polytopes only: half the facet measures weighted by |<facet normal, sigma>|,
    which double-counts the shadow once from each side.
    """
    if not getattr(body, "is_polytope", False):
        raise NotPolytopeError("shadow formula needs a facetted body")
    sigma = np.asarray(sigma, dtype=float)
    sigma = sigma / np.linalg.norm(sigma)
    if isinstance(body, Polygon2D):
        measures = body.edge_lengths
    else:
        measures = body.face_areas
    return float(0.5 * np.sum(measures * np.abs(body.facet_normals @ sigma)))
