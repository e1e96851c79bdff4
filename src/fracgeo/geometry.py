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

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .icosphere import sphere_cells, sphere_mesh, split4


class GeometryError(Exception):
    """Base class for body and node-set construction failures."""


class NonConvexError(GeometryError):
    pass


class DegenerateError(GeometryError):
    pass


class ResolutionTooLowError(GeometryError):
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
        if not 1.0 <= self.p < np.inf:
            raise ParamError(f"p must be finite and >= 1, got {self.p}")

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

    The properties that read them (facet normals and offsets, edges and
    their frames, face corners and areas) return these shared arrays.
    """
    for name, a in arrays.items():
        a.setflags(write=False)
        object.__setattr__(body, name, a)


def _vertex_diameter(v: np.ndarray) -> float:
    """Largest distance between two of the points, over all pairs."""
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((d * d).sum(axis=2)).max())


def _surface_tol(body: ConvexBody) -> float:
    """Distance (1e-9 of the diameter) within which a point counts as on a
    surface, a facet plane or a facet boundary."""
    return 1e-9 * body.diameter()


def _signed_area(v: np.ndarray) -> float:
    """Shoelace area of a closed polygon, positive for counter-clockwise order.

    Term i is x_i y_(i+1) - x_(i+1) y_i, the wrapping one last, summed as one
    array so the rounding is that of the shoelace over rolled copies.
    """
    x, y = v[:, 0], v[:, 1]
    cross = np.empty(len(v))
    np.subtract(x[:-1] * y[1:], x[1:] * y[:-1], out=cross[:-1])
    cross[-1] = x[-1] * y[0] - x[0] * y[-1]
    return float(0.5 * cross.sum())


class _Polytope:
    """Members shared by polygons and hulls: facet planes, diameter, membership."""

    is_polytope = True

    @property
    def facet_normals(self) -> np.ndarray:
        return self._normals

    @property
    def facet_offsets(self) -> np.ndarray:
        return self._offsets

    def diameter(self) -> float:
        return self._diameter

    def contains(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        pts = np.atleast_2d(points)
        inside = np.all(pts @ self.facet_normals.T < self.facet_offsets, axis=1)
        return inside if points.ndim > 1 else bool(inside[0])


@dataclass(frozen=True)
class Polygon2D(_Polytope):
    """Strictly convex planar polygon, vertices in counter-clockwise order."""

    vertices: np.ndarray

    n = 1
    dim = 2

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, order="C")
        e = np.roll(v, -1, axis=0) - v
        nrm = np.stack([e[:, 1], -e[:, 0]], axis=1)
        nrm = nrm / np.linalg.norm(nrm, axis=1, keepdims=True)
        _store(self, vertices=v, _edges=e, _edge_lengths=np.linalg.norm(e, axis=1),
               _normals=nrm, _offsets=np.einsum("ij,ij->i", nrm, v))
        object.__setattr__(self, "_diameter", _vertex_diameter(v))

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    @property
    def edge_lengths(self) -> np.ndarray:
        return self._edge_lengths

    def perimeter(self) -> float:
        return float(self.edge_lengths.sum())

    def area(self) -> float:
        return _signed_area(self.vertices)

    def scaled(self, lam: float) -> "Polygon2D":
        return Polygon2D(self.vertices * lam)


@dataclass(frozen=True)
class Hull3D(_Polytope):
    """Convex triangulated surface; faces are outward-oriented vertex triples."""

    vertices: np.ndarray
    faces: np.ndarray

    n = 2
    dim = 3

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float, order="C")
        c = v[self.faces]
        cr = np.cross(c[:, 1] - c[:, 0], c[:, 2] - c[:, 0])
        nrm = cr / np.linalg.norm(cr, axis=1, keepdims=True)
        e = np.roll(c, -1, axis=1) - c
        lengths = np.linalg.norm(e, axis=2)
        tangents = e / lengths[..., None]
        _store(self, vertices=v, faces=np.array(self.faces, order="C"), _corners=c,
               _normals=nrm, _areas=0.5 * np.linalg.norm(cr, axis=1),
               _offsets=np.einsum("ij,ij->i", nrm, c[:, 0]), _edge_lengths=lengths,
               _tangents=tangents, _inward=np.cross(nrm[:, None], tangents))
        object.__setattr__(self, "_diameter", _vertex_diameter(v))

    @property
    def face_corners(self) -> np.ndarray:
        return self._corners

    @property
    def edge_lengths(self) -> np.ndarray:
        """(faces, 3) lengths of the edges corner k -> corner k+1 of each face."""
        return self._edge_lengths

    @property
    def edge_tangents(self) -> np.ndarray:
        """(faces, 3, 3) unit tangents of those edges."""
        return self._tangents

    @property
    def edge_normals(self) -> np.ndarray:
        """(faces, 3, 3) unit normals of those edges in the face plane, into the face."""
        return self._inward

    @property
    def face_areas(self) -> np.ndarray:
        return self._areas

    def perimeter(self) -> float:
        return float(self.face_areas.sum())

    def area(self) -> float:
        c = self.face_corners
        centroids = c.mean(axis=1)
        return float(
            np.sum(self.face_areas * np.einsum("ij,ij->i", centroids, self.facet_normals))
            / 3.0
        )

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
    signed = _signed_area(v)
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
    """A checked hull; faces None takes the convex hull's triangles."""
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or len(v) < 4:
        raise DegenerateError("hull needs at least 4 points in 3D")
    try:
        hull = ConvexHull(v)
    except QhullError:
        raise DegenerateError("hull points span no volume") from None
    f = np.asarray(hull.simplices if faces is None else faces)
    if f.ndim != 2 or f.shape[1] != 3 or np.any(f % 1) or not (
        0 <= f.min() and f.max() < len(v)
    ):
        raise DegenerateError("hull faces must be triples of vertex indices")
    f = f.astype(int)
    centroid = v.mean(axis=0)
    corners = v[f]
    nrm = np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])
    areas = 0.5 * np.linalg.norm(nrm, axis=1)
    scale = float(np.abs(v - centroid).max())
    if np.any(areas <= 1e-14 * scale * scale):
        raise DegenerateError("hull contains a zero-area face")
    # flip faces whose normal points at the centroid
    inward = np.einsum("ij,ij->i", nrm, corners.mean(axis=1) - centroid) < 0
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
    if len(hull.vertices) != len(v):
        raise NonConvexError("a vertex is not extreme")
    body = Hull3D(v, f)
    slack = v @ body.facet_normals.T - body.facet_offsets
    if slack.max() > 1e-9 * scale:
        raise NonConvexError("a face plane does not support the hull")
    return body


def _finite(description: dict, key: str, default=None) -> np.ndarray:
    """The finite numbers under `key`, or `default` when the key is absent."""
    if key not in description:
        if default is None:
            raise DegenerateError(f"body description needs {key!r}")
        return np.asarray(default, dtype=float)
    try:
        value = np.asarray(description[key])
        if value.dtype.kind in "iuf" and np.all(np.isfinite(value)):
            return value.astype(float)
    except ValueError:  # ragged nesting
        pass
    raise DegenerateError(f"body {key!r} must be finite numbers")


def make_body(description: dict) -> ConvexBody:
    """Build a validated body from a plain description.

    The description is a mapping with a "type" key: "polygon" takes
    "vertices"; "hull3d" takes "vertices" and optional "faces" (missing faces
    are triangulated from the points); "ball" takes "dim", "center",
    "radius". Polygon vertices may arrive clockwise and may contain collinear
    runs; they are reoriented and merged. Hull faces are reoriented outward.
    A description that is not such a mapping raises DegenerateError.
    """
    if not isinstance(description, Mapping):
        raise DegenerateError("body description must be a mapping")
    kind = description.get("type")
    if kind == "polygon":
        return _validate_polygon(_finite(description, "vertices"))
    if kind == "hull3d":
        faces = None if description.get("faces") is None else _finite(description, "faces")
        return _validate_hull(_finite(description, "vertices"), faces)
    if kind == "ball":
        dim = description.get("dim", 2)
        if dim not in (2, 3):
            raise DegenerateError("ball dim must be 2 or 3")
        dim = int(dim)
        radius = _finite(description, "radius", 1.0)
        if radius.shape or radius <= 0:
            raise DegenerateError("ball radius must be a positive number")
        radius = float(radius)
        center = _finite(description, "center", np.zeros(dim))
        if center.shape != (dim,):
            raise DegenerateError("ball center has wrong dimension")
        return Ball(dim, _frozen(center), radius)
    raise DegenerateError(f"unknown body type {kind!r}")


# ---------------------------------------------------------------------------
# surface node sets


@dataclass
class SurfaceQuadrature:
    """Node set on a body boundary: points, outward normals, weights, facets.

    `patches` stores each node's cell, to integrate over exactly or to
    split (`split_cells`): segment endpoints for polygon edges, angle
    intervals for circles, triangle corners for hull faces and sphere cells.
    `spacings` is the cell diameter and drives near-pair thresholds.
    `matrices` holds the read-only pair interactions built on this node
    set, keyed by power (`nonlocal_ops.interaction_matrix`): condensed, in
    `pdist` order, half the bytes of the matrices `squareform` gives;
    `near_pairs` the read-only near-pair geometry every power and every
    tail share (`nonlocal_ops._near_pairs`): the near pairs, the sub-cell
    weights of each cell's 4-split and the pairs' sub-cell distances, built
    at the first interaction sum; and `curvatures` the read-only chord-form
    curvatures at its nodes, keyed by alpha (`nonlocal_ops.halpha_at_nodes`).
    All live and die with the node set, so the arrays above must not
    change once one is built.
    """

    body: ConvexBody
    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    facet_ids: np.ndarray
    spacings: np.ndarray
    patches: np.ndarray = field(repr=False)
    matrices: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    near_pairs: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    curvatures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def node_count(self) -> int:
        return len(self.weights)

    @property
    def n(self) -> int:
        return self.body.n

    def total_measure(self) -> float:
        return float(self.weights.sum())

    def split_cells(self, nodes):
        """One 4-split of each listed node's cell; returns (points, weights).

        Shaped (k, 4, dim) and (k, 4), a row per node, each row the same
        bits whichever nodes are listed with it. Sub-cell weights sum
        exactly to the parent weight (planar splits are exact quarters;
        spherical splits partition the solid angle).
        """
        body, cells = self.body, self.patches[nodes]
        mid = np.arange(4) + 0.5
        if isinstance(body, Polygon2D):
            a, d = cells[:, 0], cells[:, 1] - cells[:, 0]
            t = mid[:, None] / 4
            return a[:, None] + t * d[:, None], np.repeat(_norms(d)[:, None] / 4, 4, 1)
        if body.n == 1:
            t0, t1 = cells[:, :1], cells[:, 1:]
            t = t0 + (t1 - t0) * mid / 4
            dirs = np.stack([np.cos(t), np.sin(t)], axis=-1)
            return body.center + body.radius * dirs, np.repeat(body.radius * (t1 - t0) / 4, 4, 1)
        if isinstance(body, Hull3D):
            pts, w = _planar_cells(split4(cells))
        else:
            bary, solid = sphere_cells(split4((cells - body.center) / body.radius, True))
            pts, w = body.center + body.radius * bary, body.radius**2 * solid
        return pts.reshape(len(cells), 4, 3), w.reshape(len(cells), 4)


def _planar_cells(tris):
    """Barycenters and areas of flat triangles."""
    cr = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    return tris.mean(axis=1), 0.5 * np.linalg.norm(cr, axis=1)


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
            raise ResolutionTooLowError(f"need at least one node per edge ({body.edge_count})")
        lengths = body.edge_lengths
        counts = np.maximum(1, np.round(resolution * lengths / lengths.sum()).astype(int))
        edge, a, b = _edge_pieces(body, counts)
        h = lengths[edge] / counts[edge]
        return SurfaceQuadrature(
            body, (a + b) / 2, body.facet_normals[edge], h, edge, h.copy(),
            np.stack([a, b], axis=1))

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
        level, tris = 0, body.face_corners
        while nfaces * 4**level < resolution:
            level += 1
            tris = split4(tris)
        pts, wts = _planar_cells(tris)
        return SurfaceQuadrature(
            body,
            pts,
            np.repeat(body.facet_normals, 4**level, axis=0),
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


def _edge_pieces(body: Polygon2D, counts: np.ndarray):
    """Each edge e cut into counts[e] equal pieces, in edge order.

    Returns every piece's edge index and its ends a = v_e + (k/m) d_e and
    b = v_e + ((k+1)/m) d_e, for piece k of m on the edge from vertex v_e
    along d_e.
    """
    edge = np.repeat(np.arange(body.edge_count), counts)
    m = counts[edge]
    k = np.arange(len(edge)) - np.repeat(np.cumsum(counts) - counts, counts)
    v, d = body.vertices[edge], body.edges[edge]
    return edge, v + (k / m)[:, None] * d, v + ((k + 1) / m)[:, None] * d


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

    def __invert__(self) -> "NodeSubset":
        return NodeSubset(self.quadrature, ~self.mask)


# ---------------------------------------------------------------------------
# facet skeleton


def boundary_distance(body: ConvexBody, x: np.ndarray) -> float:
    """Distance from x to the nearest facet boundary (vertex/edge skeleton).

    Balls have no facet boundary; they report the body diameter.
    """
    x = np.asarray(x, dtype=float)
    if isinstance(body, Ball):
        return body.diameter()
    if isinstance(body, Polygon2D):
        return float(np.linalg.norm(body.vertices - x, axis=1).min())
    c, tau = body.face_corners, body.edge_tangents
    t = np.clip(np.vecdot(x - c, tau), 0.0, body.edge_lengths)
    return float(np.linalg.norm(c + t[..., None] * tau - x, axis=-1).min())


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
    d = np.linalg.norm(quad.points - np.asarray(x, dtype=float), axis=1)
    # every node lies within hi of x, on the body or off it
    lo, hi = 0.0, max(quad.body.diameter() * 1.0000001, float(d.max()))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if quad.weights[d <= mid].sum() >= target:
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
    dd = np.vecdot(d, d)
    mid = -np.vecdot(a, d) / dd
    foot = a + mid[..., None] * d
    half = np.sqrt(np.maximum(r**2 - np.vecdot(foot, foot), 0.0) / dd)
    return mid - half, mid + half


def sphere_cap_measure(body: ConvexBody, x: np.ndarray, radius: float) -> float:
    """Measure of the sphere around x of given radius inside the body, exactly.

    A disk's arc and a ball's cap follow from the law of cosines, a
    polygon's arcs from its edges (`_disk_polygon_pieces`). On a hull,
    x + radius w lies inside when the ray along w leaves through a facet
    beyond the sphere: the cap is radius^2 times the sum of the solid
    angles of the facets' parts outside the ball (`_triangle_pieces`), signed
    so that rays from outside that enter and leave count once.
    """
    x = np.asarray(x, dtype=float)
    if radius <= 0:
        raise TargetOutOfRangeError("radius must be positive")
    if isinstance(body, Ball):
        # x + radius w is in the ball iff <w, e> < q, e the unit vector from
        # the centre to x; about the centre the sphere is wholly in or out
        dist = float(np.linalg.norm(x - body.center))
        # a node sits a rounding of its coordinates off the sphere, which
        # R^2 - dist^2 would turn into an error of eps / radius in q
        tol = 1e-15 * (body.radius + float(np.linalg.norm(x)))
        dist = body.radius if abs(dist - body.radius) <= tol else dist
        top = body.radius**2 - dist**2 - radius**2
        q = top / (2.0 * radius * dist) if dist > 0.0 else np.sign(body.radius - radius)
        q = np.clip(q, -1.0, 1.0)
        if body.dim == 3:
            return float(2.0 * np.pi * radius**2 * (1.0 + q))
        return float(radius * (2.0 * np.pi - 2.0 * np.arccos(q)))
    if isinstance(body, Hull3D):
        _, _, whole, inside = _triangle_pieces(
            body.face_corners, body.facet_normals, body.facet_offsets, x, radius,
            _surface_tol(body))
        return float(radius**2 * (whole - inside).sum())
    return float(radius * _disk_polygon_pieces(body.vertices - x, body.edges, np.array(radius))[1])


def _triangle_pieces(corners, normals, offsets, x, radius, flat):
    """Per triangle, corners (k, 3, 3) in the planes <normals, y> = offsets:
    x's height h under its plane, the area of its piece inside B_radius(x),
    and the solid angles from x of the whole triangle and of that piece.

    The triangles may be a hull's facets or any cells cut from them. The
    piece is the triangle met with the disk of radius sqrt(radius^2 - h^2)
    about x's foot point (`_disk_polygon_pieces`). Solid angles are signed
    like h (Van Oosterom and Strackee's formula for a triangle), and the
    piece's solid angle splits the same way as its area, edge by edge:
    triangles from the foot point, and sectors of the disk, where an angle
    phi subtends phi (sign h - h / radius). Triangles within `flat` of x's
    plane subtend nothing.
    """
    h = offsets - normals @ x
    h = np.where(np.abs(h) > flat, h, 0.0)
    rho = np.sqrt(np.maximum(radius**2 - h**2, 0.0))
    # corners about the foot points, in the frame (first edge, its inward normal)
    rel = corners - (x + h[:, None] * normals)[:, None]
    first = corners[:, 1] - corners[:, 0]
    first /= _norms(first)[:, None]
    frame = np.stack([first, np.cross(normals, first)], axis=1)
    a = np.einsum("fkc,fic->fki", rel, frame)
    area, turns, p0, p1 = _disk_polygon_pieces(a, np.roll(a, -1, axis=1) - a, rho)
    # seen from x, a point at p in the frame lies at (p, h)
    up = np.broadcast_to(h[:, None, None], a[..., :1].shape)
    foot, c, q0, q1 = (np.concatenate([p, up], axis=-1) for p in (0.0 * a, a, p0, p1))
    whole = _solid_angle(c[:, 0], c[:, 1], c[:, 2])
    inside = _solid_angle(foot, q0, q1).sum(axis=1)
    inside += (np.sign(h) - np.clip(h / radius, -1.0, 1.0)) * turns
    return h, area, np.where(h == 0.0, 0.0, whole), np.where(h == 0.0, 0.0, inside)


def _solid_angle(p, q, w):
    """Signed solid angle of the triangles with corners p, q, w seen from the origin."""
    lp, lq, lw = _norms(p), _norms(q), _norms(w)
    denom = lp * lq * lw + np.vecdot(p, q) * lw + np.vecdot(p, w) * lq + np.vecdot(q, w) * lp
    return 2.0 * np.arctan2(np.vecdot(p, np.cross(q, w)), denom)


def ball_intersection_volume(
    body: ConvexBody, x: np.ndarray, radius: float, cap: Optional[float] = None
) -> float:
    """Volume (area in the plane) of the body's intersection with the ball B_radius(x), exactly.

    The divergence theorem with the field y - x gives dim * V = radius * cap
    plus the integral of (y - x).nu over the body's boundary inside the
    ball, `cap` being `sphere_cap_measure(body, x, radius)` (computed if not
    given; polygons need none). On facet j, (y - x).nu is x's signed height
    h_j under it, and the facet's piece is a planar area about x's foot
    point, of radius sqrt(radius^2 - h_j^2) (`_disk_polygon_pieces`, which
    also gives a polygon's whole area). On a ball's sphere it is
    (R^2 - d z)/R, z the coordinate along the unit e from the centre to x,
    inside the ball for z > m.
    """
    x = np.asarray(x, dtype=float)
    if radius <= 0:
        raise TargetOutOfRangeError("radius must be positive")
    if isinstance(body, Polygon2D):
        return float(_disk_polygon_pieces(body.vertices - x, body.edges, np.array(radius))[0])
    if cap is None:
        cap = sphere_cap_measure(body, x, radius)
    if isinstance(body, Ball):
        big, d = body.radius, float(np.linalg.norm(x - body.center))
        m = (big**2 + d**2 - radius**2) / (2.0 * d) if d > 0.0 else np.sign(big - radius) * big
        m = np.clip(m, -big, big)
        if body.dim == 2:
            half = np.arccos(m / big)
            return float(0.5 * radius * cap + big * (big * half - d * np.sin(half)))
        surface = 2.0 * np.pi * (big - m) * (big**2 - 0.5 * d * (big + m))
        return float((radius * cap + surface) / 3.0)
    h, area, _, _ = _triangle_pieces(
        body.face_corners, body.facet_normals, body.facet_offsets, x, radius,
        _surface_tol(body))
    return float((radius * cap + h @ area) / 3.0)


def _disk_polygon_pieces(a: np.ndarray, d: np.ndarray, rho: np.ndarray):
    """Areas of counter-clockwise polygons met with disks about the origin,
    the angles of the disks' circles inside the polygons, and the ends of
    each edge's piece inside its disk.

    a (..., m, 2) holds the corners, d the edge vectors, rho (...) the
    radii. By Green's theorem edge by edge: the edge's piece inside the
    disk adds half the cross product of its ends, and the circle's arcs
    between that piece and the rays through the edge's ends add their
    signed angles, which sum to the angle inside.
    """
    t0, t1 = circle_crossings(a, d, rho[..., None])
    p0 = a + np.clip(t0, 0.0, 1.0)[..., None] * d
    p1 = a + np.clip(t1, 0.0, 1.0)[..., None] * d
    turns = (_turn(a, p0) + _turn(p1, a + d)).sum(axis=-1)
    return 0.5 * (_cross2(p0, p1).sum(axis=-1) + rho**2 * turns), turns, p0, p1


def _cross2(u, w):
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _turn(u, w):
    """Signed angle from direction u to direction w (0 if either is zero)."""
    return np.arctan2(_cross2(u, w), np.vecdot(u, w))


def projection_measure(body: ConvexBody, sigma: np.ndarray):
    """Measure of the body's shadow on the hyperplane orthogonal to sigma.

    Polytopes only: half the facet measures weighted by |<facet normal, sigma>|,
    which double-counts the shadow once from each side. A (k, d) array of
    directions gives one shadow per row.
    """
    if not getattr(body, "is_polytope", False):
        raise NotPolytopeError("shadow formula needs a facetted body")
    sigma = np.asarray(sigma, dtype=float)
    dirs = np.atleast_2d(sigma)
    dirs = dirs / _norms(dirs)[:, None]
    if isinstance(body, Polygon2D):
        measures = body.edge_lengths
    else:
        measures = body.face_areas
    shadows = 0.5 * np.sum(measures * np.abs(dirs @ body.facet_normals.T), axis=1)
    return shadows if sigma.ndim > 1 else float(shadows[0])
