"""Fractional curvature, nonlocal perimeters, and interaction sums.

The curvature of order alpha at a boundary point has two evaluations: the
chord form integrates (chord length)^(-alpha) over the inward half-sphere of
directions, and the boundary form integrates the oriented kernel
(y-x).nu(y)/|y-x|^(n+1+alpha) over the surface, cell by cell of a node set.
The divergence theorem makes them one integral, and both are exact on every
body: in closed form on balls, edge by edge on polygons, facet by facet on
hulls. With exponent n+1 the boundary kernel becomes the solid-angle
(double layer) integral, which restricts to a node subset's cells or to a
ball around x; it too is exact on every body, through the angle or solid
angle of each cell, or on a sphere an integral around each cell's edges.

Perimeters, Gagliardo energies and tails share one pair rule (`_near_pairs`),
so an indicator's energy is twice its perimeter and a set's weighted tails
sum to its perimeter, in arithmetic and not just in the limit. The rule's
geometry (which pairs are near, their cells' 4-split, the sub-cell
distances) does not depend on the power: it is built once per node set and
every power and every tail reads it; only the kernel w w' / d^power is
formed per power (`_pair_sums`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.spatial.distance import pdist
from scipy.special import beta, betainc

from .geometry import (
    Ball,
    ConvexBody,
    GeometryError,
    Hull3D,
    NodeSubset,
    ParamError,
    Params,
    Polygon2D,
    SurfaceQuadrature,
    boundary_distance,
    circle_crossings,
    _solid_angle,
    _surface_tol,
    _triangle_pieces,
)

# edge kernels (hull chord form, sphere double layer): Gauss-Legendre rule
# per panel, longest panel (in the edge variable), and (points x facets)
# per hull batch
EDGE_NODES, EDGE_WEIGHTS = np.polynomial.legendre.leggauss(12)
EDGE_PANEL = 1.0
NODE_BATCH = 2048
# near pairs in every kernel sum: threshold in local spacings; uniform meshes
# put many pairs on it, so ties within 1e-9 count as near, whatever the rounding
NEAR_FACTOR_PAIRS = 2.0
_NEAR_LIMIT = NEAR_FACTOR_PAIRS * (1.0 + 1e-9)


class NonInteriorPointError(GeometryError):
    """Raised when an evaluation point is not on the body surface."""


@dataclass
class ScalarField:
    """Real values sampled at the nodes of a surface quadrature."""

    quadrature: SurfaceQuadrature
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.quadrature.node_count,):
            raise GeometryError("field length must match the node count")
        if not np.all(np.isfinite(self.values)):
            raise GeometryError("field values must be finite")

    @classmethod
    def indicator(cls, subset: NodeSubset) -> "ScalarField":
        return cls(subset.quadrature, subset.mask.astype(float))


@dataclass
class CurvatureValue:
    x: np.ndarray
    value: float
    method: str
    estimated_error: float
    overflow: bool = False


def _require_on_surface(body: ConvexBody, x: np.ndarray):
    tol = _surface_tol(body)
    if isinstance(body, Ball):
        if abs(np.linalg.norm(x - body.center) - body.radius) > tol:
            raise NonInteriorPointError("point is not on the sphere")
        return
    slack = body.facet_offsets - body.facet_normals @ x
    nearest = float(np.min(np.abs(slack)))
    if nearest > tol or np.any(slack < -tol):
        raise NonInteriorPointError("point is not on the boundary")


def halpha_chord(
    body: ConvexBody,
    x: np.ndarray,
    alpha: float,
    normal: Optional[np.ndarray] = None,
) -> CurvatureValue:
    """Curvature of order alpha by the chord form.

    Every body is integrated exactly: balls in closed form, polygons edge by
    edge (`_segment_shares`), hulls facet by facet (`_hull_halpha`). A point
    off the surface raises. Points within 1e-9 of a facet boundary return an
    overflow-flagged infinity, unless `normal` is given: a caller that knows
    the point's facet normal (a quadrature node's) vouches that it is a
    regular point, and its value is not read.
    """
    Params(body.n, alpha)  # rejects alpha outside (0, 1)
    x = np.asarray(x, dtype=float)
    _require_on_surface(body, x)
    if normal is None and body.is_polytope and boundary_distance(body, x) < _surface_tol(body):
        return CurvatureValue(x, np.inf, "chord", np.nan, overflow=True)
    values, errors = _chord_values(body, x[None], alpha)
    return CurvatureValue(x, float(values[0]), "chord", float(errors[0]))


def _chord_values(body: ConvexBody, points: np.ndarray, alpha: float):
    """Chord form and its error estimate at many boundary points."""
    if isinstance(body, Hull3D):
        return _hull_halpha(body, points, alpha)
    if isinstance(body, Ball):
        big = 2.0 * body.radius
        if body.n == 2:
            value = 2.0 * np.pi * big ** (-alpha) / (1.0 - alpha)
        else:
            value = big ** (-alpha) * beta(0.5 * (1.0 - alpha), 0.5)
        return np.full(len(points), value), np.zeros(len(points))
    # a polygon sums the shares of the edges x is not on (at a vertex,
    # neither incident edge)
    far = body.facet_offsets - points @ body.facet_normals.T > _surface_tol(body)
    node, edge = np.nonzero(far)
    ends = np.roll(body.vertices, -1, axis=0)
    shares = _segment_shares(
        points[node], body.vertices[edge], ends[edge], body.facet_normals[edge], alpha)
    return np.bincount(node, shares, len(points)), np.zeros(len(points))


def halpha_at_nodes(quad: SurfaceQuadrature, alpha: float) -> np.ndarray:
    """Chord-form curvature at every node in one batched pass, built once per
    alpha and kept read-only in `quad.cache`: the same array each call."""
    key = ("halpha", float(Params(quad.n, alpha).alpha))  # rejects alpha outside (0, 1)
    if key in quad.cache:
        return quad.cache[key]
    return quad.keep(key, _chord_values(quad.body, quad.points, alpha)[0])


def _hull_halpha(body: Hull3D, points: np.ndarray, alpha: float):
    """Chord form on a hull, exactly: sum over facets j of h_j int |y - x|^-(3+alpha) dA.

    This is the chord integral with each direction moved to the point y
    where its ray leaves the body (`docs/chord_formula.md`). h_j is x's
    height under facet j's plane; facets with h_j <= tol (coplanar with x)
    take no direction. In polar coordinates about x's foot point p on the
    plane the radial integral is G(R) = h^-alpha (1 - (1 + R^2/h^2)^-k) /
    (1 + alpha), k = (1 + alpha)/2, and each edge at signed in-plane
    distance d from p (positive on the face's side) adds
    sign(d) * int G(|d| cosh u) du / cosh u over u = asinh(t/|d|), t the
    position along the edge. When p lies outside the face the edges' angles
    cancel, so G - G(inf) is integrated instead and nothing large cancels.
    The integrand is analytic within pi/2 of the real u axis, with its
    singularities above u = 0 and u = +-asinh(h/|d|): panels break there
    and are at most EDGE_PANEL long. Returns the values and 64 eps times
    the summed magnitudes of the edge terms, which bounds their rounding;
    the quadrature error stays below it.
    """
    normals, offsets = body.facet_normals, body.facet_offsets
    # edge k of face f runs from corner k to corner k + 1; flattened to 3f + k
    starts = body.face_corners.reshape(-1, 3)
    inward = body.edge_normals.reshape(-1, 3)
    tangents = body.edge_tangents.reshape(-1, 3)
    lengths = body.edge_lengths.reshape(-1)
    tol, k = _surface_tol(body), 0.5 * (1.0 + alpha)
    values, errors = np.zeros(len(points)), np.zeros(len(points))
    step = max(1, NODE_BATCH // len(offsets))
    for first in range(0, len(points), step):
        x = points[first:first + step]
        h = offsets - x @ normals.T
        node, edge = np.nonzero(np.repeat(h > tol, 3, axis=1))
        rel = x[node] - starts[edge]
        d, t = np.vecdot(inward[edge], rel), -np.vecdot(tangents[edge], rel)
        # p on the edge's line spans no area
        live = np.abs(d) > 1e-200 * lengths[edge]
        # p outside the face: its edges' angles cancel, so integrate G - G(inf)
        outside = np.repeat(((d < 0.0) & live).reshape(-1, 3).any(axis=1), 3)
        node, edge, d, t = node[live], edge[live], d[live], t[live]
        outside = outside[live]
        h, ad = h[node, edge // 3], np.abs(d)
        ua, ub = np.arcsinh(t / ad), np.arcsinh((t + lengths[edge]) / ad)
        c = np.arcsinh(h / ad)
        cuts = np.stack([ua, *(np.clip(v, ua, ub) for v in (-c, 0.0, c)), ub], axis=1)
        panel, half, u = _panels(cuts[:, :-1].ravel(), cuts[:, 1:].ravel())
        cu = np.cosh(u)
        power = -k * np.log1p(((ad / h)[panel // 4][:, None] * cu) ** 2)
        # (1 + R^2/h^2)^-k, less 1 where the face holds p
        f = np.exp(power)
        np.expm1(power, out=f, where=~outside[panel // 4][:, None])
        terms = np.bincount(panel // 4, -half * ((f / cu) @ EDGE_WEIGHTS), len(d))
        terms *= np.sign(d) * h ** (-alpha) / (1.0 + alpha)
        values[first:first + step] = np.bincount(node, terms, len(x))
        errors[first:first + step] = np.bincount(node, np.abs(terms), len(x))
    return values, 64.0 * np.finfo(float).eps * errors


def _panels(lo, hi):
    """Gauss-Legendre panels at most EDGE_PANEL long tiling the intervals (lo, hi).

    Returns each panel's interval index, its half width, and its nodes
    (panels, len(EDGE_NODES)).
    """
    widths = hi - lo
    parts = np.ceil(widths / EDGE_PANEL).astype(int)
    panel = np.repeat(np.arange(len(widths)), parts)
    sub = np.arange(len(panel)) - np.repeat(np.cumsum(parts) - parts, parts)
    half = 0.5 * (widths / np.maximum(parts, 1))[panel]
    mid = lo[panel] + (2 * sub + 1) * half
    return panel, half, mid[:, None] + half[:, None] * EDGE_NODES


def _segment_shares(x, a, b, normals, alpha):
    """h^(-alpha) times the integral of cos^alpha(psi) over each segment a -> b,
    seen from x (one point, or one per segment).

    h = <nu, y - x>, s = <tau, y - x> with tau = (-nu_y, nu_x), psi = atan2(s, h):
    the chord along psi is h / cos(psi) and the boundary kernel is
    h^(-alpha) cos^alpha(psi) dpsi, so this is either form's exact share. The
    primitive is sign(s) B(1/2, k) I_S(1/2, k) / 2, k = (1 + alpha)/2,
    S = s^2/(s^2 + h^2); steep one-sided segments difference the complements
    I_{h^2/(s^2+h^2)}(k, 1/2) instead, so nothing cancels.
    """
    tau = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
    ends = np.stack([a - x, b - x])
    s = np.vecdot(tau, ends)
    # from the nearer end, so a small h keeps its relative accuracy
    h = np.vecdot(normals, ends[np.argmin(np.abs(s), axis=0), np.arange(len(a))])
    r2 = s * s + h * h
    k = 0.5 * (1.0 + alpha)
    steep = (s[0] * s[1] > 0.0) & (s[0] ** 2 + s[1] ** 2 > 2.0 * h * h)
    complement = betainc(k, 0.5, h * h / r2)
    prim = np.sign(s) * np.where(steep, -complement, betainc(0.5, k, s * s / r2))
    return 0.5 * beta(0.5, k) * h ** (-alpha) * (prim[1] - prim[0])


# ---------------------------------------------------------------------------
# boundary form and double layer


def _resolve_node(quad: SurfaceQuadrature, i) -> int:
    i = operator.index(i)
    if not 0 <= i < quad.node_count:
        raise NonInteriorPointError(f"node index {i} out of range")
    return i


def halpha_boundary(
    body: ConvexBody, quad: SurfaceQuadrature, i, alpha: float
) -> CurvatureValue:
    """Curvature of order alpha by the boundary form over a node set's cells.

    The form integrates (y-x).nu(y)/|y-x|^(n+1+alpha) over the surface.
    Summed exactly, cell by cell, the cells tile the surface: segments and
    flat triangles tile the edges and facets, arcs and great-circle
    triangles the circle and the sphere. So the sum is the surface integral
    the chord form evaluates (`_chord_values`): on a facet at height h
    under x, (y-x).nu = h, which is `_hull_halpha`'s kernel; on a sphere
    (y-x).nu = |y-x|^2 / 2R, whose integral is 2 pi (2R)^-alpha/(1-alpha);
    on planar bodies both forms are the same edge integrals. The result is
    `halpha_chord`'s at node i's point, its value, error estimate and
    overflow flag, under the method name "boundary".
    """
    if quad.body is not body:
        raise GeometryError("quadrature was built for a different body")
    x = quad.points[_resolve_node(quad, i)]
    return replace(halpha_chord(body, x, alpha), method="boundary")


def double_layer(
    quad: SurfaceQuadrature,
    i,
    subset: Optional[NodeSubset] = None,
    within: Optional[float] = None,
) -> float:
    """Solid-angle integral of (y-x).nu(y)/|y-x|^(n+1) over cells of a node
    set, seen from node i's point x.

    Unrestricted, this recovers half the sphere measure at every node of
    every convex body; restricted to a node subset's cells, or to the part
    of the cells in the ball of radius `within` around x, it measures that
    region's angular content seen from x. Every body is integrated exactly,
    cell by cell: on a polygon each cell adds the angle it subtends from x,
    on a circle half its central angle, on a hull the solid angle of its
    flat triangle, and on a sphere an integral around its edges
    (`_sphere_cell_angle`).
    """
    i = _resolve_node(quad, i)
    active = np.ones(quad.node_count, dtype=bool) if subset is None else subset.mask
    body = quad.body
    if isinstance(body, Polygon2D):
        return _polygon_angle(quad, i, active, within)
    if body.n == 1:
        return _arc_angle(quad, i, active, within)
    if isinstance(body, Hull3D):
        return _hull_cell_angle(quad, i, active, within)
    return _sphere_cell_angle(quad, i, active, within)


def _hull_cell_angle(quad, i, active, within):
    """Solid angle the active flat cells subtend from node i, each clipped to the ball.

    Cells in the node's facet plane subtend nothing. Unrestricted, each
    other cell counts whole (Van Oosterom and Strackee's formula);
    `_triangle_pieces` clips them to the ball.
    """
    body = quad.body
    pt = quad.points[i]
    cells, ids = quad.patches[active], quad.facet_ids[active]
    flat = _surface_tol(body)
    if within is None:
        h = (body.facet_offsets - body.facet_normals @ pt)[ids]
        c = cells - pt
        return float(_solid_angle(c[:, 0], c[:, 1], c[:, 2])[np.abs(h) > flat].sum())
    pieces = _triangle_pieces(
        cells, body.facet_normals[ids], body.facet_offsets[ids], pt, within, flat)
    return float(pieces[3].sum())


def _sphere_cell_angle(quad, i, active, within):
    """Solid angle of the active sphere cells from node i's point x, within
    the ball of radius r.

    In geodesic polar coordinates (Phi, psi) about x, on a sphere of radius
    R, (y-x).nu/|y-x|^3 dA = cos(Phi/2)/2 dPhi dpsi, whose radial primitive
    is F(Phi) = sin(Phi/2): the alpha = 0 case of (2R)^-alpha
    sin^(1-alpha)(Phi/2)/(1-alpha). The ball keeps Phi <= Phi_r =
    2 arcsin(r/2R). By Green's theorem a cell is then the integral of
    F(min(Phi, Phi_r)) dpsi around its edges (`_arc_terms`), and the cell
    holding -x, where the polar coordinates wrap, adds 2 pi F(min(pi, Phi_r)).
    A node is never on an edge.
    """
    body = quad.body
    e = quad.normals[i]
    units = (quad.patches - body.center) / body.radius
    top = 1.0 if within is None else min(within / (2.0 * body.radius), 1.0)
    cells = units[active]
    ends = cells[:, [1, 2, 0]]
    value = float(_arc_terms(e, cells.reshape(-1, 3), ends.reshape(-1, 3), top).sum())
    # -x lies in the cell it is furthest inside of, by the planes of the edges
    depth = np.vecdot(-e, np.cross(units, units[:, [1, 2, 0]])).min(axis=1)
    if active[np.argmax(depth)]:
        value += 2.0 * np.pi * top
    return value


def _arc_terms(e, a, b, top):
    """Integral of min(sin(Phi/2), top) dpsi along each great-circle arc a -> b.

    (Phi, psi) are polar coordinates about the unit vector e, psi turning
    about e. With n the arc's pole, sigma = <e, n> = +-sin(delta), delta the
    angle from e to the great circle, and s the position along it from its
    point nearest e: cos Phi = cos(delta) cos(s) and dpsi = sigma ds /
    (1 - cos^2(delta) cos^2(s)). That peaks at s = 0 and s = pi when delta
    is small, so within pi/4 of either the variable is u, tan s =
    sin(delta) sinh u, which gives dpsi = +-du / cosh u (the hull edges'
    rule, `_hull_halpha`); elsewhere it is s. Pieces also break at the kink
    Phi = Phi_r, where sin(Phi_r/2) = top. Arcs whose great circle passes
    through e (sigma = 0) sweep no angle.
    """
    m = np.cross(a, b)
    sm = np.sqrt(np.vecdot(m, m))
    n = m / sm[:, None]
    sigma = n @ e
    live = np.abs(sigma) > 1e-200
    a, b, n, sm, sigma = a[live], b[live], n[live], sm[live], sigma[live]
    sd = np.abs(sigma)
    c = np.sqrt(np.vecdot(e - sigma[:, None] * n, e - sigma[:, None] * n))
    start = np.arctan2(np.vecdot(a, np.cross(n, e)), a @ e)
    end = start + np.arctan2(sm, np.vecdot(a, b))
    kink = np.arccos(np.clip((1.0 - 2.0 * top * top) / np.maximum(c, 1e-300), -1.0, 1.0))
    quarters = np.broadcast_to(np.arange(-3, 8, 2) * (0.25 * np.pi), (len(c), 6))
    kinks = np.stack([-kink, kink, 2.0 * np.pi - kink], axis=1)
    breaks = np.concatenate([quarters, kinks], axis=1)
    cuts = np.sort(np.clip(breaks, start[:, None], end[:, None]), axis=1)
    cuts = np.concatenate([start[:, None], cuts, end[:, None]], axis=1)
    lo, hi = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    arc = np.repeat(np.arange(len(c)), cuts.shape[1] - 1)
    keep = hi > lo
    lo, hi, arc = lo[keep], hi[keep], arc[keep]
    turn = np.round(0.5 * (lo + hi) / np.pi)
    near = np.abs(0.5 * (lo + hi) - turn * np.pi) <= 0.25 * np.pi
    # away from e and -e, in s
    panel, half, s = _panels(lo[~near], hi[~near])
    i = arc[~near][panel]
    cs = c[i, None] * np.cos(s)
    g = sd[i, None] * np.minimum(np.sqrt(0.5 * (1.0 - cs)), top) / (1.0 - cs * cs)
    total = np.zeros(len(c))
    total += np.bincount(i, half * (g @ EDGE_WEIGHTS), len(c))
    # near e (even turns) and -e (odd turns), in u
    i, turn = arc[near], turn[near]
    lo, hi = (np.arcsinh(np.tan(t[near] - turn * np.pi) / sd[i]) for t in (lo, hi))
    panel, half, u = _panels(lo, hi)
    i, antipode = i[panel], (turn[panel] % 2 == 1)[:, None]
    cc, sdi = c[i, None], sd[i, None]
    # near e, sin(Phi/2) / cosh u = sin(delta) / sqrt(2 r (r + cos(delta))),
    # r = sqrt(1 + sin^2(delta) sinh^2 u); near -e, sin^2(Phi/2) = (r + cos(delta)) / 2r
    r = np.sqrt(1.0 + (sdi * np.sinh(u)) ** 2)
    ch = np.cosh(u)
    f = np.where(antipode, np.sqrt((r + cc) / (2.0 * r)) / ch, sdi / np.sqrt(2.0 * r * (r + cc)))
    total += np.bincount(i, half * (np.minimum(f, top / ch) @ EDGE_WEIGHTS), len(c))
    return np.sign(sigma) * total


def _polygon_angle(quad, i, active, within):
    """Angle the active edge cells subtend from node i, each clipped to the disk."""
    pt = quad.points[i]
    active = active & (quad.facet_ids != quad.facet_ids[i])
    a = quad.patches[active, 0] - pt
    b = quad.patches[active, 1] - pt
    if within is not None:
        d = b - a
        t0, t1 = (np.clip(t, 0.0, 1.0)[:, None] for t in circle_crossings(a, d, within))
        a, b = a + t0 * d, a + t1 * d
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return float(np.arctan2(cross, np.vecdot(a, b)).sum())


def _arc_angle(quad, i, active, within):
    """Half the central angle of the active arc cells, node i's own included.

    That is the angle an arc subtends from a point of its circle. Clipped to
    the disk, central angles u from x keep |u| <= 2 arcsin(r / 2R); the cell
    that runs past the antipode is clipped again, shifted by 2 pi.
    """
    body = quad.body
    rel = quad.points[i] - body.center
    cells = quad.patches[active]
    lo = (cells[:, 0] - np.arctan2(rel[1], rel[0]) + np.pi) % (2.0 * np.pi) - np.pi
    hi = lo + (cells[:, 1] - cells[:, 0])
    w = np.pi if within is None else 2.0 * np.arcsin(min(within / (2.0 * body.radius), 1.0))
    width = sum(np.clip(hi - t, -w, w) - np.clip(lo - t, -w, w) for t in (0.0, 2.0 * np.pi))
    return float(0.5 * width.sum())


# ---------------------------------------------------------------------------
# interaction sums


class _NearPairs(NamedTuple):
    """Near-pair geometry of a node set, which no power changes (`_near_pairs`)."""

    first: np.ndarray  # (k,) node i of each near pair i < j
    second: np.ndarray  # (k,) node j
    positions: np.ndarray  # (k,) the pair's place in `pdist` order
    sub_weights: np.ndarray  # (N, 4) sub-cell weights of every cell's 4-split
    gaps: np.ndarray  # (k, 4, 4) distances from cell i's sub-cells to cell j's


def _near_pairs(quad: SurfaceQuadrature, dist: Optional[np.ndarray] = None) -> _NearPairs:
    """The near pairs of a node set and the geometry of their one 4-split.

    A pair i < j is near when 0 < |x_i - x_j| <= NEAR_FACTOR_PAIRS
    max(h_i, h_j), h the local spacings and the distances those of `pdist`
    (`dist`, when the caller has them). Every cell is split once
    (`split_cells`, whose rows do not depend on which nodes are listed), and
    the 16 sub-cell distances of each near pair are taken one coordinate at
    a time, which rounds exactly like `np.linalg.norm`. No power enters:
    the result is built at the node set's first interaction sum and kept,
    read-only, in `quad.cache`; `_pair_sums` forms the kernel at a power.
    """
    if "near pairs" in quad.cache:
        return quad.cache["near pairs"]
    if dist is None:
        dist = pdist(quad.points)
    h = quad.spacings
    # pair (i, j), i < j, sits at starts[i] + j - i - 1
    starts = np.concatenate([[0], np.cumsum(np.arange(quad.node_count - 1, 0, -1))])
    cand = np.flatnonzero(dist <= _NEAR_LIMIT * h.max())
    first = np.searchsorted(starts, cand, side="right") - 1
    second = cand - starts[first] + first + 1
    d = dist[cand]
    near = (d > 0.0) & (d <= _NEAR_LIMIT * np.maximum(h[first], h[second]))
    first, second = first[near], second[near]
    sub_pts, sub_w = quad.split_cells(np.arange(quad.node_count))
    gaps = np.zeros((len(first), 4, 4))
    for x in np.moveaxis(sub_pts, 2, 0).copy():
        t = x[first][:, :, None] - x[second][:, None, :]
        t *= t
        gaps += t
    np.sqrt(gaps, out=gaps)
    return quad.keep("near pairs", _NearPairs(first, second, cand[near], sub_w, gaps))


def _pair_sums(w_a, w_b, gaps, power):
    """Sum of w w' / |y - y'|^power over the 4 x 4 sub-pairs of each near pair."""
    terms = w_a[:, :, None] * w_b[:, None, :] / gaps**power
    return terms.reshape(len(gaps), 16).sum(axis=1)


def interaction_matrix(quad: SurfaceQuadrature, power: float) -> np.ndarray:
    """Pair interactions w_i w_j / |x_i - x_j|^power with near pairs refined.

    Condensed: one entry per unordered pair i < j, in the order of
    `scipy.spatial.distance.pdist`, so `squareform` expands it to the
    symmetric matrix with a zero diagonal. Near pairs are re-evaluated on
    one 4-split level of both cells (`_near_pairs`, whose geometry every
    power shares), all of them in one batched pass. The vector is built once
    per power and kept in `quad.cache`, so every call on the same node set
    returns the same read-only array: copy it before writing.
    """
    key = ("matrix", float(power))
    if key in quad.cache:
        return quad.cache[key]
    count, w = quad.node_count, quad.weights
    mat = pdist(quad.points)
    near = _near_pairs(quad, mat)
    sub_w = near.sub_weights
    sums = _pair_sums(sub_w[near.first], sub_w[near.second], near.gaps, power)
    mat **= power
    np.divide(1.0, mat, out=mat, where=mat > 0.0)
    start = 0
    for i in range(count - 1):
        mat[start : start + count - 1 - i] *= w[i] * w[i + 1 :]
        start += count - 1 - i
    mat[near.positions] = sums
    return quad.keep(key, mat)


def frac_perimeter(subset: NodeSubset, s: float) -> float:
    """Perimeter of order s: interaction between a node set and its complement.

    Summed over unordered mixed pairs in index order, so a set and its
    complement give the identical float.
    """
    quad = subset.quadrature
    Params(quad.n, s=s)  # rejects s outside (0, 1)
    mat = interaction_matrix(quad, quad.n + s)
    return float(mat[pdist(subset.mask[:, None], "cityblock") > 0.0].sum())


def gagliardo(field: ScalarField, s: float, p: float) -> float:
    """Gagliardo energy (p-th power of the seminorm) of a node field.

    Twice the sum over pairs i < j of `interaction_matrix` times |u_i - u_j|^p.
    """
    quad = field.quadrature
    Params(quad.n, s=s, p=p)  # rejects s outside (0, 1) and p below 1
    mat = interaction_matrix(quad, quad.n + s * p)
    return 2.0 * float((mat * pdist(field.values[:, None], "cityblock") ** p).sum())


def tail_integral(quad: SurfaceQuadrature, i, subset: NodeSubset, sp: float) -> float:
    """Kernel mass of the subset's complement seen from node i, which it holds:
    node i's row of the pair interactions at power n + sp, divided by w_i.

    Node i's near pairs and their sub-cell distances come from the node
    set's shared near-pair geometry (`_near_pairs`), turned to put i first.
    """
    i = _resolve_node(quad, i)
    if not 0.0 < sp < np.inf:
        raise ParamError(f"sp must be positive and finite, got {sp}")
    if not subset.mask[i]:
        raise GeometryError("evaluation node must belong to the subset")
    out, w = np.flatnonzero(~subset.mask), quad.weights
    d = np.linalg.norm(quad.points[out] - quad.points[i], axis=1)
    row = np.divide(w[i] * w[out], d ** (quad.n + sp), out=np.zeros(len(out)), where=d > 0.0)
    near = _near_pairs(quad)
    # i's near pairs with the complement, by the other node: those below i,
    # turned to put i first, then those above
    below = np.flatnonzero(near.second == i)
    above = np.arange(*np.searchsorted(near.first, [i, i + 1]))
    below = below[~subset.mask[near.first[below]]]
    above = above[~subset.mask[near.second[above]]]
    other = np.concatenate([near.first[below], near.second[above]])
    gaps = np.concatenate([near.gaps[below].transpose(0, 2, 1), near.gaps[above]])
    sub_w = near.sub_weights
    row[np.searchsorted(out, other)] = _pair_sums(sub_w[i][None], sub_w[other], gaps, quad.n + sp)
    return float(row.sum() / w[i])
