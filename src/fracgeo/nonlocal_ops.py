"""Fractional curvature, nonlocal perimeters, and interaction sums.

The curvature of order alpha at a boundary point has two independent
evaluations: the chord form integrates (chord length)^(-alpha) over the
inward half-sphere of directions, exactly on every body (in closed form on
balls, edge by edge on polygons, facet by facet on hulls), and the boundary
form sums the oriented kernel (y-x).nu(y)/|y-x|^(n+1+alpha) over surface nodes.
The chord form is the reference; the boundary form cross-checks it and
generalizes to restricted domains, where with exponent n+1 it becomes the
solid-angle (double layer) sum. On planar bodies all of these are exact.

Perimeters of node subsets and Gagliardo energies of node fields share one
interaction engine, so the indicator identity (energy of an indicator equals
twice the perimeter) holds at the arithmetic level, not just in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import beta, betainc

from .geometry import (
    Ball,
    ConvexBody,
    GeometryError,
    Hull3D,
    NodeSubset,
    Params,
    Polygon2D,
    SurfaceQuadrature,
    boundary_distance,
    circle_crossings,
    ray_exits,
)
from .icosphere import sphere_cells, split4
from .quadrature import graded_half_rule, graded_interval

# hull chord kernel: Gauss-Legendre rule per panel, longest panel (in u),
# and (points x facets) per batch
EDGE_NODES, EDGE_WEIGHTS = np.polynomial.legendre.leggauss(12)
EDGE_PANEL = 1.0
NODE_BATCH = 2048
# near-field node refinement: threshold in local spacings, and 4-split levels
NEAR_FACTOR_CURVATURE = 3.0
NEAR_FACTOR_PAIRS = 2.0
NEAR_LEVELS = 2
# dyadic depth for the cell containing the evaluation point on curved bodies
OWN_CELL_DEPTH = 42


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


def _on_surface_tol(body: ConvexBody) -> float:
    return 1e-9 * body.diameter()


def _require_on_surface(body: ConvexBody, x: np.ndarray):
    tol = _on_surface_tol(body)
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
    edge (`_planar_halpha`), hulls facet by facet (`_hull_halpha`). A point
    off the surface raises. Points within 1e-9 of a facet boundary return an
    overflow-flagged infinity, unless `normal` is given: a caller that knows
    the point's facet normal (a quadrature node's) vouches that it is a
    regular point, and its value is not read.
    """
    Params(body.n, alpha)  # rejects alpha outside (0, 1)
    x = np.asarray(x, dtype=float)
    _require_on_surface(body, x)
    if normal is None and body.is_polytope and boundary_distance(body, x) < _on_surface_tol(body):
        return CurvatureValue(x, np.inf, "chord", np.nan, overflow=True)
    values, errors = _chord_values(body, x[None], alpha)
    return CurvatureValue(x, float(values[0]), "chord", float(errors[0]))


def _chord_values(body: ConvexBody, points: np.ndarray, alpha: float):
    """Chord form and its error estimate at many boundary points."""
    if isinstance(body, Hull3D):
        return _hull_halpha(body, points, alpha)
    if isinstance(body, Ball) and body.n == 2:
        value = 2.0 * np.pi * (2.0 * body.radius) ** (-alpha) / (1.0 - alpha)
        values = np.full(len(points), value)
    else:
        values = np.array([_planar_halpha(body, x, alpha) for x in points])
    return values, np.zeros(len(points))


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
    tol, k = _on_surface_tol(body), 0.5 * (1.0 + alpha)
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
        widths = np.diff(cuts, axis=1).ravel()
        parts = np.ceil(widths / EDGE_PANEL).astype(int)
        panel = np.repeat(np.arange(len(widths)), parts)
        sub = np.arange(len(panel)) - np.repeat(np.cumsum(parts) - parts, parts)
        half = 0.5 * (widths / np.maximum(parts, 1))[panel]
        mid = cuts[:, :-1].ravel()[panel] + (2 * sub + 1) * half
        cu = np.cosh(mid[:, None] + half[:, None] * EDGE_NODES)
        power = -k * np.log1p(((ad / h)[panel // 4][:, None] * cu) ** 2)
        # (1 + R^2/h^2)^-k, less 1 where the face holds p
        f = np.exp(power)
        np.expm1(power, out=f, where=~outside[panel // 4][:, None])
        terms = np.bincount(panel // 4, -half * ((f / cu) @ EDGE_WEIGHTS), len(d))
        terms *= np.sign(d) * h ** (-alpha) / (1.0 + alpha)
        values[first:first + step] = np.bincount(node, terms, len(x))
        errors[first:first + step] = np.bincount(node, np.abs(terms), len(x))
    return values, 64.0 * np.finfo(float).eps * errors


def _planar_halpha(body: ConvexBody, x: np.ndarray, alpha: float) -> float:
    """Chord (equally, boundary) form on a planar body, in closed form.

    A disk gives (2R)^(-alpha) B((1 - alpha)/2, 1/2); a polygon sums the
    shares of the edges x is not on (at a vertex, neither incident edge).
    """
    if isinstance(body, Ball):
        return float((2.0 * body.radius) ** (-alpha) * beta(0.5 * (1.0 - alpha), 0.5))
    far = body.facet_offsets - body.facet_normals @ x > _on_surface_tol(body)
    ends = np.roll(body.vertices, -1, axis=0)
    shares = _segment_shares(x, body.vertices[far], ends[far], body.facet_normals[far], alpha)
    return float(shares.sum())


def _segment_shares(x, a, b, normals, alpha):
    """h^(-alpha) times the integral of cos^alpha(psi) over each segment a -> b.

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


def clipped_chord_sum(
    body: ConvexBody,
    x: np.ndarray,
    nu: np.ndarray,
    alpha: float,
    resolution: int,
    gap_low: float = 0.0,
    gap_high: float = 0.0,
    osc_radius_low: float = np.inf,
    osc_radius_high: float = np.inf,
) -> float:
    """Chord-form sum with the near-tangent cone gaps handled explicitly.

    At a marker with entering cone (gap_low, pi - gap_high) the rule cells
    are clipped to the cone and each gap is integrated against the local
    osculating model chord(theta) ~ 2 * R_osc * sin(theta). Gaps of zero
    reduce to the plain facet-interior evaluation.
    """
    rule = graded_half_rule(np.asarray(nu, dtype=float), alpha, resolution)
    lo = np.clip(rule.cells[:, 0], gap_low, np.pi - gap_high)
    hi = np.clip(rule.cells[:, 1], gap_low, np.pi - gap_high)
    widths = hi - lo
    keep = widths > 0.0
    thetas = rule.thetas.copy()
    clipped = keep & (
        (rule.cells[:, 0] < gap_low) | (rule.cells[:, 1] > np.pi - gap_high)
    )
    thetas[clipped] = 0.5 * (lo[clipped] + hi[clipped])
    tangent = np.array([-nu[1], nu[0]])
    dirs = np.outer(np.cos(thetas[keep]), tangent) - np.outer(
        np.sin(thetas[keep]), np.asarray(nu, dtype=float)
    )
    rho = ray_exits(body, x, dirs)
    positive = rho > 0.0
    value = float(
        np.sum(widths[keep][positive] * rho[positive] ** (-alpha))
    )
    for gap, rosc in ((gap_low, osc_radius_low), (gap_high, osc_radius_high)):
        if gap > 0.0 and np.isfinite(rosc) and rosc > 0.0:
            nodes, dw = graded_interval(alpha, 24, gap)
            value += float(np.sum(dw * (2.0 * rosc * np.sin(nodes)) ** (-alpha)))
    return value


# ---------------------------------------------------------------------------
# boundary-form sums


def _resolve_node(quad: SurfaceQuadrature, x) -> tuple[np.ndarray, Optional[int]]:
    if isinstance(x, (int, np.integer)):
        idx = int(x)
        if not 0 <= idx < quad.node_count:
            raise NonInteriorPointError(f"node index {idx} out of range")
        return quad.points[idx], idx
    pt = np.asarray(x, dtype=float)
    d = np.linalg.norm(quad.points - pt, axis=1)
    idx = int(np.argmin(d))
    if d[idx] <= _on_surface_tol(quad.body):
        return quad.points[idx], idx
    if quad.body.is_polytope:
        _require_on_surface(quad.body, pt)
        return pt, None
    raise NonInteriorPointError(
        "off-node evaluation on a curved body; pass a node index or node point"
    )


def _facet_of(quad: SurfaceQuadrature, x: np.ndarray, idx: Optional[int]) -> int:
    if idx is not None:
        return int(quad.facet_ids[idx])
    body = quad.body
    slack = body.facet_offsets - body.facet_normals @ x
    return int(np.argmin(np.abs(slack)))


def _kernel_terms(x, pts, nrms, wts, exponent):
    diff = pts - x
    dist = np.linalg.norm(diff, axis=1)
    dot = np.einsum("ij,ij->i", diff, nrms)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(dist > 0.0, wts * dot / dist**exponent, 0.0)
    return vals


def _own_cell_sum(quad: SurfaceQuadrature, idx: int, exponent: float) -> float:
    """Contribution of the cell containing x on a sphere.

    Two points of a sphere of radius R at chord distance d have
    dot(y - x, nu(y)) = d*d / (2R) exactly, so the integrand collapses to
    d^(2-e) / (2R). The cell is split toward its own node by medial-triangle
    recursion and each shell uses that closed form; forming the dot by
    coordinate subtraction instead would drown in rounding noise at the deep
    shells and the quotient by d^e would amplify it without bound.
    """
    body = quad.body
    radius = body.radius
    total = 0.0
    x_unit = (quad.points[idx] - body.center) / radius
    units = (np.asarray(quad.patches[idx]) - body.center) / radius
    last = 0.0
    for _ in range(OWN_CELL_DEPTH):
        children = split4(units[None], sphere=True)
        shell = children[:3]
        for _ in range(3):
            shell = split4(shell, sphere=True)
        bary, solid = sphere_cells(shell)
        w = radius**2 * solid
        chords = radius * np.linalg.norm(bary - x_unit, axis=1)
        last = float((w * chords ** (2.0 - exponent)).sum())
        total += last
        units = children[3]
        # once the shells are flat their contributions decay geometrically;
        # summing the tail in closed form avoids driving the triangle areas
        # into rounding-degenerate territory
        if np.linalg.norm(units[0] - x_unit) < 1e-6:
            ratio = 2.0 ** (exponent - 4.0)
            total += last * ratio / (1.0 - ratio)
            break
    return total / (2.0 * radius)


def _boundary_sum(
    quad: SurfaceQuadrature,
    x,
    exponent: float,
    include: Optional[np.ndarray] = None,
    within: Optional[float] = None,
) -> tuple[float, float]:
    """Oriented kernel sum over surface nodes with near-field and own-cell handling.

    Returns (value, refinement difference). `include` restricts to a node
    mask; `within` restricts to the ball of that radius around x, with
    straddling cells split once and filtered by sub-node distance.
    """
    body = quad.body
    pt, idx = _resolve_node(quad, x)
    active = np.ones(quad.node_count, dtype=bool)
    if include is not None:
        active &= np.asarray(include, dtype=bool)
    if idx is not None:
        active_own = bool(active[idx])
        active[idx] = False
    else:
        active_own = True
    dist = np.linalg.norm(quad.points - pt, axis=1)
    straddle = np.zeros(quad.node_count, dtype=bool)
    if within is not None:
        straddle = active & (np.abs(dist - within) <= quad.spacings)
        active &= dist <= within
    if body.is_polytope:
        own_facet = _facet_of(quad, pt, idx)
        same = quad.facet_ids == own_facet
        active = active & ~same
        straddle = straddle & ~same
    spacing_x = quad.spacings[idx] if idx is not None else float(np.median(quad.spacings))
    near = active & (dist < NEAR_FACTOR_CURVATURE * np.maximum(quad.spacings, spacing_x))
    plain = active & ~near & ~straddle
    near = near & ~straddle

    value = float(
        _kernel_terms(
            pt, quad.points[plain], quad.normals[plain], quad.weights[plain], exponent
        ).sum()
    )
    unrefined_near = float(
        _kernel_terms(
            pt, quad.points[near], quad.normals[near], quad.weights[near], exponent
        ).sum()
    )
    refined_near = 0.0
    for j in np.nonzero(near)[0]:
        sp, sn, sw = quad.refine_towards(int(j), pt)
        refined_near += float(_kernel_terms(pt, sp, sn, sw, exponent).sum())
    value += refined_near
    for j in np.nonzero(straddle)[0]:
        sp, sn, sw = quad.refine_node(int(j), NEAR_LEVELS)
        sd = np.linalg.norm(sp - pt, axis=1)
        keep = sd <= within
        value += float(_kernel_terms(pt, sp[keep], sn[keep], sw[keep], exponent).sum())
    own_ok = within is None or 0.0 <= within  # own cell is at distance 0
    if idx is not None and active_own and own_ok and not body.is_polytope:
        value += _own_cell_sum(quad, idx, exponent)
    return value, abs(refined_near - unrefined_near)


def halpha_boundary(
    body: ConvexBody, quad: SurfaceQuadrature, x, alpha: float
) -> CurvatureValue:
    """Curvature of order alpha by the boundary form over a node set.

    Planar bodies are integrated exactly (`_planar_halpha`). On hulls the
    facet containing x contributes exactly zero and is skipped; other
    near-field nodes are refined by facet subdivision. On spheres the cell
    of x is resolved by the graded own-cell scheme.
    """
    Params(body.n, alpha)  # rejects alpha outside (0, 1)
    if quad.body is not body:
        raise GeometryError("quadrature was built for a different body")
    pt, idx = _resolve_node(quad, x)
    if body.is_polytope and boundary_distance(body, pt) < _on_surface_tol(body):
        return CurvatureValue(pt, np.inf, "boundary", np.nan, overflow=True)
    if body.n == 1:
        return CurvatureValue(pt, _planar_halpha(body, pt, alpha), "boundary", 0.0)
    value, est = _boundary_sum(quad, x, body.n + 1.0 + alpha)
    return CurvatureValue(pt, value, "boundary", est)


def double_layer(
    quad: SurfaceQuadrature,
    x,
    subset: Optional[NodeSubset] = None,
    within: Optional[float] = None,
) -> float:
    """Solid-angle sum (y-x).nu(y)/|y-x|^(n+1) over a boundary region.

    Unrestricted, this recovers half the sphere measure at every boundary
    point of every convex body; restricted to a node subset or a ball around
    x it measures the region's angular content seen from x. On planar bodies
    the sum is exact: each cell adds the angle it subtends from x.
    """
    include = subset.mask if subset is not None else None
    if isinstance(quad.body, Polygon2D):
        return _polygon_angle(quad, x, include, within)
    if quad.body.n == 1:
        return _arc_angle(quad, x, include, within)
    value, _ = _boundary_sum(quad, x, quad.body.n + 1.0, include=include, within=within)
    return value


def _polygon_angle(quad, x, include, within):
    """Angle the active edge cells subtend from x, each clipped to the disk."""
    pt, idx = _resolve_node(quad, x)
    active = quad.facet_ids != _facet_of(quad, pt, idx)
    if include is not None:
        active &= np.asarray(include, dtype=bool)
    a = quad.patches[active, 0] - pt
    b = quad.patches[active, 1] - pt
    if within is not None:
        d = b - a
        t0, t1 = (np.clip(t, 0.0, 1.0)[:, None] for t in circle_crossings(a, d, within))
        a, b = a + t0 * d, a + t1 * d
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return float(np.arctan2(cross, np.vecdot(a, b)).sum())


def _arc_angle(quad, x, include, within):
    """Half the central angle of the active arc cells, x's own included.

    That is the angle an arc subtends from a point of its circle. Clipped to
    the disk, central angles u from x keep |u| <= 2 arcsin(r / 2R); the cell
    that runs past the antipode is clipped again, shifted by 2 pi.
    """
    body = quad.body
    rel = _resolve_node(quad, x)[0] - body.center
    cells = quad.patches if include is None else quad.patches[np.asarray(include, dtype=bool)]
    lo = (cells[:, 0] - np.arctan2(rel[1], rel[0]) + np.pi) % (2.0 * np.pi) - np.pi
    hi = lo + (cells[:, 1] - cells[:, 0])
    w = np.pi if within is None else 2.0 * np.arcsin(min(within / (2.0 * body.radius), 1.0))
    width = sum(np.clip(hi - t, -w, w) - np.clip(lo - t, -w, w) for t in (0.0, 2.0 * np.pi))
    return float(0.5 * width.sum())


# ---------------------------------------------------------------------------
# interaction sums


def interaction_matrix(quad: SurfaceQuadrature, power: float) -> np.ndarray:
    """Symmetric matrix w_i w_j / |x_i - x_j|^power with near pairs refined.

    Pairs closer than two local spacings are re-evaluated on one 4-split
    level of both cells, all of them in one batched pass. The diagonal is
    zero; callers assemble perimeters and energies by masking. The matrix is
    built once per power and kept in `quad.matrices`, so every call on the
    same node set returns the same read-only array: copy it before writing.
    """
    key = float(power)
    if key in quad.matrices:
        return quad.matrices[key]
    pts = quad.points
    w = quad.weights
    # |x_i - x_j| one coordinate at a time, so one (N, N) temporary is live
    dist = np.zeros((quad.node_count, quad.node_count))
    for k in range(pts.shape[1]):
        step = np.subtract.outer(pts[:, k], pts[:, k])
        dist += np.square(step, out=step)
    np.sqrt(dist, out=dist)
    limit = np.maximum.outer(quad.spacings, quad.spacings)
    limit *= NEAR_FACTOR_PAIRS
    near_i, near_j = np.nonzero(np.triu((dist < limit) & (dist > 0.0), 1))
    del limit
    dist **= power
    mat = np.divide(1.0, dist, out=dist, where=dist > 0.0)
    np.multiply(np.outer(w, w), mat, out=mat)
    np.fill_diagonal(mat, 0.0)
    if len(near_i):
        nodes, slot = np.unique(np.concatenate([near_i, near_j]), return_inverse=True)
        parts = zip(*(quad.refine_node(int(i), 1) for i in nodes))
        sub_pts, _, sub_w = (np.stack(arrays) for arrays in parts)
        a, b = slot[: len(near_i)], slot[len(near_i) :]
        d = np.linalg.norm(sub_pts[a][:, :, None, :] - sub_pts[b][:, None, :, :], axis=3)
        terms = sub_w[a][:, :, None] * sub_w[b][:, None, :] / d**power
        vals = terms.reshape(len(a), -1).sum(axis=1)
        mat[near_i, near_j] = vals
        mat[near_j, near_i] = vals
    mat.setflags(write=False)
    quad.matrices[key] = mat
    return mat


def frac_perimeter(subset: NodeSubset, s: float) -> float:
    """Perimeter of order s: interaction between a node set and its complement.

    Summed over unordered mixed pairs in index order, so a set and its
    complement give the identical float.
    """
    if not 0.0 < s < 1.0:
        raise GeometryError(f"s must lie in (0,1), got {s}")
    quad = subset.quadrature
    mat = interaction_matrix(quad, quad.n + s)
    mixed = subset.mask[:, None] ^ subset.mask[None, :]
    return float(mat[np.triu(mixed)].sum())


def gagliardo(field: ScalarField, s: float, p: float) -> float:
    """Gagliardo energy (p-th power of the seminorm) of a node field."""
    if not 0.0 < s < 1.0:
        raise GeometryError(f"s must lie in (0,1), got {s}")
    if p < 1.0:
        raise GeometryError(f"p must be >= 1, got {p}")
    quad = field.quadrature
    mat = interaction_matrix(quad, quad.n + s * p)
    du = np.abs(field.values[:, None] - field.values[None, :]) ** p
    return float((mat * du).sum())


def tail_integral(quad: SurfaceQuadrature, x, subset: NodeSubset, sp: float) -> float:
    """Kernel mass of the subset's complement seen from a node inside it."""
    pt, idx = _resolve_node(quad, x)
    if idx is None or not subset.mask[idx]:
        raise GeometryError("evaluation node must belong to the subset")
    outside = ~subset.mask
    d = np.linalg.norm(quad.points[outside] - pt, axis=1)
    return float(np.sum(quad.weights[outside] / d ** (quad.n + sp)))
