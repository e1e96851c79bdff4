"""Fractional curvature, nonlocal perimeters, and interaction sums.

The curvature of order alpha at a boundary point has two independent
evaluations: the chord form integrates (chord length)^(-alpha) over the
inward half-sphere of directions with a graded rule, and the boundary form
sums the oriented kernel (y-x).nu(y)/|y-x|^(n+1+alpha) over surface nodes.
The chord form is the reference; the boundary form cross-checks it and
generalizes to restricted domains, where with exponent n+1 it becomes the
solid-angle (double layer) sum.

Perimeters of node subsets and Gagliardo energies of node fields share one
interaction engine, so the indicator identity (energy of an indicator equals
twice the perimeter) holds at the arithmetic level, not just in the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import (
    Ball,
    ConvexBody,
    GeometryError,
    Hull3D,
    NodeSubset,
    Polygon2D,
    SurfaceQuadrature,
    boundary_distance,
    ray_exits,
    surface_normal,
)
from .icosphere import sphere_cells, split4
from .quadrature import GradedHalfRule, graded_half_rule, graded_interval

# directions used for chord-form curvature when no rule is supplied
DEFAULT_CHORD_DIRECTIONS = {1: 720, 2: 4608}
# near-field node refinement: threshold in local spacings, and 4-split levels
NEAR_FACTOR_CURVATURE = 3.0
NEAR_FACTOR_PAIRS = 2.0
NEAR_LEVELS = {1: 1, 2: 2}
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


def _coarse_diff(weights: np.ndarray, contribs: np.ndarray) -> float:
    """Difference against a coarser Riemann sum built by merging cell pairs."""
    fine = float(contribs.sum())
    m = (len(weights) // 2) * 2
    if m == 0:
        return 0.0
    w = weights[:m].reshape(-1, 2)
    f = contribs[:m] / np.where(weights[:m] == 0.0, 1.0, weights[:m])
    coarse = float(np.sum(w.sum(axis=1) * f.reshape(-1, 2)[:, 0]))
    coarse += float(contribs[m:].sum())
    return abs(fine - coarse)


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
    resolution: Optional[int] = None,
    normal: Optional[np.ndarray] = None,
) -> CurvatureValue:
    """Curvature of order alpha by the chord form.

    Sums w * chord^(-alpha) over a graded inward half-sphere rule anchored
    at the outward normal. Directions whose ray leaves immediately (possible
    only at non-smooth points) contribute nothing. Points within 1e-9 of a
    facet boundary return an overflow-flagged infinity; supplying `normal`
    bypasses the locality checks (the caller vouches for the point, as the
    flow does for markers).
    """
    x = np.asarray(x, dtype=float)
    if normal is None:
        _require_on_surface(body, x)
        if body.is_polytope and boundary_distance(body, x) < _on_surface_tol(body):
            return CurvatureValue(x, np.inf, "chord", np.nan, overflow=True)
        nu = surface_normal(body, x)
    else:
        nu = np.asarray(normal, dtype=float)
        nu = nu / np.linalg.norm(nu)
    res = resolution or DEFAULT_CHORD_DIRECTIONS[body.n]
    rule = graded_half_rule(nu, alpha, res)
    rho = ray_exits(body, x, rule.directions)
    good = rho > 0.0
    contrib = np.zeros(rule.size)
    contrib[good] = rule.weights[good] * rho[good] ** (-alpha)
    value = float(contrib.sum())
    return CurvatureValue(x, value, "chord", _coarse_diff(rule.weights, contrib))


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
    """Contribution of the cell containing x on a curved body.

    Two points of a circle or sphere of radius R at chord distance d have
    dot(y - x, nu(y)) = d*d / (2R) exactly, so the integrand collapses to
    d^(2-e) / (2R). The cell is split toward its own node dyadically (arc
    halving on circles, medial-triangle recursion on spheres) and each
    shell uses that closed form; forming the dot by coordinate subtraction
    instead would drown in rounding noise at the deep shells and the
    quotient by d^e would amplify it without bound.
    """
    body = quad.body
    radius = body.radius
    total = 0.0
    if body.dim == 2:
        t0, t1 = quad.patches[idx]
        half = abs(t1 - t0) / 2.0
        for j in range(OWN_CELL_DEPTH):
            lo = half / 2.0 ** (j + 1)
            hi = half / 2.0**j
            # 8 midpoints per dyadic shell; one midpoint underestimates the
            # convex singular integrand by a visible fraction of a percent
            edges = lo + (hi - lo) * np.arange(9) / 8.0
            mids = 0.5 * (edges[:-1] + edges[1:])
            chords = 2.0 * radius * np.sin(0.5 * mids)
            total += float(
                (radius * np.diff(edges) * chords ** (2.0 - exponent)).sum()
            )
        return 2.0 * total / (2.0 * radius)
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
    near_factor: float = NEAR_FACTOR_CURVATURE,
    near_levels: Optional[int] = None,
) -> tuple[float, float]:
    """Oriented kernel sum over nodes with near-field and own-cell handling.

    Returns (value, refinement difference). `include` restricts to a node
    mask; `within` restricts to the ball of that radius around x, with
    straddling cells split once and filtered by sub-node distance.
    """
    body = quad.body
    pt, idx = _resolve_node(quad, x)
    levels = NEAR_LEVELS[body.n] if near_levels is None else near_levels
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
    near = active & (dist < near_factor * np.maximum(quad.spacings, spacing_x))
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
        sp, sn, sw = quad.refine_node(int(j), levels)
        sd = np.linalg.norm(sp - pt, axis=1)
        keep = sd <= within
        value += float(_kernel_terms(pt, sp[keep], sn[keep], sw[keep], exponent).sum())
    own = 0.0
    if idx is not None and active_own and not body.is_polytope:
        own_ok = within is None or 0.0 <= within  # own cell is at distance 0
        if own_ok:
            own = _own_cell_sum(quad, idx, exponent)
    value += own
    return value, abs(refined_near - unrefined_near)


def halpha_boundary(
    body: ConvexBody, quad: SurfaceQuadrature, x, alpha: float
) -> CurvatureValue:
    """Curvature of order alpha by the boundary form over a node set.

    On polytopes the facet containing x contributes exactly zero and is
    skipped; other near-field nodes are refined by facet subdivision. On
    curved bodies the cell of x is resolved by the graded own-cell scheme.
    """
    if quad.body is not body:
        raise GeometryError("quadrature was built for a different body")
    pt, idx = _resolve_node(quad, x)
    if body.is_polytope and boundary_distance(body, pt) < _on_surface_tol(body):
        return CurvatureValue(pt, np.inf, "boundary", np.nan, overflow=True)
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
    x it measures the region's angular content seen from x. On polygons the
    sum is exact: each cell adds the angle it subtends from x.
    """
    include = subset.mask if subset is not None else None
    if isinstance(quad.body, Polygon2D):
        return _polygon_angle(quad, x, include, within)
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
        # a + t (b - a) meets the circle where |d|^2 t^2 + 2 (a.d) t + |a|^2 = r^2
        d = b - a
        dd, ad = np.vecdot(d, d), np.vecdot(a, d)
        root = np.sqrt(np.maximum(ad**2 - dd * (np.vecdot(a, a) - within**2), 0.0))
        t0 = np.clip((-ad - root) / dd, 0.0, 1.0)[:, None]
        t1 = np.clip((-ad + root) / dd, 0.0, 1.0)[:, None]
        a, b = a + t0 * d, a + t1 * d
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return float(np.arctan2(cross, np.vecdot(a, b)).sum())


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
