"""Identity and inequality checks over bodies, node sets, and sequences.

Checks are grouped by subject: solid-angle identities and pointwise
curvature bounds; localized perimeter estimates around a point; coarea,
dyadic slicing, and Sobolev-type bounds; classical integral-geometric
formulas. Constants are explicit where a closed form exists and fitted over
the corpus where the underlying theory leaves them unnamed; each report
records which kind it used.
"""

from __future__ import annotations

import numpy as np

from ..geometry import (
    ConvexBody,
    NodeSubset,
    Params,
    SurfaceQuadrature,
    ball_intersection_volume,
    ball_patch_measure,
    matching_radius,
    sphere_cap_measure,
    projection_measure,
)
from ..nonlocal_ops import (
    ScalarField,
    double_layer,
    frac_perimeter,
    gagliardo,
    halpha_at_nodes,
    tail_integral,
)
from ..quadrature import SphericalRule, abs_cosine_integral
from .reports import (
    InequalityReport,
    SlicingSequence,
    bound_report,
    geometric_tail,
    identity_report,
)

# measures of the unit n-sphere and unit k-ball
SPHERE_MEASURE = {0: 2.0, 1: 2.0 * np.pi, 2: 4.0 * np.pi}
BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}

# relative tolerances of the checks whose allowance is fixed: exact
# identities hold to rounding; the node-set bounds allow for the mesh; the
# sphere rules' error depends on the surface dimension n
EXACT = 1e-9
MESH = 0.02
SPHERE_RULE = {1: 1e-3, 2: 1e-2}


def pointwise_constant(n: int, alpha: float) -> float:
    """Explicit constant turning the solid-angle identity into a curvature bound."""
    return (2.0 / SPHERE_MEASURE[n]) ** ((n + alpha) / n)


# ---------------------------------------------------------------------------
# solid angle and pointwise curvature


def check_gauss_law(quad: SurfaceQuadrature, node_indices) -> InequalityReport:
    """Unrestricted solid-angle sum equals half the sphere at every point."""
    target = SPHERE_MEASURE[quad.n] / 2.0
    devs = [abs(double_layer(quad, int(i)) - target) for i in node_indices]
    worst = float(np.max(devs))
    allow = EXACT * target
    return InequalityReport(
        name="gauss-law",
        lhs=worst,
        rhs=allow,
        tolerance=allow,
        passed=bool(worst <= allow),
        margin=allow - worst,
        constant_used=target,
        constant_provenance="paper-explicit",
        params={"n": quad.n},
        resolution=quad.node_count,
        details={"points": len(list(node_indices))},
    )


def check_curvature_interpolation(
    quad: SurfaceQuadrature, subset: NodeSubset, x_index: int, alpha: float
) -> InequalityReport:
    """Region's solid angle is controlled by its measure and the curvature.

    The curvature is the body's chord form at the node.
    """
    lhs = double_layer(quad, x_index, subset=subset)
    halpha_value = float(halpha_at_nodes(quad, alpha)[x_index])
    n = quad.n
    rhs = subset.measure ** (alpha / (n + alpha)) * halpha_value ** (n / (n + alpha))
    return bound_report(
        "curvature-interpolation",
        lhs,
        rhs,
        MESH * max(rhs, 1e-300),
        constant_used=1.0,
        constant_provenance="paper-explicit",
        params={"n": n, "alpha": alpha},
        resolution=quad.node_count,
        details={"subset_measure": subset.measure, "halpha": halpha_value},
    )


def check_pointwise_global(quad: SurfaceQuadrature, alpha: float) -> InequalityReport:
    """Strict lower curvature bound by the total surface measure, all nodes."""
    n = quad.n
    constant = pointwise_constant(n, alpha)
    lhs = quad.body.perimeter() ** (-alpha / n)
    scaled = constant * halpha_at_nodes(quad, alpha)
    worst = int(np.argmin(scaled))
    rhs = float(scaled.min())
    return bound_report(
        "pointwise-curvature-lower-bound",
        lhs,
        rhs,
        0.0,
        constant_used=constant,
        constant_provenance="paper-explicit",
        params={"n": n, "alpha": alpha},
        resolution=quad.node_count,
        details={"worst_node": worst},
    )


def check_integral_bound(
    quad: SurfaceQuadrature, alpha: float, s: float
) -> InequalityReport:
    """Integrated curvature power dominates a surface-measure power."""
    n = quad.n
    constant = pointwise_constant(n, alpha)
    lhs = constant ** (-s / alpha) * quad.body.perimeter() ** ((n - s) / n)
    rhs = float(np.sum(quad.weights * halpha_at_nodes(quad, alpha) ** (s / alpha)))
    return bound_report(
        "integrated-curvature-lower-bound",
        lhs,
        rhs,
        0.0,
        constant_used=constant,
        constant_provenance="paper-explicit",
        params={"n": n, "alpha": alpha, "s": s},
        resolution=quad.node_count,
    )


# ---------------------------------------------------------------------------
# localized estimates


def check_localized_identity(
    quad: SurfaceQuadrature, x_index: int, radius: float
) -> InequalityReport:
    """Half sphere splits into near angular content plus the cap term."""
    n = quad.n
    x = quad.points[x_index]
    near = double_layer(quad, x_index, within=radius)
    cap = sphere_cap_measure(quad.body, x, radius) / radius**n
    return identity_report(
        "localized-angle-split",
        near + cap,
        SPHERE_MEASURE[n] / 2.0,
        EXACT,
        constant_used=SPHERE_MEASURE[n] / 2.0,
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=quad.node_count,
        details={"radius": radius, "near": near, "cap_term": cap},
    )


def check_reverse_isoperimetric(
    quad: SurfaceQuadrature, x_index: int, radius: float
) -> InequalityReport:
    """Ball split volumes are controlled by the sphere cap inside the body.

    rhs is the cap itself, the bound at constant 1; `fit_constant` scales it
    by the constant fitted over a run's instances.
    """
    body, n = quad.body, quad.n
    x = quad.points[x_index]
    cap = sphere_cap_measure(body, x, radius)
    vol_in = ball_intersection_volume(body, x, radius, cap)
    vol_out = max(body.area() - vol_in, 0.0)
    lhs = min(vol_in, vol_out) ** (n / (n + 1.0))
    return bound_report(
        "ball-split-isoperimetric",
        lhs,
        cap,
        0.0,
        constant_used=1.0,
        constant_provenance="fitted",
        params={"n": n},
        resolution=quad.node_count,
        details={"radius": radius, "cap": cap, "volume_in": vol_in},
    )


def check_perimeter_growth(
    quad: SurfaceQuadrature, x_index: int, radii
) -> InequalityReport:
    """Patch measure around a point grows no faster than the sphere allows."""
    n = quad.n
    x = quad.points[x_index]
    worst = -np.inf
    worst_r = None
    for r in radii:
        patch = ball_patch_measure(quad, x, r)
        bound = SPHERE_MEASURE[n] * r**n
        slack = patch - bound
        if slack > worst:
            worst, worst_r = slack, r
    return bound_report(
        "patch-growth-bound",
        worst,
        0.0,
        float(quad.weights.max()),
        constant_used=SPHERE_MEASURE[n],
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=quad.node_count,
        details={"worst_radius": worst_r},
    )


def check_rearrangement(
    quad: SurfaceQuadrature, subset: NodeSubset, x_index: int, sp: float
) -> InequalityReport:
    """Among sets of equal measure the matched cap minimizes the tail."""
    x = quad.points[x_index]
    measure = subset.measure
    r = matching_radius(quad, x, measure)
    d = np.linalg.norm(quad.points - x, axis=1)
    cap = NodeSubset(quad, d <= r)
    direct = tail_integral(quad, x_index, subset, sp)
    rearranged = tail_integral(quad, x_index, cap, sp)
    return bound_report(
        "cap-tail-rearrangement",
        rearranged,
        direct,
        MESH * max(abs(rearranged), abs(direct)),
        constant_used=1.0,
        constant_provenance="paper-explicit",
        params={"n": quad.n, "sp": sp},
        resolution=quad.node_count,
        details={"measure": measure, "matched_radius": r},
    )


def dichotomy_constants(n: int, c_split: float) -> tuple[float, float]:
    """Density threshold and scale jump from the split-isoperimetric constant."""
    c_n = (n + 1.0) * c_split
    delta = min(
        SPHERE_MEASURE[n], (SPHERE_MEASURE[n] / (4.0 * c_n)) ** (n / (n + 1.0))
    )
    big_t = (2.0 * SPHERE_MEASURE[n] / delta) ** (1.0 / n)
    return delta, big_t


def check_pointwise_subset(
    quad: SurfaceQuadrature,
    subset: NodeSubset,
    x_index: int,
    alpha: float,
    s: float,
    p: float,
    c_split: float,
) -> InequalityReport:
    """Subset measure is controlled by its tail plus a curvature power.

    The curvature is the chord form of `quad.body` at the node; rhs is the
    bound at constant 1, which `fit_constant` scales. Also
    classifies which density branch of the underlying dichotomy the
    instance falls into, from the patch densities at the matched radius and
    its jumped-up multiple.
    """
    n = quad.n
    sp = s * p
    x = quad.points[x_index]
    measure = subset.measure
    lhs = measure ** (-sp / n)
    tail = tail_integral(quad, x_index, subset, sp)
    halpha_value = float(halpha_at_nodes(quad, alpha)[x_index])
    rhs = tail + halpha_value ** (sp / alpha)
    delta, big_t = dichotomy_constants(n, c_split)
    r = matching_radius(quad, x, measure)
    dens_r = ball_patch_measure(quad, x, r) / r**n
    dens_tr = ball_patch_measure(quad, x, big_t * r) / (big_t * r) ** n
    if dens_r < delta:
        branch = "low-density"
    elif dens_tr >= delta:
        branch = "high-density"
    else:
        branch = "intermediate"
    return bound_report(
        "subset-tail-curvature-bound",
        lhs,
        rhs,
        0.0,
        constant_used=1.0,
        constant_provenance="fitted",
        params={"n": n, "alpha": alpha, "s": s, "p": p},
        resolution=quad.node_count,
        details={
            "branch": branch,
            "delta": delta,
            "scale_jump": big_t,
            "tail": tail,
            "halpha": halpha_value,
        },
    )


# ---------------------------------------------------------------------------
# flat-space subset bound on grids


def flat_equality_constant(n: int, alpha: float) -> float:
    """Exact constant saturated by balls in the flat subset bound."""
    return BALL_VOLUME[n] ** (-alpha / n) * alpha / SPHERE_MEASURE[n - 1]


def flat_tail_sum(n: int, alpha: float, h: float, cells: np.ndarray, x_cell) -> float:
    """Kernel mass of the complement of a cell union, seen from one cell.

    Discrete over the grid out to a radius that contains the set, analytic
    geometric tail beyond it.
    """
    cells = np.asarray(cells, dtype=int)
    x = (np.asarray(x_cell, dtype=float) + 0.5) * h
    centers = (cells + 0.5) * h
    far = float(np.linalg.norm(centers - x, axis=1).max())
    big_d = max(4.0 * far, 16.0 * h)
    span = int(np.ceil(big_d / h)) + 1
    base = np.asarray(x_cell, dtype=int)
    axes = [np.arange(base[k] - span, base[k] + span + 1) for k in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    gcenters = (grid + 0.5) * h
    dist = np.linalg.norm(gcenters - x, axis=1)
    # the set lies inside the box, and `grid` runs over it in C order
    member = np.zeros(len(grid), dtype=bool)
    member[np.ravel_multi_index((cells - base + span).T, (2 * span + 1,) * n)] = True
    outside = (dist <= big_d) & ~member
    out_dist = dist[outside]
    # a single midpoint value misstates the kernel on cells bordering x;
    # composite the close ones on an 8-per-axis subgrid
    near = out_dist <= 4.0 * h
    discrete = float(np.sum(h**n / out_dist[~near] ** (n + alpha)))
    if near.any():
        sub = 8
        offs = (np.arange(sub) + 0.5) / sub
        local = np.stack(
            np.meshgrid(*([offs] * n), indexing="ij"), axis=-1
        ).reshape(-1, n)
        pts = (grid[outside][near][:, None, :] + local) * h
        dd = np.linalg.norm(pts - x, axis=2)
        # added one cell at a time, in grid order
        for mass in np.sum((h / sub) ** n / dd ** (n + alpha), axis=1):
            discrete += float(mass)
    analytic = SPHERE_MEASURE[n - 1] * big_d ** (-alpha) / alpha
    return discrete + analytic


def check_flat_subset_bound(
    n: int,
    alpha: float,
    h: float,
    cells: np.ndarray,
    x_cell,
    rel_tolerance: float = 0.0,
) -> InequalityReport:
    """Inverse measure power bounded by the complement's kernel mass."""
    cells = np.asarray(cells, dtype=int)
    measure = len(cells) * h**n
    lhs = measure ** (-alpha / n)
    constant = flat_equality_constant(n, alpha)
    rhs = constant * flat_tail_sum(n, alpha, h, cells, x_cell)
    return bound_report(
        "flat-subset-tail-bound",
        lhs,
        rhs,
        rel_tolerance * max(rhs, 1e-300),
        constant_used=constant,
        constant_provenance="derived-closed-form",
        params={"n": n, "alpha": alpha},
        resolution=len(cells),
        details={"cell_size": h},
    )


def ball_cells(n: int, h: float, rho: float) -> np.ndarray:
    """Grid cells whose centers fall in a ball of radius rho about cell 0's."""
    span = int(np.ceil(rho / h)) + 1
    axes = [np.arange(-span, span + 1)] * n
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    centers = (grid + 0.5) * h
    return grid[np.linalg.norm(centers - 0.5 * h, axis=1) <= rho]


# ---------------------------------------------------------------------------
# coarea, slicing, Sobolev


def check_coarea(
    field: ScalarField, s: float, levels: int = 64, rel_tolerance: float = 0.02
) -> InequalityReport:
    """Half the Gagliardo energy equals the layered perimeter integral.

    The threshold scan evaluates at midpoint levels of equal bins, which
    reproduces indicator fields exactly.
    """
    quad = field.quadrature
    lhs = 0.5 * gagliardo(field, s, 1.0)
    lo, hi = float(field.values.min()), float(field.values.max())
    if hi <= lo:
        rhs = 0.0
    else:
        # the levels between u_i and u_j split the pair, |L_i - L_j| of them
        # with L_i the levels below u_i, so the layers sum to half L's energy
        dt = (hi - lo) / levels
        below = np.searchsorted(lo + (np.arange(levels) + 0.5) * dt, field.values)
        rhs = 0.5 * gagliardo(ScalarField(quad, below), s, 1.0) * dt
    return identity_report(
        "coarea-layer-identity",
        lhs,
        rhs,
        rel_tolerance,
        constant_used=0.5,
        constant_provenance="paper-explicit",
        params={"n": quad.n, "s": s},
        resolution=quad.node_count,
        details={"levels": levels},
    )


def check_slicing_inequality(seq: SlicingSequence, params: Params) -> InequalityReport:
    """Dyadic slicing bound and its auxiliary shift bound, exact arithmetic."""
    n, s, p = params.n, params.s, params.p
    sp = params.sp
    q = (n - sp) / n
    a, i0, cut = seq.term, seq.start, seq.cutoff
    # left tails are geometric because the sequence is constant there
    left = a(i0) ** q * geometric_tail(p, i0 - 1) if a(i0) > 0 else 0.0
    lhs = left + sum(2.0 ** (p * i) * a(i) ** q for i in range(i0, cut) if a(i) > 0)
    main = left + sum(
        2.0 ** (p * i) * a(i) ** (-sp / n) * a(i + 1)
        for i in range(i0, cut)
        if a(i) > 0
    )
    rhs = 2.0**params.p_star * main
    aux_lhs = left + sum(
        2.0 ** (p * i) * a(i - 1) ** (-sp / n) * a(i + 1)
        for i in range(i0, cut + 1)
        if a(i - 1) > 0
    )
    aux_rhs = 0.5 * (left + sum(
        2.0 ** (p * i) * a(i - 1) ** (-sp / n) * a(i)
        for i in range(i0, cut + 1)
        if a(i - 1) > 0
    ))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    aux_scale = max(abs(aux_lhs), abs(aux_rhs), 1e-300)
    passed = (lhs <= rhs + EXACT * scale) and (aux_lhs <= aux_rhs + EXACT * aux_scale)
    return InequalityReport(
        name="dyadic-slicing-bound",
        lhs=lhs,
        rhs=rhs,
        tolerance=EXACT * scale,
        passed=bool(passed),
        margin=rhs - lhs,
        constant_used=2.0**params.p_star,
        constant_provenance="paper-explicit",
        params={"n": n, "s": s, "p": p},
        details={
            "aux_lhs": aux_lhs,
            "aux_rhs": aux_rhs,
            "window": [seq.start, seq.cutoff],
        },
    )


def check_set_sobolev(
    quad: SurfaceQuadrature, subset: NodeSubset, params: Params, alpha: float
) -> InequalityReport:
    """Set-measure power bounded by fractional perimeter plus curvature mass.

    rhs is the bound at constant 1, which `fit_constant` scales.
    """
    n, s = params.n, params.s
    measure = subset.measure
    lhs = measure ** ((n - s) / n)
    per = frac_perimeter(subset, s)
    hvals = halpha_at_nodes(quad, alpha)[subset.mask]
    curv = float(np.sum(quad.weights[subset.mask] * hvals ** (s / alpha)))
    return bound_report(
        "set-measure-sobolev",
        lhs,
        per + curv,
        0.0,
        constant_used=1.0,
        constant_provenance="fitted",
        params={"n": n, "alpha": alpha, "s": s},
        resolution=quad.node_count,
        details={"perimeter_term": per, "curvature_term": curv},
    )


def check_function_sobolev(
    field: ScalarField, params: Params, alpha: float
) -> InequalityReport:
    """Critical norm of a field bounded by energy plus weighted curvature.

    rhs is the bound at constant 1, which `fit_constant` scales.
    """
    quad = field.quadrature
    p, sp = params.p, params.sp
    p_star = params.p_star
    u = np.abs(field.values)
    lhs = float(np.sum(quad.weights * u**p_star)) ** (p / p_star)
    energy = 0.5 * gagliardo(field, params.s, p)
    curv = float(np.sum(quad.weights * halpha_at_nodes(quad, alpha) ** (sp / alpha) * u**p))
    return bound_report(
        "function-norm-sobolev",
        lhs,
        energy + curv,
        0.0,
        constant_used=1.0,
        constant_provenance="fitted",
        params={"n": params.n, "alpha": alpha, "s": params.s, "p": p},
        resolution=quad.node_count,
        details={"energy_term": energy, "curvature_term": curv},
    )


# ---------------------------------------------------------------------------
# classical integral geometry


def check_cauchy_formula(body: ConvexBody, rule: SphericalRule) -> InequalityReport:
    """Surface measure recovered from the average shadow measure."""
    n = body.n
    shadows = projection_measure(body, rule.directions)
    value = float(np.sum(rule.weights * shadows)) / BALL_VOLUME[n]
    return identity_report(
        "average-shadow-identity",
        value,
        body.perimeter(),
        SPHERE_RULE[n],
        constant_used=1.0 / BALL_VOLUME[n],
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=rule.size,
    )


def check_abs_cosine(n: int, rule: SphericalRule, tau) -> InequalityReport:
    """Absolute-cosine average over the sphere equals twice the ball volume."""
    value = abs_cosine_integral(rule, tau)
    target = 2.0 * BALL_VOLUME[n]
    return identity_report(
        "absolute-cosine-average",
        value,
        target,
        SPHERE_RULE[n],
        constant_used=target,
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=rule.size,
    )


def check_rosenthal_szasz(body: ConvexBody) -> InequalityReport:
    """Surface measure bounded by the ball of the same diameter."""
    n = body.n
    lhs = body.perimeter()
    rhs = SPHERE_MEASURE[n] * (body.diameter() / 2.0) ** n
    return bound_report(
        "diameter-perimeter-bound",
        lhs,
        rhs,
        EXACT * rhs,
        constant_used=SPHERE_MEASURE[n] / 2.0**n,
        constant_provenance="paper-explicit",
        params={"n": n},
    )


def check_isodiametric(body: ConvexBody) -> InequalityReport:
    """Volume bounded by the ball of the same diameter."""
    n = body.n
    lhs = body.area()
    rhs = BALL_VOLUME[n + 1] * (body.diameter() / 2.0) ** (n + 1)
    return bound_report(
        "diameter-volume-bound",
        lhs,
        rhs,
        EXACT * rhs,
        constant_used=BALL_VOLUME[n + 1] / 2.0 ** (n + 1),
        constant_provenance="paper-explicit",
        params={"n": n},
    )
