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
    _chord_values,
    double_layer,
    frac_perimeter,
    gagliardo,
    halpha_chord,
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


def pointwise_constant(n: int, alpha: float) -> float:
    """Explicit constant turning the solid-angle identity into a curvature bound."""
    return (2.0 / SPHERE_MEASURE[n]) ** ((n + alpha) / n)


def halpha_at_nodes(quad: SurfaceQuadrature, alpha: float) -> np.ndarray:
    """Chord-form curvature at every node, in one batched pass.

    Built once per alpha and kept in `quad.curvatures`, so every call on the
    same node set returns the same read-only array.
    """
    key = float(alpha)
    if key not in quad.curvatures:
        vals = _chord_values(quad.body, quad.points, alpha)[0]
        vals.setflags(write=False)
        quad.curvatures[key] = vals
    return quad.curvatures[key]


# ---------------------------------------------------------------------------
# solid angle and pointwise curvature


def check_gauss_law(
    body: ConvexBody,
    quad: SurfaceQuadrature,
    node_indices,
    rel_tolerance: float = 0.01,
) -> InequalityReport:
    """Unrestricted solid-angle sum equals half the sphere at every point."""
    target = SPHERE_MEASURE[body.n] / 2.0
    devs = [abs(double_layer(quad, int(i)) - target) for i in node_indices]
    worst = float(np.max(devs))
    return InequalityReport(
        name="gauss-law",
        lhs=worst,
        rhs=rel_tolerance * target,
        tolerance=rel_tolerance * target,
        passed=bool(worst <= rel_tolerance * target),
        margin=rel_tolerance * target - worst,
        constant_used=target,
        constant_provenance="paper-explicit",
        params={"n": body.n},
        resolution=quad.node_count,
        details={"points": len(list(node_indices))},
    )


def check_curvature_interpolation(
    body: ConvexBody,
    quad: SurfaceQuadrature,
    subset: NodeSubset,
    x_index: int,
    alpha: float,
    rel_tolerance: float = 0.02,
) -> InequalityReport:
    """Region's solid angle is controlled by its measure and the curvature.

    The curvature is the body's chord form at the node.
    """
    lhs = double_layer(quad, x_index, subset=subset)
    halpha_value = halpha_chord(
        body, quad.points[x_index], alpha, normal=quad.normals[x_index]
    ).value
    n = body.n
    rhs = subset.measure ** (alpha / (n + alpha)) * halpha_value ** (n / (n + alpha))
    return bound_report(
        "curvature-interpolation",
        lhs,
        rhs,
        rel_tolerance * max(rhs, 1e-300),
        constant_used=1.0,
        constant_provenance="paper-explicit",
        params={"n": n, "alpha": alpha},
        resolution=quad.node_count,
        details={"subset_measure": subset.measure, "halpha": halpha_value},
    )


def check_pointwise_global(
    body: ConvexBody, quad: SurfaceQuadrature, alpha: float
) -> InequalityReport:
    """Strict lower curvature bound by the total surface measure, all nodes."""
    n = body.n
    constant = pointwise_constant(n, alpha)
    lhs = body.perimeter() ** (-alpha / n)
    values = halpha_at_nodes(quad, alpha)
    scaled = constant * values
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
    body: ConvexBody, quad: SurfaceQuadrature, alpha: float, s: float
) -> InequalityReport:
    """Integrated curvature power dominates a surface-measure power."""
    n = body.n
    constant = pointwise_constant(n, alpha)
    values = halpha_at_nodes(quad, alpha)
    lhs = constant ** (-s / alpha) * body.perimeter() ** ((n - s) / n)
    rhs = float(np.sum(quad.weights * values ** (s / alpha)))
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
    body: ConvexBody,
    quad: SurfaceQuadrature,
    x_index: int,
    radius: float,
    rel_tolerance: float = 0.02,
) -> InequalityReport:
    """Half sphere splits into near angular content plus the cap term."""
    n = body.n
    x = quad.points[x_index]
    near = double_layer(quad, x_index, within=radius)
    cap = sphere_cap_measure(body, x, radius) / radius**n
    return identity_report(
        "localized-angle-split",
        near + cap,
        SPHERE_MEASURE[n] / 2.0,
        rel_tolerance,
        constant_used=SPHERE_MEASURE[n] / 2.0,
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=quad.node_count,
        details={"radius": radius, "near": near, "cap_term": cap},
    )


def check_reverse_isoperimetric(
    body: ConvexBody,
    quad: SurfaceQuadrature,
    x_index: int,
    radius: float,
    constant: float,
) -> InequalityReport:
    """Ball split volumes are controlled by the sphere cap inside the body.

    rhs is constant * cap, so a run with constant 1.0 can be refitted by
    `fit_constant` without measuring the instance again.
    """
    n = body.n
    x = quad.points[x_index]
    cap = sphere_cap_measure(body, x, radius)
    vol_in = ball_intersection_volume(body, x, radius, cap)
    vol_out = max(body.area() - vol_in, 0.0)
    lhs = min(vol_in, vol_out) ** (n / (n + 1.0))
    rhs = constant * cap
    return bound_report(
        "ball-split-isoperimetric",
        lhs,
        rhs,
        0.0,
        constant_used=constant,
        constant_provenance="fitted",
        params={"n": n},
        resolution=quad.node_count,
        details={"radius": radius, "cap": cap, "volume_in": vol_in},
    )


def check_perimeter_growth(
    body: ConvexBody,
    quad: SurfaceQuadrature,
    x_index: int,
    radii,
) -> InequalityReport:
    """Patch measure around a point grows no faster than the sphere allows."""
    n = body.n
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
    quad: SurfaceQuadrature,
    subset: NodeSubset,
    x_index: int,
    sp: float,
    rel_tolerance: float = 0.02,
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
        rel_tolerance * max(abs(rearranged), abs(direct)),
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
    constant: float,
    c_split: float,
) -> InequalityReport:
    """Subset measure is controlled by its tail plus a curvature power.

    The curvature is the chord form of `quad.body` at the node. Also
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
    halpha_value = halpha_chord(
        quad.body, x, alpha, normal=quad.normals[x_index]
    ).value
    rhs = constant * (tail + halpha_value ** (sp / alpha))
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
        constant_used=constant,
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


def check_slicing_inequality(
    seq: SlicingSequence, params: Params, rel_tolerance: float = 1e-9
) -> InequalityReport:
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
    passed = (lhs <= rhs + rel_tolerance * scale) and (
        aux_lhs <= aux_rhs + rel_tolerance * aux_scale
    )
    return InequalityReport(
        name="dyadic-slicing-bound",
        lhs=lhs,
        rhs=rhs,
        tolerance=rel_tolerance * scale,
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
    quad: SurfaceQuadrature,
    subset: NodeSubset,
    params: Params,
    alpha: float,
    constant: float,
    halpha_values: np.ndarray,
) -> InequalityReport:
    """Set-measure power bounded by fractional perimeter plus curvature mass."""
    n, s = params.n, params.s
    measure = subset.measure
    lhs = measure ** ((n - s) / n)
    per = frac_perimeter(subset, s)
    curv = float(
        np.sum(quad.weights[subset.mask] * halpha_values[subset.mask] ** (s / alpha))
    )
    rhs = constant * (per + curv)
    return bound_report(
        "set-measure-sobolev",
        lhs,
        rhs,
        0.0,
        constant_used=constant,
        constant_provenance="fitted",
        params={"n": n, "alpha": alpha, "s": s},
        resolution=quad.node_count,
        details={"perimeter_term": per, "curvature_term": curv},
    )


def check_function_sobolev(
    field: ScalarField,
    params: Params,
    alpha: float,
    constant: float,
    halpha_values: np.ndarray,
) -> InequalityReport:
    """Critical norm of a field bounded by energy plus weighted curvature."""
    quad = field.quadrature
    p, sp = params.p, params.sp
    p_star = params.p_star
    u = np.abs(field.values)
    lhs = float(np.sum(quad.weights * u**p_star)) ** (p / p_star)
    energy = 0.5 * gagliardo(field, params.s, p)
    curv = float(np.sum(quad.weights * halpha_values ** (sp / alpha) * u**p))
    rhs = constant * (energy + curv)
    return bound_report(
        "function-norm-sobolev",
        lhs,
        rhs,
        0.0,
        constant_used=constant,
        constant_provenance="fitted",
        params={"n": params.n, "alpha": alpha, "s": params.s, "p": p},
        resolution=quad.node_count,
        details={"energy_term": energy, "curvature_term": curv},
    )


# ---------------------------------------------------------------------------
# classical integral geometry


def check_cauchy_formula(
    body: ConvexBody, rule: SphericalRule, rel_tolerance: float = 0.01
) -> InequalityReport:
    """Surface measure recovered from the average shadow measure."""
    n = body.n
    shadows = np.array([projection_measure(body, sigma) for sigma in rule.directions])
    value = float(np.sum(rule.weights * shadows)) / BALL_VOLUME[n]
    return identity_report(
        "average-shadow-identity",
        value,
        body.perimeter(),
        rel_tolerance,
        constant_used=1.0 / BALL_VOLUME[n],
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=rule.size,
    )


def check_abs_cosine(
    n: int, rule: SphericalRule, tau, rel_tolerance: float = 1e-3
) -> InequalityReport:
    """Absolute-cosine average over the sphere equals twice the ball volume."""
    value = abs_cosine_integral(rule, tau)
    target = 2.0 * BALL_VOLUME[n]
    return identity_report(
        "absolute-cosine-average",
        value,
        target,
        rel_tolerance,
        constant_used=target,
        constant_provenance="paper-explicit",
        params={"n": n},
        resolution=rule.size,
    )


def check_rosenthal_szasz(body: ConvexBody, rel_tolerance: float = 1e-9) -> InequalityReport:
    """Surface measure bounded by the ball of the same diameter."""
    n = body.n
    lhs = body.perimeter()
    rhs = SPHERE_MEASURE[n] * (body.diameter() / 2.0) ** n
    return bound_report(
        "diameter-perimeter-bound",
        lhs,
        rhs,
        rel_tolerance * rhs,
        constant_used=SPHERE_MEASURE[n] / 2.0**n,
        constant_provenance="paper-explicit",
        params={"n": n},
    )


def check_isodiametric(body: ConvexBody, rel_tolerance: float = 1e-9) -> InequalityReport:
    """Volume bounded by the ball of the same diameter."""
    n = body.n
    lhs = body.area()
    rhs = BALL_VOLUME[n + 1] * (body.diameter() / 2.0) ** (n + 1)
    return bound_report(
        "diameter-volume-bound",
        lhs,
        rhs,
        rel_tolerance * rhs,
        constant_used=BALL_VOLUME[n + 1] / 2.0 ** (n + 1),
        constant_provenance="paper-explicit",
        params={"n": n},
    )
