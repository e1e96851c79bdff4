"""Front-tracking flow of convex planar curves by fractional curvature.

Markers move along inward bisector normals at the speed given by the
chord-form curvature. Directions inside a marker's entry cone see the true
polygon chords; the two near-tangent gaps, where a vertex would otherwise
contribute nothing, are integrated against the osculating circle built from
the discrete curvature. Steps are Heun-corrected with a CFL-limited dt, the
polyline is re-hulled when weak convexity breaks and resampled to equal
arclength on a fixed cadence, and traces record every state so the decay
identities and the extinction time can be read off afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.spatial import ConvexHull

from .geometry import (
    Ball, ConvexBody, GeometryError, Params, Polygon2D, _edge_pieces, _signed_area,
    _vertex_diameter,
)
from .quadrature import graded_half_rule, graded_interval

# graded directions per marker's chord sum
RULE_SIZE = 480
GAP_NODES = 24
# grazing-ray threshold for the chord denominators
RAY_EPSILON = 1e-12
TURN_TOLERANCE = 1e-7  # weak convexity: collinear runs pass, real dents re-hull
# dt = CFL * min(min_edge, 2 area/perimeter) / max_curvature; the second
# scale is what a thin body collapses across. The explicit step has a
# stability limit that tightens as alpha grows: the fastest mode, markers
# alternating in and out on a circle, stiffens like markers**(1 + alpha).
# At CFL 0.25 its measured dt * lambda is 0.34 / 2.05 / 9.44 / 22.7 at 256
# markers and 0.27 / 1.25 / 4.51 / 9.39 at 96, for alpha 0.25 / 0.5 / 0.75
# / 0.9, against Heun's real-axis limit of 2: the default resolution sits
# just past it at alpha = 0.5. Past the limit the highest mode rings, the
# re-hull clamps it each step, and rehull_steps records that the limiter
# was active.
CFL = 0.25
EPS_EXTINCT = 1e-3  # the run ends at this share of the initial area
RESAMPLE_EVERY = 5  # steps between equal-arclength resamples
MAX_STEPS = 20000


class StepCollapseError(GeometryError):
    pass


class MaxStepsExceededError(GeometryError):
    pass


class TraceTooShortError(GeometryError):
    pass


@dataclass(frozen=True)
class FlowOptions:
    """Settings of the marker flow.

    `markers` sets the sampling of a body's boundary; a marker array keeps
    its own count.
    """

    markers: int = 256

    def __post_init__(self):
        if self.markers < 8:
            raise GeometryError("need at least 8 markers")


@dataclass
class FlowState:
    t: float
    markers: np.ndarray
    perimeter: float
    area: float
    halpha: np.ndarray
    dt: float


@dataclass
class FlowTrace:
    alpha: float
    options: FlowOptions
    states: list = field(default_factory=list)
    ending: str = "running"
    resampled_steps: list = field(default_factory=list)
    rehull_steps: list = field(default_factory=list)
    t_star_num: Optional[float] = None

    def extinction_estimate(self) -> float:
        """Root of the late-time linear fit to perimeter^(1+alpha).

        For shrinking convex curves that power decays at an asymptotically
        constant rate, so the fitted line's zero crossing extends the trace
        past the cutoff area to the true vanishing time.
        """
        if len(self.states) < 6:
            raise TraceTooShortError("need at least 6 recorded states")
        tail = self.states[-8:]
        t = np.array([s.t for s in tail])
        y = np.array([s.perimeter ** (1.0 + self.alpha) for s in tail])
        slope, intercept = np.polyfit(t, y, 1)
        if slope >= 0.0:
            raise TraceTooShortError("perimeter power is not decaying at the tail")
        return float(-intercept / slope)


def marker_frame(markers: np.ndarray):
    """Per-marker geometry of a closed polyline: (units, normals, turns,
    bisector normals, dual lengths, edge lengths).

    Edge i runs from marker i to marker i+1; normals are outward for
    counterclockwise order; turn i is the exterior angle at marker i.
    """
    e = np.roll(markers, -1, axis=0) - markers
    lengths = np.linalg.norm(e, axis=1)
    if np.any(lengths <= 0.0):
        raise StepCollapseError("coincident consecutive markers")
    u = e / lengths[:, None]
    n = np.stack([u[:, 1], -u[:, 0]], axis=1)
    u_prev = np.roll(u, 1, axis=0)
    cross = u_prev[:, 0] * u[:, 1] - u_prev[:, 1] * u[:, 0]
    turns = np.arctan2(cross, (u_prev * u).sum(axis=1))
    bis = np.roll(n, 1, axis=0) + n
    norms = np.linalg.norm(bis, axis=1)
    if np.any(norms < 1e-12):
        raise StepCollapseError("marker fold: opposite adjacent normals")
    bis = bis / norms[:, None]
    duals = 0.5 * (lengths + np.roll(lengths, 1))
    return u, n, turns, bis, duals, lengths


def classical_curvature(markers: np.ndarray) -> np.ndarray:
    """Turn angle per unit dual length: the discrete curvature at markers."""
    _, _, turns, _, duals, _ = marker_frame(markers)
    return turns / duals


class _MarkerEvaluator:
    """Vectorized clipped chord sums for all markers of one flow run.

    The graded theta cells with their widths, cosines and sines are built
    once. Per call, the sorted cells inside each marker's entry cone
    (gap, pi - gap) form one run of live cells, of which the cone clips at
    most the two ends; one search of the vertex angles names every ray's
    exit edge j, and (m, m) tables give the chord as
    <x_j - x_i, n_j> / (cos theta <t_i, n_j> - sin theta <b_i, n_j>).
    """

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.thetas, self.cells = graded_half_rule(alpha, RULE_SIZE)
        self.widths = self.cells[:, 1] - self.cells[:, 0]
        self.cos_thetas = np.cos(self.thetas)
        self.sin_thetas = np.sin(self.thetas)
        nodes, widths = graded_interval(alpha, GAP_NODES, 1.0)
        self.gap_nodes = nodes
        self.gap_widths = widths

    def __call__(self, markers: np.ndarray, frame=None):
        """Curvature, turns, bisectors and edge lengths at the markers;
        `frame` is marker_frame(markers) when the caller already has it."""
        alpha = self.alpha
        u, n, turns, bis, duals, lengths = frame or marker_frame(markers)
        count = len(markers)
        rows = np.arange(count)
        gaps = np.maximum(turns, 0.0) / 2.0

        # Marker i's live cells first[i] .. first[i] + live[i] - 1 are stored
        # flat from start[i]. marker_frame's fold check keeps gaps under pi/2,
        # so the cell starting at pi/2 is always live.
        first = np.searchsorted(self.cells[:, 1], gaps, side="right")
        live = np.searchsorted(self.cells[:, 0], np.pi - gaps) - first
        start = np.cumsum(live) - live
        col = np.arange(live.sum()) + np.repeat(first - start, live)
        widths = self.widths[col]
        cos_th = self.cos_thetas[col]
        sin_th = self.sin_thetas[col]

        # Exit edges without testing every edge: seen from marker i the other
        # vertices i+1, i+2, ... appear at increasing angles, and a ray whose
        # angle falls between vertices j and j+1 leaves through edge j. On
        # the cells' theta scale a vertex sits at the gap plus its rotation
        # past the forward edge. Each adds one at the first live cell at or
        # past it (past the run: the next marker's first), so the running
        # count, less one, is every ray's flat index into `ahead`.
        ahead = count * rows[:, None] + (rows[:, None] + np.arange(1, count)) % count
        diff = markers[None, :, :] - markers[:, None, :]
        psi = np.arctan2(diff[..., 1], diff[..., 0]).ravel()[ahead]
        step = np.diff(psi, axis=1, prepend=psi[:, :1])
        step = np.where(step < -np.pi, step + 2.0 * np.pi, np.maximum(step, 0.0))
        seen = gaps[:, None] + np.cumsum(step, axis=1)
        landing = np.searchsorted(self.thetas, seen) - first[:, None]
        landing = np.clip(landing, 0, live[:, None]) + start[:, None]
        landing[:, 0] = start  # a ray never leaves before the forward edge
        exits = np.cumsum(np.bincount(landing.ravel(), minlength=len(col) + 1)[:-1]) - 1

        # only a run's two end cells can reach past the cone; the cut ones
        # get their clipped width, their midpoint angle and their own count
        ends, end_rows = np.concatenate([start, start + live - 1]), np.tile(rows, 2)
        g = gaps[end_rows, None]
        cell = self.cells[col[ends]]
        clipped = np.clip(cell, g, np.pi - g)
        cut = (clipped != cell).any(axis=1)
        ends, end_rows, (lo, hi) = ends[cut], end_rows[cut], clipped[cut].T
        mid = 0.5 * (lo + hi)
        widths[ends] = hi - lo
        cos_th[ends], sin_th[ends] = np.cos(mid), np.sin(mid)
        passed = (seen[end_rows] <= mid[:, None]).sum(axis=1)
        exits[ends] = end_rows * (count - 1) + np.maximum(passed, 1) - 1

        pair = ahead.ravel()[exits]
        tangent = np.stack([-bis[:, 1], bis[:, 0]], axis=1)
        numer = ((markers * n).sum(axis=1) - markers @ n.T).ravel()[pair]
        denom = cos_th * (tangent @ n.T).ravel()[pair]
        denom -= sin_th * (bis @ n.T).ravel()[pair]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = numer / denom
        # rays that graze or never leave forward contribute inf**(-alpha) = 0
        rho[~((denom > RAY_EPSILON) & (rho > 0.0))] = np.inf
        values = np.add.reduceat(widths * rho ** (-alpha), start)

        vertexed = gaps > 0.0
        if vertexed.any():
            rosc = duals[vertexed] / turns[vertexed]
            gn = gaps[vertexed, None] * self.gap_nodes[None, :]
            gw = gaps[vertexed, None] * self.gap_widths[None, :]
            corr = (gw * (2.0 * rosc[:, None] * np.sin(gn)) ** (-alpha)).sum(axis=1)
            values[vertexed] += 2.0 * corr
        return values, turns, bis, lengths


def sample_boundary(body: ConvexBody, count: int) -> np.ndarray:
    """Markers on a planar boundary: polygons keep every vertex a marker and
    fill edges proportionally to length; circles get a uniform angle grid."""
    if isinstance(body, Ball):
        if body.dim != 2:
            raise GeometryError("flow runs on planar bodies")
        t = 2.0 * np.pi * np.arange(count) / count
        return body.center + body.radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    if not isinstance(body, Polygon2D):
        raise GeometryError("flow runs on planar bodies")
    lengths = body.edge_lengths
    if count < body.edge_count:
        raise GeometryError(f"need at least {body.edge_count} markers for this polygon")
    raw = count * lengths / lengths.sum()
    per_edge = np.maximum(np.floor(raw).astype(int), 1)
    while per_edge.sum() > count:
        per_edge[int(np.argmax(per_edge))] -= 1
    remainder = raw - per_edge
    while per_edge.sum() < count:
        k = int(np.argmax(remainder))
        per_edge[k] += 1
        remainder[k] = -np.inf
    return _edge_pieces(body, per_edge)[1]


def resample_equal_arclength(markers: np.ndarray, count: int) -> np.ndarray:
    """Redistribute markers at equal arclength along the closed polyline,
    anchored at the current first marker."""
    closed = np.concatenate([markers, markers[:1]], axis=0)
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(count) * total / count
    idx = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - cum[idx]) / seg[idx]
    return closed[idx] + frac[:, None] * (closed[idx + 1] - closed[idx])


def flow(
    initial: Union[ConvexBody, np.ndarray],
    alpha: float,
    options: FlowOptions = FlowOptions(),
) -> FlowTrace:
    """Run the marker flow until the enclosed area falls under the cutoff.

    Returns the trace with ending "extinct" (area cutoff reached) or
    "collapse" (the front degenerated very late, under 5 percent of the
    initial area). Degeneration earlier than that raises StepCollapseError,
    and exceeding MAX_STEPS raises MaxStepsExceededError.
    """
    Params(1, alpha)  # rejects alpha outside (0, 1)
    if isinstance(initial, ConvexBody):
        markers = sample_boundary(initial, options.markers)
    else:
        markers = np.array(initial, dtype=float)
        if markers.ndim != 2 or markers.shape[1] != 2 or len(markers) < 8:
            raise GeometryError("markers must be an (m, 2) array, m >= 8")
        if _signed_area(markers) < 0.0:
            markers = markers[::-1].copy()
    frame = marker_frame(markers)
    if frame[2].min() < -TURN_TOLERANCE:
        raise GeometryError("initial markers are not convex")

    evaluate = _MarkerEvaluator(alpha)
    trace = FlowTrace(alpha=alpha, options=options)
    area0, count = _signed_area(markers), len(markers)
    t = 0.0
    for step in range(MAX_STEPS):
        values, turns, bis, lengths = evaluate(markers, frame)
        area = _signed_area(markers)
        # a thin body collapses across its width long before marker spacing
        # shrinks; the mean-width proxy 2A/P puts dt on that clock too
        scale = min(float(lengths.min()), 2.0 * area / float(lengths.sum()))
        dt = CFL * scale / float(values.max())
        trace.states.append(
            FlowState(t, markers.copy(), float(lengths.sum()), area, values, dt)
        )
        if area <= EPS_EXTINCT * area0:
            trace.ending = "extinct"
            break

        # Heun step: correct with the velocity at the predicted front. A
        # folded prediction (hairpin tips overshooting) casts near-zero
        # chords and poisons the average, so only a convex one is trusted.
        predicted = markers - dt * values[:, None] * bis
        try:
            values2, turns2, bis2, _ = evaluate(predicted)
            if turns2.min() < -TURN_TOLERANCE or _signed_area(predicted) <= 0.0:
                raise StepCollapseError("predicted front folded")
            velocity = 0.5 * (values[:, None] * bis + values2[:, None] * bis2)
        except StepCollapseError:
            velocity = values[:, None] * bis
        markers = markers - dt * velocity
        t += dt

        markers, frame = _restore_convexity(markers)
        if frame is None:
            trace.rehull_steps.append(step + 1)
        if (step + 1) % RESAMPLE_EVERY == 0 or frame is None:
            markers = resample_equal_arclength(markers, count)
            trace.resampled_steps.append(step + 1)
            frame = None
        if len(markers) < 8 or _signed_area(markers) <= 0.0:
            if _signed_area(markers) < 0.05 * area0:
                trace.ending = "collapse"
                break
            raise StepCollapseError("front degenerated far from extinction")
    else:
        raise MaxStepsExceededError(f"no extinction within {MAX_STEPS} steps")

    t_end = trace.states[-1].t
    try:
        est = trace.extinction_estimate()
        # the linear tail model describes a rounding front, whose time past
        # the cutoff scales like eps^((1+alpha)/2) of the whole run; a slab
        # that stalls its perimeter extrapolates far beyond that and the
        # final time is the better estimate of when its sliver vanishes
        tail_cap = 4.0 * EPS_EXTINCT ** ((1.0 + alpha) / 2.0) * t_end
        trace.t_star_num = est if est - t_end <= tail_cap else t_end
    except TraceTooShortError:
        trace.t_star_num = t_end if trace.ending == "extinct" else None
    return trace


def _restore_convexity(markers: np.ndarray):
    """Re-hull the polyline when a genuine dent appears; collinear runs stay.
    Returns the markers with their frame, or the hull with None."""
    try:
        frame = marker_frame(markers)
        if frame[2].min() >= -TURN_TOLERANCE:
            return markers, frame
    except StepCollapseError:
        pass
    hull = ConvexHull(markers)
    return markers[hull.vertices], None


def _clean_interior_steps(trace: FlowTrace) -> list:
    """State indices whose centered difference sees no resample or re-hull."""
    dirty = set(trace.resampled_steps) | set(trace.rehull_steps)
    last = len(trace.states) - 1
    return [
        k for k in range(1, last)
        if not ({k - 1, k, k + 1} & dirty)
    ]


def check_first_variation(trace: FlowTrace):
    """Perimeter dissipation along the run: the centered perimeter rate must
    match minus the tangent-chord weighted curvature sum at the middle state.

    The perimeter gradient at a marker is the difference of its unit edge
    tangents, of length 2 sin(turn/2); the small-angle weight turn alone
    drifts 8 percent on fresh square corners.
    """
    from .inequalities.reports import identity_report

    clean = _clean_interior_steps(trace)
    if not clean:
        raise TraceTooShortError("no states free of resampling on both sides")
    stride = max(1, len(clean) // 12)
    worst_dev = 0.0
    worst = None
    for k in clean[::stride]:
        before, here, after = trace.states[k - 1], trace.states[k], trace.states[k + 1]
        rate = (after.perimeter - before.perimeter) / (after.t - before.t)
        _, _, turns, _, _, _ = marker_frame(here.markers)
        predicted = -float((here.halpha * 2.0 * np.sin(turns / 2.0)).sum())
        dev = abs(rate - predicted) / abs(predicted)
        if dev >= worst_dev:
            worst_dev = dev
            worst = (k, rate, predicted)
    return identity_report(
        "perimeter-first-variation", worst[1], worst[2], 0.05,
        params={"alpha": trace.alpha},
        details={"state": worst[0], "checked": len(clean[::stride])},
    )


def check_decay_and_bounds(trace: FlowTrace, slope_floor: float = 0.05):
    """Monotone decay of perimeter^(1+alpha) at a definite rate.

    Passes when the perimeter strictly decreases and every step's power
    slope stays below slope_floor times the median slope. Details carry the
    extinction estimate scaled by the initial perimeter power and diameter
    power, the two quantities the extinction bounds are phrased in.
    """
    from .inequalities.reports import bound_report

    p = np.array([s.perimeter for s in trace.states])
    t = np.array([s.t for s in trace.states])
    power = p ** (1.0 + trace.alpha)
    slopes = np.diff(power) / np.diff(t)
    median = float(np.median(slopes))
    worst = float(slopes.max())
    report = bound_report(
        "perimeter-power-decay", worst, slope_floor * median, 0.0,
        params={"alpha": trace.alpha, "states": len(trace.states)},
        details={
            # decreasing up to per-step quadrature slack; a stalled slab tail
            # repeats perimeters to the last float
            "perimeter_monotone": bool(np.all(np.diff(p) <= 1e-6 * p[:-1])),
            "median_slope": median,
            "worst_slope": worst,
        },
    )
    if not report.details["perimeter_monotone"]:
        report.passed = False
    t_star = trace.t_star_num
    if t_star is not None:
        first = trace.states[0]
        d0 = _vertex_diameter(first.markers)
        report.details["t_star"] = t_star
        report.details["t_star_over_perimeter_power"] = t_star / first.perimeter ** (
            1.0 + trace.alpha
        )
        report.details["t_star_over_diameter_power"] = t_star / d0 ** (1.0 + trace.alpha)
    return report


def write_trace_csv(trace: FlowTrace, path) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "t", "perimeter", "area", "dt", "h_min", "h_max"])
        for k, s in enumerate(trace.states):
            writer.writerow([
                k, f"{s.t:.9g}", f"{s.perimeter:.9g}", f"{s.area:.9g}",
                f"{s.dt:.9g}", f"{s.halpha.min():.9g}", f"{s.halpha.max():.9g}",
            ])


def write_snapshot_svg(trace: FlowTrace, path) -> None:
    """Draw evenly spaced fronts from the trace, latest the darkest."""
    picks = np.unique(
        np.linspace(0, len(trace.states) - 1, min(8, len(trace.states))).astype(int)
    )
    first = trace.states[0].markers
    lo = first.min(axis=0)
    hi = first.max(axis=0)
    pad = 0.05 * float((hi - lo).max())
    view = (lo[0] - pad, lo[1] - pad, hi[0] - lo[0] + 2 * pad, hi[1] - lo[1] + 2 * pad)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="480" '
        f'viewBox="{view[0]:.6g} {view[1]:.6g} {view[2]:.6g} {view[3]:.6g}">',
        # flip y so the plane reads the usual way up
        f'<g transform="translate(0 {2 * view[1] + view[3]:.6g}) scale(1 -1)">',
    ]
    for rank, k in enumerate(picks):
        m = trace.states[k].markers
        pts = " ".join(f"{x:.6g},{y:.6g}" for x, y in m)
        shade = 0.25 + 0.75 * rank / max(len(picks) - 1, 1)
        lines.append(
            f'<polygon points="{pts}" fill="none" stroke="black" '
            f'stroke-opacity="{shade:.3f}" stroke-width="{0.004 * view[2]:.6g}"/>'
        )
    lines.append("</g></svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
