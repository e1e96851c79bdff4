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

import math
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
    # steps whose Heun prediction folded and which took the forward step
    fallback_steps: list = field(default_factory=list)
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
    nxt, prv = np.arange(1 - len(markers), 1), np.arange(-1, len(markers) - 1)  # negative wrap
    e = markers[nxt] - markers
    lengths = np.sqrt(e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1])
    if (lengths <= 0.0).any():
        raise StepCollapseError("coincident consecutive markers")
    u = e / lengths[:, None]
    n = np.stack([u[:, 1], -u[:, 0]], axis=1)
    u_prev = u[prv]
    cross = u_prev[:, 0] * u[:, 1] - u_prev[:, 1] * u[:, 0]
    turns = np.arctan2(cross, (u_prev * u).sum(axis=1))
    bis = n[prv] + n
    norms = np.sqrt(bis[:, 0] * bis[:, 0] + bis[:, 1] * bis[:, 1])
    if (norms < 1e-12).any():
        raise StepCollapseError("marker fold: opposite adjacent normals")
    bis = bis / norms[:, None]
    duals = 0.5 * (lengths + lengths[prv])
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
    exit edge j, and tables over the pairs (i, j) give the chord as
    <x_j - x_i, n_j> / (cos theta <t_i, n_j> - sin theta <b_i, n_j>).

    Per-cell and per-pair arrays that numpy can fill in place are views of
    `workspace`, grow-only buffers refilled on every call; the index tables
    that depend only on the marker count sit there too, under (name, count),
    built at that count's first call and only read after. Each evaluator (one
    per flow run) owns its own workspace, shared with no other run or thread,
    and no returned array aliases it.
    """

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.thetas, self.cells = graded_half_rule(alpha, RULE_SIZE)
        self.lower, self.upper = self.cells.T.copy()
        self.rule = np.stack([self.upper - self.lower, np.cos(self.thetas), np.sin(self.thetas)])
        self.gap_nodes, self.gap_widths = graded_interval(alpha, GAP_NODES, 1.0)
        self.workspace = {}

    def _buffer(self, name: str, shape: tuple, dtype=float, room: int = 0) -> np.ndarray:
        """This shape's view of a named grow-only buffer of at least `room` items."""
        size = math.prod(shape)
        buf = self.workspace.get(name)
        if buf is None or buf.size < size:
            buf = self.workspace[name] = np.empty(max(size, room), dtype)
        return buf[:size].reshape(shape)

    def _indices(self, count: int):
        """Index tables of a marker count: the vertices following each marker
        (i + 1 + k mod count), the flat exit-edge index (2 count + 1) i + 1 + k
        of those vertices, and the marker of each of the 2 count end cells."""
        if ("following", count) not in self.workspace:
            rows, ks = np.arange(count)[:, None], np.arange(1, count)
            self.workspace["following", count] = (rows + ks) % count
            self.workspace["edges", count] = (2 * count + 1) * rows + ks
            self.workspace["end rows", count] = np.arange(2 * count) % count
        return [self.workspace[name, count] for name in ("following", "edges", "end rows")]

    def __call__(self, markers: np.ndarray, frame=None):
        """Curvature, turns, bisectors and edge lengths at the markers;
        `frame` is marker_frame(markers) when the caller already has it."""
        alpha, buffer, count = self.alpha, self._buffer, len(markers)
        u, n, turns, bis, duals, lengths = frame or marker_frame(markers)
        following, edges, end_rows = self._indices(count)
        gaps = np.maximum(turns, 0.0) / 2.0

        # Marker i's live cells first[i] .. last[i] of the rule are stored
        # flat from start[i]. marker_frame's fold check keeps gaps under pi/2,
        # so the cell starting at pi/2 is always live.
        first = np.searchsorted(self.upper, gaps, side="right")
        live = np.searchsorted(self.lower, np.pi - gaps) - first
        start = np.cumsum(live) - live
        last = first + live - 1
        # room for a whole rule per marker: a count once seen never regrows
        total, room = int(start[-1] + live[-1]), count * len(self.thetas)
        widths, cos_th, sin_th, denom = cells = buffer("cells", (4, total), room=4 * room)
        spans = zip(first.tolist(), (last + 1).tolist())
        np.concatenate([self.rule[:, i:j] for i, j in spans], axis=1, out=cells[:3])

        # Exit edges without testing every edge: seen from marker i the other
        # vertices i+1, ..., i+m-1 (row i of `following`) appear at increasing
        # angles, and a ray whose angle falls between vertices i+k and i+k+1
        # leaves through edge i+k. On the cells' theta scale a vertex sits at
        # the gap plus its rotation past the forward edge, the first at the
        # gap itself, and lands on the first live cell at or past it.
        diff = buffer("diff", (2, count, count - 1))
        for axis in (0, 1):
            np.take(markers[:, axis], following, out=diff[axis])
        diff -= markers.T[:, :, None]
        psi = np.arctan2(diff[1], diff[0], out=buffer("psi", (count, count - 1)))
        step = np.subtract(psi[:, 1:], psi[:, :-1], out=buffer("step", (count, count - 2)))
        wrap = np.less(step, -np.pi, out=buffer("wrap", step.shape, bool))
        np.add(step, 2.0 * np.pi, out=step, where=wrap)
        np.maximum(step, 0.0, out=step)
        seen = np.cumsum(step, axis=1, out=buffer("seen", step.shape))
        seen += gaps[:, None]
        found = np.searchsorted(self.thetas, seen)
        np.maximum(found, first[:, None], out=found)
        np.minimum(found, (last + 1)[:, None], out=found)
        # Marker i's rays leave through edge i + 1 from its first cell up to
        # its first landing, and through edge i + 2 + k from landing k up to
        # the next one or past its last cell. Edge i + 1 + k is the flat index
        # i (2 count + 1) + 1 + k of the tables below, whose row i holds its
        # (i, j) entries twice over.
        runs = buffer("runs", (count, count - 1), np.intp)
        runs[:, 0] = found[:, 0] - first
        np.subtract(found[:, 1:], found[:, :-1], out=runs[:, 1:-1])
        runs[:, -1] = last + 1 - found[:, -1]
        exits = np.repeat(edges, runs.ravel())

        # only a run's two end cells can reach past the cone; the cut ones
        # get their clipped width, their midpoint angle and their own count
        # of the vertices at or before it, the first vertex always among them
        ends = np.concatenate([start, start + live - 1])
        cell = self.cells[np.concatenate([first, last])]
        cone = gaps[end_rows, None]
        clipped = np.maximum(cell, cone)
        np.minimum(clipped, np.pi - cone, out=clipped)
        cut = (clipped != cell).any(axis=1)
        mid = 0.5 * (clipped[:, 0] + clipped[:, 1])
        before = buffer("before", (2, count, count - 2), bool)
        passed = np.less_equal(seen, mid.reshape(2, count, 1), out=before).sum(axis=2).ravel()
        ends, end_rows, (lo, hi), mid = ends[cut], end_rows[cut], clipped[cut].T, mid[cut]
        widths[ends] = hi - lo
        cos_th[ends], sin_th[ends] = np.cos(mid), np.sin(mid)
        exits[ends] = end_rows * (2 * count + 1) + 1 + passed[cut]

        tangent = buffer("tangent", (count, 2))
        np.negative(bis[:, 1], out=tangent[:, 0])
        tangent[:, 1] = bis[:, 0]
        numer, tn, bn = tables = buffer("tables", (3, count, 2 * count))
        for table, vectors in zip(tables[:, :, :count], (markers, tangent, bis)):
            np.matmul(vectors, n.T, out=table)
        np.subtract((markers * n).sum(axis=1), numer[:, :count], out=numer[:, :count])
        tables[:, :, count:] = tables[:, :, :count]
        # the gathers reuse the cosines' and sines' storage once consumed; the
        # exits are in range, and mode="wrap" writes to `out` without a copy
        np.multiply(cos_th, np.take(tn, exits, out=denom, mode="wrap"), out=denom)
        denom -= np.multiply(sin_th, np.take(bn, exits, out=cos_th, mode="wrap"), out=cos_th)
        rho = np.take(numer, exits, out=sin_th, mode="wrap")
        with np.errstate(divide="ignore", invalid="ignore"):
            rho /= denom
        # rays that graze or never leave forward contribute inf**(-alpha) = 0
        ok, forward = buffer("flags", (2, total), bool, 2 * room)
        np.greater(denom, RAY_EPSILON, out=ok)
        ok &= np.greater(rho, 0.0, out=forward)
        np.copyto(rho, np.inf, where=np.logical_not(ok, out=ok))
        rho **= -alpha
        rho *= widths
        values = np.add.reduceat(rho, start)

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
        if not np.isfinite(markers).all():
            raise GeometryError("markers must be finite")
        if _signed_area(markers) < 0.0:
            markers = markers[::-1].copy()
    frame = marker_frame(markers)
    if frame[2].min() < -TURN_TOLERANCE:
        raise GeometryError("initial markers are not convex")

    evaluate = _MarkerEvaluator(alpha)
    trace = FlowTrace(alpha=alpha, options=options)
    area0, count = _signed_area(markers), len(markers)
    area, t = area0, 0.0
    for step in range(MAX_STEPS):
        values, turns, bis, lengths = evaluate(markers, frame)
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
        # chords and poisons the average, so only a convex one is trusted;
        # its frame decides that before any chord sum is spent on it.
        predicted = markers - dt * values[:, None] * bis
        velocity = values[:, None] * bis
        try:
            frame2 = marker_frame(predicted)
            folded = frame2[2].min() < -TURN_TOLERANCE or _signed_area(predicted) <= 0.0
        except StepCollapseError:
            folded = True
        if folded:
            trace.fallback_steps.append(step + 1)
        else:
            values2, _, bis2, _ = evaluate(predicted, frame2)
            velocity = 0.5 * (velocity + values2[:, None] * bis2)
        markers = markers - dt * velocity
        t += dt

        markers, frame = _restore_convexity(markers)
        if frame is None:
            trace.rehull_steps.append(step + 1)
        if (step + 1) % RESAMPLE_EVERY == 0 or frame is None:
            markers = resample_equal_arclength(markers, count)
            trace.resampled_steps.append(step + 1)
            frame = None
        area = _signed_area(markers)
        if len(markers) < 8 or area <= 0.0:
            if area < 0.05 * area0:
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
