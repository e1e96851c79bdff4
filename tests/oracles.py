"""Independent reference values the tests freeze as ground truth.

Closed forms come from Beta/Gamma reductions, the rest are plain dense
Riemann sums on uniform grids, deliberately dumb so they cannot share a bug
with the graded rules or the pair-refined interaction sums under test. The
two marker references take the flow's marker frame, which defines its
discrete model; `marker_rule_sum` also takes its rule, so it checks the
evaluator's vectorized ray bookkeeping alone.
"""

import numpy as np
from scipy.special import beta, betainc

SPHERE_MEASURE = {1: 2.0 * np.pi, 2: 4.0 * np.pi}
BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}


# ---------------------------------------------------------------------------
# closed forms


def sin_power_integral(alpha: float) -> float:
    """Integral of sin(theta)^(-alpha) over (0, pi) = B((1-alpha)/2, 1/2)."""
    return float(beta((1.0 - alpha) / 2.0, 0.5))


def disk_halpha(alpha: float, radius: float = 1.0) -> float:
    """Chord integral on a circle: every chord is 2R sin(theta).

    Integral over (0, pi) of (2R sin theta)^(-alpha) d theta
    = (2R)^(-alpha) * B((1-alpha)/2, 1/2).
    """
    return (2.0 * radius) ** (-alpha) * sin_power_integral(alpha)


def sphere_halpha(alpha: float, radius: float = 1.0) -> float:
    """Half-sphere chord integral on a round sphere.

    With psi the angle from the inward normal the chord is 2R cos(psi) and
    the measure is 2 pi sin(psi) dpsi, so the integral over (0, pi/2) is
    2 pi (2R)^(-alpha) / (1 - alpha) in closed form.
    """
    return 2.0 * np.pi * (2.0 * radius) ** (-alpha) / (1.0 - alpha)


def circle_extinction_time(alpha: float, radius: float = 1.0) -> float:
    """Root of dR/dt = -c1 R^(-alpha): T = R^(1+alpha) / ((1+alpha) c1)."""
    c1 = disk_halpha(alpha, 1.0)
    return radius ** (1.0 + alpha) / ((1.0 + alpha) * c1)


def slab_collapse_time(alpha: float, width: float) -> float:
    """Root of dw/dt = -2 B w^(-alpha) for an infinite slab of width w.

    Each face moves at w^(-alpha) times the integral of sin(theta)^alpha over
    (0, pi), which is B((1+alpha)/2, 1/2).
    """
    b = beta((1.0 + alpha) / 2.0, 0.5)
    return width ** (1.0 + alpha) / (2.0 * (1.0 + alpha) * b)


def circle_cap_arc(chord_radius: float) -> float:
    """Arc length of the unit circle within Euclidean distance r of a point.

    A chord of length r subtends angle 2 arcsin(r/2), so the patch is the
    arc of angular half-width 2 arcsin(r/2) on each side.
    """
    return 4.0 * np.arcsin(min(chord_radius, 2.0) / 2.0)


def sphere_cap_area(chord_radius: float) -> float:
    """Area of the unit-sphere patch within Euclidean distance r of a point.

    Chord r means polar angle phi with r^2 = 2 - 2 cos phi, so the cap
    height is r^2 / 2 and its area is 2 pi h = pi r^2.
    """
    return np.pi * min(chord_radius, 2.0) ** 2


def pointwise_constant(n: int, alpha: float) -> float:
    """The explicit constant (2 / |S^n|)^((n+alpha)/n) of the lower bound."""
    return (2.0 / SPHERE_MEASURE[n]) ** ((n + alpha) / n)


def flat_equality_constant(n: int, alpha: float) -> float:
    """Equality constant of the flat-space tail bound, saturated by balls.

    For E a ball of radius rho around x the complement integral is the
    radial one: |S^(n-1)| rho^(-alpha) / alpha, and |E|^(-alpha/n)
    = (|B_1^n| rho^n)^(-alpha/n), forcing C = |B_1|^(-alpha/n) alpha / |S^(n-1)|.
    """
    surface = {1: 2.0, 2: 2.0 * np.pi}[n]
    return BALL_VOLUME[n] ** (-alpha / n) * alpha / surface


def polygon_halpha(vertices, x, alpha: float) -> float:
    """Chord form at a boundary point x of a convex polygon, all edges at once.

    An edge at height h below x, its ends at s0 < s1 along it from x's foot
    point, adds h^-alpha times the integral of cos^alpha over the angles
    atan(s/h) it spans, which is B(1/2, k)/2 times the difference of
    sign(s) I_{s^2/(s^2+h^2)}(1/2, k) between its ends, k = (1 + alpha)/2.
    An edge seen from one side at a grazing angle differences the
    complements I_{h^2/(s^2+h^2)}(k, 1/2) instead. Edges through x add
    nothing.
    """
    x = np.asarray(x, dtype=float)
    a = np.asarray(vertices, dtype=float)
    b = np.roll(a, -1, axis=0)
    k = 0.5 * (1.0 + alpha)
    flat = 1e-9 * np.abs(a - x).max()
    tau = (b - a) / np.linalg.norm(b - a, axis=1)[:, None]
    nu = np.stack([tau[:, 1], -tau[:, 0]], axis=1)
    s = np.stack([((a - x) * tau).sum(axis=1), ((b - x) * tau).sum(axis=1)], axis=1)
    # from the nearer end, so a small h keeps its relative accuracy
    nearer = np.where((np.abs(s[:, 0]) <= np.abs(s[:, 1]))[:, None], a, b)
    h = ((nearer - x) * nu).sum(axis=1)
    seen = h > flat
    s, h = s[seen], h[seen, None]
    r2 = s * s + h * h
    grazing = (s[:, :1] * s[:, 1:] > 0.0) & ((s * s).sum(axis=1, keepdims=True) > 2.0 * h * h)
    prim = np.where(
        grazing,
        -np.sign(s) * betainc(k, 0.5, h * h / r2),
        np.sign(s) * betainc(0.5, k, s * s / r2),
    )
    return float((0.5 * beta(0.5, k) * h[:, 0] ** (-alpha) * (prim[:, 1] - prim[:, 0])).sum())


def marker_halpha_exact(markers, alpha: float):
    """Per-marker curvature of the flow's model, in closed form.

    The polygon's chords cover each marker's entry cone (`polygon_halpha`
    over the edges not through it); the two gaps of half the turn g at
    either end see the osculating circle of radius R = dual / turn, whose
    chord 2R sin(theta) integrates over both to (2R)^-alpha B(sin^2 g;
    (1-alpha)/2, 1/2).
    """
    from fracgeo.flow import marker_frame

    _, _, turns, _, duals, _ = marker_frame(markers)
    out = np.array([polygon_halpha(markers, x, alpha) for x in markers])
    bent, a = turns > 0.0, 0.5 * (1.0 - alpha)
    gaps = betainc(a, 0.5, np.sin(turns[bent] / 2.0) ** 2) * beta(a, 0.5)
    out[bent] += (2.0 * duals[bent] / turns[bent]) ** (-alpha) * gaps
    return out


def marker_rule_sum(markers, alpha: float):
    """Per-marker chord sum of the flow's rule, one ray at a time.

    Each marker clips the graded cells to its entry cone (gap, pi - gap),
    gap half its turn; a clipped cell moves its node to its midpoint. Every
    ray x + t (cos theta tangent - sin theta bisector) is tested against
    every edge, and the nearest forward exit adds width * chord^-alpha; the
    two gaps add the osculating circle's graded sums.
    """
    from fracgeo.flow import GAP_NODES, RAY_EPSILON, RULE_SIZE, marker_frame
    from fracgeo.quadrature import graded_half_rule, graded_interval

    _, normals, turns, bis, duals, _ = marker_frame(markers)
    offsets = (markers * normals).sum(axis=1)
    thetas, cells = graded_half_rule(alpha, RULE_SIZE)
    out = np.zeros(len(markers))
    for i, x in enumerate(markers):
        gap = max(turns[i], 0.0) / 2.0
        lo, hi = np.clip(cells, gap, np.pi - gap).T
        live = hi > lo
        th = np.where((lo == cells[:, 0]) & (hi == cells[:, 1]), thetas, 0.5 * (lo + hi))[live]
        tangent = np.array([-bis[i, 1], bis[i, 0]])
        denom = (np.outer(np.cos(th), tangent) - np.outer(np.sin(th), bis[i])) @ normals.T
        with np.errstate(divide="ignore", invalid="ignore"):
            chord = np.where(denom > RAY_EPSILON, (offsets - normals @ x) / denom, np.inf)
        chord = chord.min(axis=1)
        ahead = chord > 0.0
        out[i] = np.sum((hi - lo)[live][ahead] * chord[ahead] ** (-alpha))
        if gap > 0.0:
            nodes, widths = graded_interval(alpha, GAP_NODES, gap)
            out[i] += 2.0 * np.sum(widths * (2.0 * duals[i] / turns[i] * np.sin(nodes)) ** (-alpha))
    return out


# ---------------------------------------------------------------------------
# polygon node sets and flow markers, edge by edge


def polygon_nodes_per_edge(body, resolution: int):
    """A polygon's node set built one edge at a time: points, normals,
    weights, facet ids, spacings and patches.

    Edge e gets max(1, round(resolution * length_e / perimeter)) equal
    pieces; each piece's node is its midpoint and its patch its two ends.
    """
    lengths = body.edge_lengths
    counts = np.maximum(1, np.round(resolution * lengths / lengths.sum()).astype(int))
    verts, nxt = body.vertices, np.roll(body.vertices, -1, axis=0)
    pts, nrms, wts, fids, spac, patches = [], [], [], [], [], []
    for e in range(body.edge_count):
        m = counts[e]
        a = verts[e] + np.outer(np.arange(m) / m, nxt[e] - verts[e])
        b = verts[e] + np.outer((np.arange(m) + 1) / m, nxt[e] - verts[e])
        pts.append((a + b) / 2)
        nrms.append(np.tile(body.facet_normals[e], (m, 1)))
        wts.append(np.full(m, lengths[e] / m))
        fids.append(np.full(m, e, dtype=int))
        spac.append(np.full(m, lengths[e] / m))
        patches.append(np.stack([a, b], axis=1))
    return tuple(np.concatenate(x) for x in (pts, nrms, wts, fids, spac, patches))


def markers_per_edge(body, count: int):
    """Flow markers on a polygon, one edge at a time: every vertex is a
    marker, each edge gets at least one, and the rest go by length, the
    largest fractional shares first."""
    verts, lengths = body.vertices, body.edge_lengths
    raw = count * lengths / lengths.sum()
    per_edge = np.maximum(np.floor(raw).astype(int), 1)
    while per_edge.sum() > count:
        per_edge[int(np.argmax(per_edge))] -= 1
    remainder = raw - per_edge
    while per_edge.sum() < count:
        k = int(np.argmax(remainder))
        per_edge[k] += 1
        remainder[k] = -np.inf
    pieces = []
    for i, k in enumerate(per_edge):
        a, b = verts[i], verts[(i + 1) % len(verts)]
        pieces.append(a + np.outer(np.arange(k) / k, b - a))
    return np.concatenate(pieces, axis=0)


# ---------------------------------------------------------------------------
# one 4-split of a node's cell, cell by cell

# children of the corners c0, c1, c2 and edge midpoints m01, m12, m20
CHILDREN = ((0, 3, 5), (1, 4, 3), (2, 5, 4), (3, 4, 5))


def split_cell(quad, i):
    """Points (4, dim) and weights (4,) of node i's cell split once into four.

    Segments and arcs split into equal quarters. Triangles split at their
    edge midpoints, projected to the sphere for sphere cells; each child is
    its barycenter (projected too) with its flat area or its solid angle
    (half-angle tangent formula) times R^2.
    """
    body, cell = quad.body, quad.patches[i]
    if quad.n == 1 and body.is_polytope:
        a, b = cell
        t = (np.arange(4) + 0.5) / 4
        return a + np.outer(t, b - a), np.full(4, np.linalg.norm(b - a) / 4)
    if quad.n == 1:
        t0, t1 = cell
        t = t0 + (t1 - t0) * (np.arange(4) + 0.5) / 4
        dirs = np.stack([np.cos(t), np.sin(t)], axis=1)
        return body.center + body.radius * dirs, np.full(4, body.radius * (t1 - t0) / 4)
    curved = not body.is_polytope
    corners = list((cell - body.center) / body.radius if curved else cell)
    for p, q in ((0, 1), (1, 2), (2, 0)):
        m = corners[p] + corners[q]
        corners.append(m / np.linalg.norm(m) if curved else m / 2.0)
    tris = np.array([[corners[c] for c in child] for child in CHILDREN])
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    bary = tris.mean(axis=1)
    if not curved:
        return bary, 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    bary /= np.linalg.norm(bary, axis=1, keepdims=True)
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b - a, c - a)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c)
    den += np.einsum("ij,ij->i", c, a)
    return body.center + body.radius * bary, body.radius**2 * (2.0 * np.arctan2(num, den))


# ---------------------------------------------------------------------------
# dense interaction sums on a node set


def dense_interaction_matrix(quad, power: float, near_factor: float = 2.0):
    """Full symmetric (N, N) matrix w_i w_j / |x_i - x_j|^power, zero diagonal.

    Distances one coordinate at a time, reciprocal powers, then the weight
    products; pairs within near_factor local spacings, ties within 1e-9
    included, are replaced by the sum over one 4-split of both cells
    (`quad.split_cells`).
    """
    pts, w = quad.points, quad.weights
    dist = np.zeros((quad.node_count, quad.node_count))
    for k in range(pts.shape[1]):
        dist += np.subtract.outer(pts[:, k], pts[:, k]) ** 2
    dist = np.sqrt(dist)
    limit = near_factor * (1.0 + 1e-9) * np.maximum.outer(quad.spacings, quad.spacings)
    near_i, near_j = np.nonzero(np.triu((dist <= limit) & (dist > 0.0), 1))
    dist **= power
    mat = np.divide(1.0, dist, out=np.zeros_like(dist), where=dist > 0.0)
    mat = np.outer(w, w) * mat
    if len(near_i):
        nodes, slot = np.unique(np.concatenate([near_i, near_j]), return_inverse=True)
        sub_pts, sub_w = quad.split_cells(nodes)
        a, b = slot[: len(near_i)], slot[len(near_i) :]
        d = np.linalg.norm(sub_pts[a][:, :, None, :] - sub_pts[b][:, None, :, :], axis=3)
        terms = sub_w[a][:, :, None] * sub_w[b][:, None, :] / d**power
        vals = terms.reshape(len(a), -1).sum(axis=1)
        mat[near_i, near_j] = vals
        mat[near_j, near_i] = vals
    return mat


def coarea_level_sum(mat, values, levels: int) -> float:
    """Layered perimeter integral: at each midpoint level t of `levels` equal
    bins of the value range, the interaction of {u > t} with {u <= t}."""
    lo, hi = float(values.min()), float(values.max())
    dt = (hi - lo) / levels
    total = 0.0
    for k in range(levels):
        mask = values > lo + (k + 0.5) * dt
        total += float(mat[mask][:, ~mask].sum()) * dt
    return total


# ---------------------------------------------------------------------------
# dense-grid brute sums on the unit circle


def circle_grid(count: int):
    """Midpoint angular grid: points, weights, angles."""
    theta = 2.0 * np.pi * (np.arange(count) + 0.5) / count
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    w = np.full(count, 2.0 * np.pi / count)
    return pts, w, theta


def brute_pair_energy(pts, w, values, power: float) -> float:
    """Plain double Riemann sum of |du|^p-weighted kernel, no refinement."""
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    return float(np.sum(np.outer(w, w) * values / d**power))


def brute_half_circle_perimeter(s: float, count: int = 2400) -> float:
    """Fractional perimeter of the upper half circle by dense double sum."""
    pts, w, theta = circle_grid(count)
    upper = np.sin(theta) > 0.0
    d = np.linalg.norm(pts[upper][:, None, :] - pts[~upper][None, :, :], axis=2)
    return float(np.sum(np.outer(w[upper], w[~upper]) / d ** (1.0 + s)))


def brute_cosine_gagliardo(s: float, p: float, count: int = 2400) -> float:
    """Gagliardo double sum of u = cos(theta) on the unit circle."""
    pts, w, theta = circle_grid(count)
    u = np.cos(theta)
    du = np.abs(u[:, None] - u[None, :]) ** p
    return brute_pair_energy(pts, w, du, 1.0 + s * p)


def brute_half_arc_tail(sp: float, count: int = 2400) -> float:
    """Kernel mass of the far half circle seen from the point (1, 0)."""
    pts, w, theta = circle_grid(count)
    far = np.cos(theta) <= 0.0
    x = np.array([1.0, 0.0])
    d = np.linalg.norm(pts[far] - x, axis=1)
    return float(np.sum(w[far] / d ** (1.0 + sp)))


# ---------------------------------------------------------------------------
# grid sums


def flat_tail_sum_per_cell(n: int, alpha: float, h: float, cells, x_cell) -> float:
    """Complement kernel mass of a cell union, one grid cell at a time.

    The per-cell loop that the vectorized `checks.flat_tail_sum` replaced:
    membership by a set of tuples, and each cell within 4h of x summed on
    its own 8-per-axis subgrid. Beyond a radius containing the set the
    radial tail |S^(n-1)| D^(-alpha) / alpha is added in closed form.
    """
    cells = np.asarray(cells, dtype=int)
    x = (np.asarray(x_cell, dtype=float) + 0.5) * h
    far = float(np.linalg.norm((cells + 0.5) * h - x, axis=1).max())
    big_d = max(4.0 * far, 16.0 * h)
    span = int(np.ceil(big_d / h)) + 1
    base = np.asarray(x_cell, dtype=int)
    axes = [np.arange(base[k] - span, base[k] + span + 1) for k in range(n)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    dist = np.linalg.norm((grid + 0.5) * h - x, axis=1)
    cell_set = {tuple(c) for c in cells}
    member = np.array([tuple(c) in cell_set for c in grid])
    outside = (dist <= big_d) & ~member
    out_dist = dist[outside]
    near = out_dist <= 4.0 * h
    total = float(np.sum(h**n / out_dist[~near] ** (n + alpha)))
    offs = (np.arange(8) + 0.5) / 8
    local = np.stack(np.meshgrid(*([offs] * n), indexing="ij"), axis=-1).reshape(-1, n)
    for c in grid[outside][near]:
        dd = np.linalg.norm((c + local) * h - x, axis=1)
        total += float(np.sum((h / 8) ** n / dd ** (n + alpha)))
    surface = {1: 2.0, 2: 2.0 * np.pi}[n]
    return total + surface * big_d ** (-alpha) / alpha


# ---------------------------------------------------------------------------
# small fitting helpers


def fit_exponent(lams, values) -> float:
    """Least-squares slope of log(values) against log(lams)."""
    return float(np.polyfit(np.log(np.asarray(lams)), np.log(np.asarray(values)), 1)[0])
