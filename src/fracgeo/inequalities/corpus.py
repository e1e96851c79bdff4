"""Seeded corpora of convex bodies, node subsets, and node fields.

Everything is driven by a numpy Generator so that a seed pins the whole
corpus; suite runs record the seed in every report.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull

from ..geometry import (
    Ball,
    ConvexBody,
    NodeSubset,
    Polygon2D,
    SurfaceQuadrature,
    make_body,
)


def regular_polygon(k: int, radius: float = 1.0, phase: float = 0.0) -> Polygon2D:
    t = phase + 2.0 * np.pi * np.arange(k) / k
    verts = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    return make_body({"type": "polygon", "vertices": verts})


def disk_polygon(k: int = 512) -> Polygon2D:
    return regular_polygon(k)


def rectangle(width: float, height: float) -> Polygon2D:
    verts = [[0.0, 0.0], [width, 0.0], [width, height], [0.0, height]]
    return make_body({"type": "polygon", "vertices": verts})


def box3d(a: float, b: float, c: float) -> ConvexBody:
    verts = np.array(
        [[x, y, z] for x in (0.0, a) for y in (0.0, b) for z in (0.0, c)]
    )
    return make_body({"type": "hull3d", "vertices": verts})


def random_ellipse_polygon(rng: np.random.Generator) -> Polygon2D:
    k = int(rng.integers(12, 49))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    # reject clusters that would produce near-duplicate vertices
    while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 1e-3:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=k))
    a = rng.uniform(0.5, 2.0)
    b = a / rng.uniform(1.0, 4.0)
    rot = rng.uniform(0.0, np.pi)
    pts = np.stack([a * np.cos(angles), b * np.sin(angles)], axis=1)
    cr, sr = np.cos(rot), np.sin(rot)
    pts = pts @ np.array([[cr, -sr], [sr, cr]]).T + rng.uniform(-1, 1, size=2)
    return make_body({"type": "polygon", "vertices": pts})


def random_box2d(rng: np.random.Generator) -> Polygon2D:
    width = rng.uniform(0.5, 2.0)
    aspect = np.exp(rng.uniform(0.0, np.log(100.0)))
    return rectangle(width, width / aspect)


def random_hull3d(rng: np.random.Generator) -> ConvexBody:
    m = int(rng.integers(16, 41))
    dirs = rng.normal(size=(m, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    axes = np.array([rng.uniform(0.6, 1.6), rng.uniform(0.4, 1.2), rng.uniform(0.3, 1.0)])
    pts = dirs * axes
    hull = ConvexHull(pts)
    return make_body({"type": "hull3d", "vertices": pts[hull.vertices]})


def body_corpus(seed: int, n1_count: int, n2_count: int):
    """Deterministic mixed corpus: (name, body) pairs, planar then solid."""
    rng = np.random.default_rng(seed)
    out = []
    kinds1 = ["kgon", "ellipse", "box", "ball"]
    for i in range(n1_count):
        kind = kinds1[i % len(kinds1)]
        if kind == "kgon":
            k = int(rng.integers(8, 96))
            out.append((f"kgon-{i}", regular_polygon(k, rng.uniform(0.5, 2.0))))
        elif kind == "ellipse":
            out.append((f"ellipse-hull-{i}", random_ellipse_polygon(rng)))
        elif kind == "box":
            out.append((f"box2d-{i}", random_box2d(rng)))
        else:
            out.append(
                (f"ball2d-{i}", Ball(2, rng.uniform(-1, 1, size=2), rng.uniform(0.4, 1.5)))
            )
    kinds2 = ["hull", "hull", "box", "ball"]
    for i in range(n2_count):
        kind = kinds2[i % len(kinds2)]
        if kind == "hull":
            out.append((f"hull3d-{i}", random_hull3d(rng)))
        elif kind == "box":
            dims = rng.uniform(0.3, 1.5, size=3)
            out.append((f"box3d-{i}", box3d(*dims)))
        else:
            out.append((f"ball3d-{i}", Ball(3, rng.uniform(-1, 1, size=3), rng.uniform(0.4, 1.2))))
    return out


def cap_subset(quad: SurfaceQuadrature, center_index: int, radius: float) -> NodeSubset:
    """Nodes within `radius` of a node: the discrete geodesic cap."""
    d = np.linalg.norm(quad.points - quad.points[center_index], axis=1)
    return NodeSubset(quad, d <= radius)


def random_subset(
    rng: np.random.Generator, quad: SurfaceQuadrature, anchor: int, kind: str = "cap"
) -> NodeSubset:
    """Random node subset guaranteed to contain the anchor node."""
    if kind == "cap":
        radius = rng.uniform(0.1, 0.6) * quad.body.diameter()
        return cap_subset(quad, anchor, radius)
    mask = rng.random(quad.node_count) < rng.uniform(0.2, 0.8)
    mask[anchor] = True
    return NodeSubset(quad, mask)


def field_values(rng: np.random.Generator, quad: SurfaceQuadrature, kind: str) -> np.ndarray:
    """Sampled field on the nodes: indicator cap, smooth cosine, or bump."""
    pts = quad.points
    center = pts[int(rng.integers(quad.node_count))]
    d = np.linalg.norm(pts - center, axis=1)
    scale = quad.body.diameter()
    if kind == "cap":
        return (d <= rng.uniform(0.15, 0.5) * scale).astype(float)
    if kind == "cosine":
        axis = rng.normal(size=pts.shape[1])
        axis /= np.linalg.norm(axis)
        freq = rng.uniform(1.0, 3.0)
        return 1.0 + np.cos(freq * (pts @ axis) * 2.0 * np.pi / scale)
    if kind == "bump":
        width = rng.uniform(0.1, 0.4) * scale
        return np.exp(-((d / width) ** 2))
    raise ValueError(f"unknown field kind {kind!r}")


def random_cell_union(rng: np.random.Generator, n: int, max_cells: int = 60) -> np.ndarray:
    """Connected union of grid cells grown by a random walk from the origin cell."""
    target = int(rng.integers(2, max_cells + 1))
    cells = [tuple([0] * n)]
    seen = {cells[0]}
    while len(cells) < target:
        base = cells[int(rng.integers(len(cells)))]
        axis = int(rng.integers(n))
        step = 1 if rng.random() < 0.5 else -1
        nxt = list(base)
        nxt[axis] += step
        nxt = tuple(nxt)
        if nxt not in seen:
            seen.add(nxt)
            cells.append(nxt)
    return np.array(cells, dtype=int)


def random_slicing_sequence(rng: np.random.Generator):
    """Non-increasing nonnegative window with geometric-flavored decay."""
    from .reports import SlicingSequence

    start = int(rng.integers(-6, 7))
    length = int(rng.integers(1, 13))
    a0 = float(np.exp(rng.normal(0.0, 1.5)))
    factors = rng.uniform(0.25, 1.0, size=length - 1)
    # occasional flat runs and an occasional hard zero tail
    flat = rng.random(length - 1) < 0.25
    factors[flat] = 1.0
    values = a0 * np.concatenate([[1.0], np.cumprod(factors)])
    if length > 2 and rng.random() < 0.2:
        cut = int(rng.integers(1, length))
        values[cut:] = 0.0
    return SlicingSequence(start, values)
