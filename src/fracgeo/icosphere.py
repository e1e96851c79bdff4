"""Subdivided icosahedral triangulations of the unit sphere.

Shared by spherical quadrature rules and by surface node generation for
ball bodies. Subdivision is the standard 4-split with midpoint projection;
cell weights are exact spherical triangle areas, so every triangulation
partitions the full solid angle 4*pi to rounding.
"""

from __future__ import annotations

import functools

import numpy as np

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def icosahedron() -> tuple[np.ndarray, np.ndarray]:
    """Vertices (12,3) on the unit sphere and outward-oriented faces (20,3)."""
    v = np.array(
        [
            [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
            [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
            [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
        ],
        dtype=float,
    )
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=int,
    )
    # orient all faces outward (positive triple product with the centroid ray)
    for i, (a, b, c) in enumerate(f):
        if np.dot(np.cross(v[b] - v[a], v[c] - v[a]), v[a] + v[b] + v[c]) < 0:
            f[i] = [a, c, b]
    return v, f


def subdivide(vertices: np.ndarray, faces: np.ndarray):
    """One 4-split: edge midpoints projected back to the unit sphere."""
    midpoint_cache: dict[tuple[int, int], int] = {}
    verts = [tuple(p) for p in vertices]

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        if key not in midpoint_cache:
            m = (vertices[i] + vertices[j]) / 2.0
            m /= np.linalg.norm(m)
            midpoint_cache[key] = len(verts)
            verts.append(tuple(m))
        return midpoint_cache[key]

    new_faces = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        new_faces.extend([[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]])
    return np.array(verts, dtype=float), np.array(new_faces, dtype=int)


def icosphere(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Triangulation after `level` 4-splits: 20 * 4**level faces."""
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    v, f = icosahedron()
    for _ in range(level):
        v, f = subdivide(v, f)
    return v, f


def spherical_triangle_areas(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solid angles of triangles with unit-vector corners a, b, c (batched).

    Uses the half-angle tangent formula, numerically stable for the small
    triangles produced by repeated subdivision.
    """
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = (
        1.0
        + np.einsum("ij,ij->i", a, b)
        + np.einsum("ij,ij->i", b, c)
        + np.einsum("ij,ij->i", c, a)
    )
    return 2.0 * np.arctan2(num, den)


def sphere_mesh(level: int):
    """Corners (F,3,3), projected barycenter nodes (F,3), solid angles (F,).

    Built once per level; every call returns the same read-only arrays.
    """
    return _sphere_mesh(level)


# cached behind a plain function, which bench/tracer.py can still wrap
@functools.lru_cache(maxsize=None)
def _sphere_mesh(level: int):
    v, f = icosphere(level)
    corners = v[f]
    nodes = corners.mean(axis=1)
    nodes /= np.linalg.norm(nodes, axis=1, keepdims=True)
    areas = spherical_triangle_areas(corners[:, 0], corners[:, 1], corners[:, 2])
    for a in (corners, nodes, areas):
        a.setflags(write=False)
    return corners, nodes, areas
