"""Subdivided icosahedral triangulations of the unit sphere.

Shared by spherical quadrature rules and by surface node generation for
ball bodies. Subdivision is the standard 4-split with midpoint projection
(`split4`, the one triangle split every refinement in the package uses);
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


# split4's children: indices into the corners followed by the edge midpoints
_CHILDREN = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4], [3, 4, 5]])


def split4(tris: np.ndarray, sphere: bool = False) -> np.ndarray:
    """One midpoint 4-split of every triangle: (k, 3, d) corners to (4k, 3, d).

    Each parent's four children stay together, in the order
    [c0, m01, m20], [c1, m12, m01], [c2, m20, m12], [m01, m12, m20].
    Flat midpoints are (a + b) / 2; sphere midpoints (unit-vector corners)
    are (a + b) / |a + b|, with the norm taken by a dot product so that it
    rounds exactly like `np.linalg.norm` of a single vector.
    """
    tris = np.asarray(tris, dtype=float)
    mids = tris + tris[:, [1, 2, 0]]  # c0 + c1, c1 + c2, c2 + c0
    if sphere:
        mids /= np.sqrt(np.vecdot(mids, mids))[..., None]
    else:
        mids /= 2.0
    points = np.concatenate([tris, mids], axis=1)  # c0, c1, c2, m01, m12, m20
    return points[:, _CHILDREN].reshape(-1, 3, tris.shape[2])


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


def sphere_cells(tris: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected barycenters (k,3) and solid angles (k,) of unit-sphere triangles."""
    bary = tris.mean(axis=1)
    bary /= np.linalg.norm(bary, axis=1, keepdims=True)
    return bary, spherical_triangle_areas(tris[:, 0], tris[:, 1], tris[:, 2])


def sphere_mesh(level: int):
    """Corners (F,3,3), projected barycenter nodes (F,3), solid angles (F,).

    Built once per level; every call returns the same read-only arrays.
    """
    return _sphere_mesh(level)


# cached behind a plain function, which bench/tracer.py can still wrap
@functools.lru_cache(maxsize=None)
def _sphere_mesh(level: int):
    if level < 0:
        raise ValueError("subdivision level must be >= 0")
    v, f = icosahedron()
    corners = v[f]
    for _ in range(level):
        corners = split4(corners, sphere=True)
    nodes, areas = sphere_cells(corners)
    for a in (corners, nodes, areas):
        a.setflags(write=False)
    return corners, nodes, areas
