"""Direction rules on spheres and graded rules for singular chord integrands.

Two families: plain rules covering the whole unit sphere (uniform angles on
the circle, subdivided icosahedra on the 2-sphere) and half-circle rules for
the planar flow, graded toward the tangent directions, where chord integrands
behave like theta^(-alpha). Grading follows the substitution
theta = (pi/2) u^(1/(1-alpha)); cell weights are the exact widths of the
mapped cells, so every rule integrates constants to its domain measure at
rounding accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ResolutionTooLowError
from .icosphere import sphere_mesh


@dataclass(frozen=True)
class SphericalRule:
    """Directions and weights covering a full unit sphere."""

    n: int
    directions: np.ndarray
    weights: np.ndarray

    @property
    def size(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class GradedHalfRule:
    """Half-circle rule oriented by an outward normal, graded for chords.

    Directions satisfy <omega, nu> < 0. `thetas` is the angle from the
    tangent line; `cells` holds each node's theta interval so callers can
    clip cells against a restricted entry cone (used at polygon corners).
    """

    n: int
    alpha: float
    nu: np.ndarray
    directions: np.ndarray
    weights: np.ndarray
    thetas: np.ndarray
    cells: np.ndarray

    @property
    def size(self) -> int:
        return len(self.weights)


def sphere_rule(n: int, resolution: int) -> SphericalRule:
    """Uniform full-sphere rule: offset angle grid (n=1) or icosphere (n=2)."""
    if resolution < 8:
        raise ResolutionTooLowError("sphere rules need at least 8 directions")
    if n == 1:
        m = int(resolution)
        theta = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return SphericalRule(1, dirs, np.full(m, 2.0 * np.pi / m))
    if n == 2:
        level = 0
        while 20 * 4**level < resolution:
            level += 1
        _, nodes, solid = sphere_mesh(level)
        return SphericalRule(2, nodes, solid)
    raise ValueError("sphere dimension must be 1 or 2")


def abs_cosine_integral(rule: SphericalRule, tau: np.ndarray) -> float:
    """Integral of |<sigma, tau>| over the sphere under the given rule."""
    tau = np.asarray(tau, dtype=float)
    tau = tau / np.linalg.norm(tau)
    return float(np.sum(rule.weights * np.abs(rule.directions @ tau)))


def graded_interval(alpha: float, count: int, upper: float):
    """Nodes and exact widths for integrands ~ theta^(-alpha) on (0, upper].

    Cell edges are the images of a uniform grid under u -> upper * u^(1/(1-alpha)).
    Each cell's node is placed so that width * node^(-alpha) equals the exact
    cell integral of theta^(-alpha); a plain midpoint would misweight the
    singular cells by an alpha-dependent factor (invisible at alpha = 1/2,
    where the two errors happen to cancel). Far from the singularity the
    node differs from the midpoint by O(width^2), so smooth integrands keep
    their order. Nodes and edges both scale linearly with `upper`.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    power = 1.0 / (1.0 - alpha)
    edges = upper * (np.arange(count + 1) / count) ** power
    widths = np.diff(edges)
    moments = np.diff(edges ** (1.0 - alpha)) / (1.0 - alpha)
    nodes = (widths / moments) ** (1.0 / alpha)
    return nodes, widths


def graded_half_rule(nu: np.ndarray, alpha: float, resolution: int) -> GradedHalfRule:
    """Graded rule on the inward half-circle {<omega, nu> < 0} of a planar normal.

    Surfaces need no direction rule: their chord form is integrated exactly
    (`nonlocal_ops.halpha_chord`).
    """
    nu = np.asarray(nu, dtype=float)
    nu = nu / np.linalg.norm(nu)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if nu.shape != (2,):
        raise ValueError("normal must be a 2-vector")
    m_half = max(resolution // 2, 8)
    nodes, widths = graded_interval(alpha, m_half, np.pi / 2.0)
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    # mirror onto (pi/2, pi); near-tangent grading at both ends
    thetas = np.concatenate([nodes, np.pi - nodes[::-1]])
    lo = np.concatenate([edges[:-1], np.pi - edges[1:][::-1]])
    hi = np.concatenate([edges[1:], np.pi - edges[:-1][::-1]])
    weights = hi - lo
    tangent = np.array([-nu[1], nu[0]])
    dirs = np.outer(np.cos(thetas), tangent) - np.outer(np.sin(thetas), nu)
    return GradedHalfRule(1, alpha, nu, dirs, weights, thetas, np.stack([lo, hi], axis=1))
