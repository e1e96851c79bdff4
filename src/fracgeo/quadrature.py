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


def graded_half_rule(alpha: float, resolution: int):
    """Graded rule on the half-circle of angles theta in (0, pi) from a tangent line.

    Returns the nodes `thetas` and each node's interval `cells` (k, 2); cell
    widths are the weights, and callers clip cells against a restricted
    entry cone (polygon corners). Surfaces need no direction rule: their
    chord form is integrated exactly (`nonlocal_ops.halpha_chord`).
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    m_half = max(resolution // 2, 8)
    nodes, widths = graded_interval(alpha, m_half, np.pi / 2.0)
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    # mirror onto (pi/2, pi); near-tangent grading at both ends
    thetas = np.concatenate([nodes, np.pi - nodes[::-1]])
    lo = np.concatenate([edges[:-1], np.pi - edges[1:][::-1]])
    hi = np.concatenate([edges[1:], np.pi - edges[:-1][::-1]])
    return thetas, np.stack([lo, hi], axis=1)
