"""Direction rules on spheres and the sine-power primitive of planar chords.

Plain rules cover the whole unit sphere (uniform angles on the circle,
subdivided icosahedra on the 2-sphere). The planar chord form integrates
powers of the sine of a ray's elevation above an edge's line; the flow
evaluates that primitive from a polynomial fitted once per exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betainc

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


def sine_power_mean(p: float) -> np.ndarray:
    """Coefficients c, lowest first, of the mean M(psi^2) = sum_k c_k psi^(2k)
    of (sin t / sin psi)^p over t in (0, psi), for psi in [0, pi/2].

    So the integral of sin^p from 0 to psi is psi sin^p(psi) M(psi^2), for p
    in (-1, 1), and M(0) = 1/(1 + p). M is analytic in psi^2 up to its
    singularity at pi^2, four times the fitted range, so the degree-12
    interpolant at Chebyshev points is within about 3e-15 relative for p from
    -0.999 to 0.999. The samples come from the incomplete beta function,
    int_0^psi sin^p = B(a, 1/2) I_{sin^2 psi}(a, 1/2) / 2 with a = (1 + p)/2;
    past pi/4 the complement is taken in cos^2 psi, which keeps its accuracy
    where sin^2 psi rounds toward 1.
    """
    a = 0.5 * (1.0 + p)

    def mean(x):
        psi = np.sqrt(x)
        share = np.where(
            psi > np.pi / 4.0,
            1.0 - betainc(0.5, a, np.cos(psi) ** 2),
            betainc(a, 0.5, np.sin(psi) ** 2),
        )
        return 0.5 * beta(a, 0.5) * share / (psi * np.sin(psi) ** p)

    fit = np.polynomial.Chebyshev.interpolate(mean, 12, domain=[0.0, np.pi**2 / 4.0])
    return fit.convert(kind=np.polynomial.Polynomial).coef
