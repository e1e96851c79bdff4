"""Closed forms the benchmark checks the program's outputs against.

Same formulas as the test suite's reference values, kept here so the
benchmark does not depend on the test tree.
"""

import math

from scipy.special import beta

SPHERE_MEASURE = {1: 2.0 * math.pi, 2: 4.0 * math.pi}


def disk_halpha(alpha: float, radius: float = 1.0) -> float:
    """Chord integral on a circle: (2R)^(-alpha) * B((1-alpha)/2, 1/2)."""
    return (2.0 * radius) ** (-alpha) * float(beta((1.0 - alpha) / 2.0, 0.5))


def sphere_halpha(alpha: float, radius: float = 1.0) -> float:
    """Half-sphere chord integral on a round sphere: 2 pi (2R)^(-alpha) / (1 - alpha)."""
    return 2.0 * math.pi * (2.0 * radius) ** (-alpha) / (1.0 - alpha)


def circle_extinction_time(alpha: float, radius: float = 1.0) -> float:
    """Root of dR/dt = -c1 R^(-alpha): T = R^(1+alpha) / ((1+alpha) c1)."""
    return radius ** (1.0 + alpha) / ((1.0 + alpha) * disk_halpha(alpha, 1.0))


def half_solid_angle(n: int) -> float:
    """The solid-angle (Gauss) law: the double layer sum is |S^n| / 2."""
    return SPHERE_MEASURE[n] / 2.0
