"""Spherical rules and the sine-power primitive of planar chords."""

import numpy as np
import pytest
from numpy.polynomial import polynomial

from fracgeo.geometry import ResolutionTooLowError
from fracgeo.quadrature import (
    abs_cosine_integral,
    sine_power_mean,
    sphere_rule,
)

import oracles


def random_unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# full-sphere rules


def test_circle_rule_exact_total_and_balance():
    rule = sphere_rule(1, 360)
    assert rule.weights.sum() == pytest.approx(2.0 * np.pi, abs=1e-10)
    moment = rule.weights @ rule.directions
    assert np.linalg.norm(moment) < 1e-10


def test_sphere_rule_total_and_balance():
    rule = sphere_rule(2, 5120)
    assert rule.weights.sum() == pytest.approx(4.0 * np.pi, abs=1e-10)
    moment = rule.weights @ rule.directions
    assert np.linalg.norm(moment) < 1e-10
    assert np.all(rule.weights > 0.0)


def test_rule_resolution_floor():
    with pytest.raises(ResolutionTooLowError):
        sphere_rule(1, 4)


def test_odd_moment_annihilation_any_direction():
    rng = np.random.default_rng(3)
    for n, res in ((1, 240), (2, 1280)):
        rule = sphere_rule(n, res)
        for _ in range(5):
            v = random_unit(rng, n + 1)
            assert abs(np.sum(rule.weights * (rule.directions @ v))) < 1e-10


def test_abs_cosine_closed_values():
    rng = np.random.default_rng(7)
    rule1 = sphere_rule(1, 720)
    for _ in range(4):
        tau = random_unit(rng, 2)
        assert abs_cosine_integral(rule1, tau) == pytest.approx(4.0, rel=1e-3)
    rule2 = sphere_rule(2, 5120)
    for _ in range(4):
        tau = random_unit(rng, 3)
        assert abs_cosine_integral(rule2, tau) == pytest.approx(
            2.0 * np.pi, rel=1e-2
        )


def test_abs_cosine_rotation_invariance():
    rule = sphere_rule(1, 720)
    values = [
        abs_cosine_integral(rule, np.array([np.cos(t), np.sin(t)]))
        for t in np.linspace(0.0, np.pi, 7)
    ]
    assert max(values) - min(values) < 1e-3 * 4.0


# ---------------------------------------------------------------------------
# the sine-power primitive of planar chords

EXPONENTS = (-0.999, -0.5, -0.001, 0.001, 0.5, 0.999)


def test_sine_power_mean_solves_its_differential_equation():
    # S(psi) = psi sin^p(psi) M(psi^2) has S' = sin^p exactly when
    # M (1 + p psi cot psi) + 2 psi^2 M'(psi^2) = 1, and M(0) = 1/(1 + p)
    # picks the primitive that vanishes at 0; neither uses the incomplete beta
    psi = np.linspace(1e-4, np.pi / 2.0, 2001)
    x = psi * psi
    for p in EXPONENTS:
        c = sine_power_mean(p)
        assert c[0] == pytest.approx(1.0 / (1.0 + p), rel=1e-14)
        slope = polynomial.polyval(x, polynomial.polyder(c))
        residual = polynomial.polyval(x, c) * (1.0 + p * psi / np.tan(psi)) + 2.0 * x * slope - 1.0
        assert np.abs(residual).max() < 5e-12 * max(1.0, 1.0 / (1.0 + p))


def test_sine_power_mean_over_the_quarter_turn():
    # the integral of sin^p over (0, pi/2) is half the Beta function's
    # integral of sin^-alpha over (0, pi) at alpha = -p
    for p in EXPONENTS:
        whole = np.pi / 2.0 * polynomial.polyval(np.pi**2 / 4.0, sine_power_mean(p))
        assert whole == pytest.approx(0.5 * oracles.sin_power_integral(-p), rel=1e-14)
