"""Spherical rules and the graded rules that absorb endpoint singularities."""

import numpy as np
import pytest

from fracgeo.geometry import ResolutionTooLowError
from fracgeo.quadrature import (
    abs_cosine_integral,
    graded_half_rule,
    graded_interval,
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
# graded half-sphere rules


def test_half_rule_constants_and_sidedness():
    thetas, cells = graded_half_rule(0.5, 720)
    widths = cells[:, 1] - cells[:, 0]
    assert widths.sum() == pytest.approx(oracles.SPHERE_MEASURE[1] / 2.0, abs=1e-10)
    assert np.all((cells[:, 0] < thetas) & (thetas < cells[:, 1]))
    assert np.min(np.sin(thetas)) > 0.0


def test_half_rule_singular_model_n1():
    # integrand sin(theta)^(-alpha): the inward component of each direction
    for alpha, tol in ((0.25, 0.005), (0.5, 0.002), (0.75, 0.005)):
        thetas, cells = graded_half_rule(alpha, 720)
        value = float(np.sum((cells[:, 1] - cells[:, 0]) * np.sin(thetas) ** (-alpha)))
        assert value == pytest.approx(oracles.sin_power_integral(alpha), rel=tol)


def test_half_rule_refinement_cuts_error():
    alpha = 0.5
    target = oracles.sin_power_integral(alpha)

    def err(res):
        thetas, cells = graded_half_rule(alpha, res)
        value = float(np.sum((cells[:, 1] - cells[:, 0]) * np.sin(thetas) ** (-alpha)))
        return abs(value - target)

    assert err(720) <= err(360) / 2.0


def test_graded_interval_reproduces_singular_moments():
    # cell nodes are placed so the rule integrates t^(-alpha) exactly
    for alpha in (0.25, 0.5, 0.75):
        for upper in (1.0, np.pi / 2):
            nodes, widths = graded_interval(alpha, 48, upper)
            value = float(np.sum(widths * nodes ** (-alpha)))
            exact = upper ** (1.0 - alpha) / (1.0 - alpha)
            assert value == pytest.approx(exact, rel=1e-12)
            assert widths.sum() == pytest.approx(upper, rel=1e-12)
            assert np.all(np.diff(np.concatenate([[0.0], nodes])) > 0.0)
