"""Bundled bodies load and describe what their names promise."""

import numpy as np
import pytest

from fracgeo.fixtures import FIXTURE_NAMES, fixture_description, load_fixture
from fracgeo.geometry import Ball, Hull3D, Polygon2D


def test_names_are_stable():
    assert FIXTURE_NAMES == (
        "ball2d", "ball3d", "square", "thinrect", "cube", "icosa"
    )


def test_all_fixtures_load():
    for name in FIXTURE_NAMES:
        body = load_fixture(name)
        assert body.perimeter() > 0


def test_unknown_name_raises():
    with pytest.raises(KeyError, match="nosuch"):
        fixture_description("nosuch")


def test_balls_are_unit_and_centered():
    for name, dim in (("ball2d", 2), ("ball3d", 3)):
        ball = load_fixture(name)
        assert isinstance(ball, Ball)
        assert ball.dim == dim
        assert ball.radius == 1.0
        assert np.all(ball.center == 0.0)


def test_square_and_thinrect_dimensions():
    square = load_fixture("square")
    assert isinstance(square, Polygon2D)
    assert square.perimeter() == pytest.approx(4.0)
    rect = load_fixture("thinrect")
    widths = rect.vertices.max(axis=0) - rect.vertices.min(axis=0)
    assert widths == pytest.approx([1.0, 0.05])


def test_cube_triangulation_covers_unit_surface():
    cube = load_fixture("cube")
    assert isinstance(cube, Hull3D)
    assert len(cube.faces) == 12
    assert cube.perimeter() == pytest.approx(6.0)


def test_icosa_has_unit_circumradius():
    icosa = load_fixture("icosa")
    assert len(icosa.vertices) == 12
    assert len(icosa.faces) == 20
    radii = np.linalg.norm(icosa.vertices, axis=1)
    assert radii == pytest.approx(np.ones(12))
