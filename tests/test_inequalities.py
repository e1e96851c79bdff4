"""One verifier per statement: identities, bounds, and their report records."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracgeo.geometry import (
    Ball,
    NodeSubset,
    Params,
    make_body,
    surface_quadrature,
    ball_patch_measure,
    sphere_cap_measure,
)
from fracgeo.nonlocal_ops import ScalarField, frac_perimeter, halpha_chord
from fracgeo.inequalities import SUITE_SECTIONS, run_suite
from fracgeo.inequalities import checks
from fracgeo.inequalities.corpus import (
    cap_subset,
    disk_polygon,
    random_hull3d,
    rectangle,
    regular_polygon,
)
from fracgeo.inequalities.reports import (
    InvalidSequenceError,
    SlicingSequence,
    bound_report,
    geometric_tail,
    identity_report,
)
from fracgeo.fixtures import load_fixture

import oracles


def unit_disk():
    return Ball(2, np.zeros(2), 1.0)


def unit_square():
    return make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    )


# ---------------------------------------------------------------------------
# report semantics


def test_report_record_has_stable_fields():
    rep = bound_report("demo", 1.0, 2.0, 0.1, constant_used=3.0,
                       constant_provenance="fitted", seed=0)
    record = rep.to_record()
    assert set(record) == {
        "name", "lhs", "rhs", "tolerance", "passed", "margin", "constant_used",
        "constant_provenance", "params", "resolution", "seed", "estimated_error",
        "details",
    }
    assert record["passed"] is True and record["margin"] == 1.0


@given(
    lhs=st.floats(-1e6, 1e6),
    rhs=st.floats(-1e6, 1e6),
    tol=st.floats(0.0, 1e3),
)
@settings(deadline=None)
def test_bound_report_pass_iff_margin(lhs, rhs, tol):
    rep = bound_report("prop", lhs, rhs, tol)
    assert rep.margin == rhs - lhs
    assert rep.passed == (rep.margin >= -tol)


@given(
    value=st.floats(-1e6, 1e6),
    target=st.floats(-1e6, 1e6),
    rel=st.floats(0.0, 10.0),
)
@settings(deadline=None)
def test_identity_report_pass_iff_deviation(value, target, rel):
    rep = identity_report("prop", value, target, rel)
    assert rep.passed == (abs(value - target) <= rel * max(abs(target), 1e-300))


# ---------------------------------------------------------------------------
# solid-angle law


def test_gauss_law_square_edge_points():
    sq = unit_square()
    quad = surface_quadrature(sq, 64)
    idx = np.linspace(0, quad.node_count - 1, 16).astype(int)
    rep = checks.check_gauss_law(sq, quad, idx, rel_tolerance=0.01)
    assert rep.passed and rep.lhs <= 0.01 * np.pi


def test_gauss_law_fine_disk_polygon():
    poly = disk_polygon(512)
    quad = surface_quadrature(poly, 1024)
    idx = np.linspace(0, quad.node_count - 1, 16).astype(int)
    rep = checks.check_gauss_law(poly, quad, idx, rel_tolerance=1e-3 / np.pi)
    assert rep.passed


def test_gauss_law_icosahedron():
    body = load_fixture("icosa")
    quad = surface_quadrature(body, 320)
    idx = np.linspace(0, quad.node_count - 1, 12).astype(int)
    rep = checks.check_gauss_law(body, quad, idx, rel_tolerance=0.02)
    assert rep.passed


# ---------------------------------------------------------------------------
# interpolation and pointwise bounds


def test_interpolation_full_disk_values():
    disk = unit_disk()
    quad = surface_quadrature(disk, 360)
    full = NodeSubset(quad, np.ones(quad.node_count, dtype=bool))
    rep = checks.check_curvature_interpolation(disk, quad, full, 0, 0.5)
    assert rep.passed
    assert rep.lhs == pytest.approx(np.pi, rel=0.01)
    expected = (2.0 * np.pi) ** (1.0 / 3.0) * oracles.disk_halpha(0.5) ** (2.0 / 3.0)
    assert rep.rhs == pytest.approx(expected, rel=0.01)


def test_interpolation_empty_region():
    disk = unit_disk()
    quad = surface_quadrature(disk, 360)
    empty = NodeSubset(quad, np.zeros(quad.node_count, dtype=bool))
    rep = checks.check_curvature_interpolation(disk, quad, empty, 0, 0.5)
    assert rep.passed and rep.lhs == 0.0


def test_interpolation_random_regions():
    rng = np.random.default_rng(31)
    for body in (unit_disk(), regular_polygon(12), load_fixture("icosa")):
        quad = surface_quadrature(body, 160)
        for _ in range(4):
            subset = NodeSubset(quad, rng.random(quad.node_count) < rng.uniform(0.2, 0.9))
            xi = int(rng.integers(quad.node_count))
            rep = checks.check_curvature_interpolation(body, quad, subset, xi, 0.5)
            assert rep.passed


@pytest.mark.parametrize("name", ["square", "ball2d", "icosa", "ball3d"])
def test_halpha_at_nodes_is_kept_on_the_node_set(name):
    body = load_fixture(name)
    quad = surface_quadrature(body, 80)
    values = checks.halpha_at_nodes(quad, 0.5)
    assert checks.halpha_at_nodes(quad, 0.5) is values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.0
    other = checks.halpha_at_nodes(quad, 0.25)
    assert other is not values and set(quad.curvatures) == {0.5, 0.25}
    # a twin node set builds its own, equal array
    twin = surface_quadrature(body, 80)
    assert checks.halpha_at_nodes(twin, 0.5) is not values
    for alpha, got in ((0.5, values), (0.25, other)):
        want = [
            halpha_chord(body, x, alpha, normal=nu).value
            for x, nu in zip(quad.points, quad.normals)
        ]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_pointwise_constant_value():
    assert checks.pointwise_constant(1, 0.5) == pytest.approx(
        (1.0 / np.pi) ** 1.5, rel=1e-12
    )
    assert checks.pointwise_constant(1, 0.5) == pytest.approx(
        oracles.pointwise_constant(1, 0.5), rel=1e-12
    )


def test_pointwise_global_disk_closed_values():
    disk = unit_disk()
    quad = surface_quadrature(disk, 180)
    rep = checks.check_pointwise_global(disk, quad, 0.5)
    assert rep.passed
    assert rep.lhs == pytest.approx((2.0 * np.pi) ** (-0.5), rel=1e-9)
    expected = (1.0 / np.pi) ** 1.5 * oracles.disk_halpha(0.5)
    assert rep.rhs == pytest.approx(expected, rel=0.01)
    assert rep.constant_provenance == "paper-explicit"


def test_pointwise_global_thin_rectangle():
    thin = load_fixture("thinrect")
    quad = surface_quadrature(thin, 120)
    rep = checks.check_pointwise_global(thin, quad, 0.5)
    assert rep.passed and rep.margin > 0.0


def test_pointwise_global_scale_invariant_ratio():
    disk = unit_disk()
    ratios = []
    for lam in (0.5, 1.0, 2.0):
        body = disk.scaled(lam)
        quad = surface_quadrature(body, 180)
        rep = checks.check_pointwise_global(body, quad, 0.5)
        assert rep.passed
        ratios.append(rep.lhs / rep.rhs)
    assert np.ptp(ratios) < 1e-6 * ratios[1]


def test_integral_bound_disk():
    disk = unit_disk()
    quad = surface_quadrature(disk, 180)
    rep = checks.check_integral_bound(disk, quad, 0.5, s=0.5)
    assert rep.passed
    # closed forms for both sides on the unit circle
    c = oracles.pointwise_constant(1, 0.5)
    assert rep.lhs == pytest.approx(c ** (-1.0) * (2 * np.pi) ** 0.5, rel=1e-9)
    assert rep.rhs == pytest.approx(2 * np.pi * oracles.disk_halpha(0.5), rel=0.01)


# ---------------------------------------------------------------------------
# localized split


def test_localized_identity_reduces_to_gauss_at_large_radius():
    sq = unit_square()
    quad = surface_quadrature(sq, 96)
    rep = checks.check_localized_identity(sq, quad, 5, radius=2.0)
    assert rep.passed
    assert rep.details["cap_term"] == 0.0


def test_localized_identity_disk():
    disk = unit_disk()
    quad = surface_quadrature(disk, 360)
    rep = checks.check_localized_identity(disk, quad, 0, radius=0.5)
    assert rep.passed
    assert rep.lhs == pytest.approx(np.pi, rel=0.02)


def test_localized_identity_random_instances():
    rng = np.random.default_rng(7)
    for body in (regular_polygon(16), rectangle(2.0, 0.7), unit_disk()):
        quad = surface_quadrature(body, 140)
        for _ in range(3):
            xi = int(rng.integers(quad.node_count))
            radius = float(rng.uniform(0.15, 0.75)) * body.diameter()
            rep = checks.check_localized_identity(body, quad, xi, radius)
            assert rep.passed


def test_flat_limit_cap_to_patch_ratio():
    # the ratio the ball-split bound is fitted over approaches pi/4 against
    # a straight edge: cap pi R, patch 2R
    big = make_body(
        {"type": "polygon",
         "vertices": [[-10, 0], [10, 0], [10, 20], [-10, 20]]}
    )
    quad = surface_quadrature(big, 4000)
    x = np.array([0.0, 0.0])
    radius = 1.0
    cap = sphere_cap_measure(big, x, radius)
    patch = ball_patch_measure(quad, x, radius)
    assert cap * radius / patch**2 == pytest.approx(np.pi / 4.0, rel=0.02)


def test_ball_split_inside_ball_is_trivial():
    disk = unit_disk()
    quad = surface_quadrature(disk, 120)
    rep = checks.check_reverse_isoperimetric(disk, quad, 0, radius=3.0, constant=1.0)
    assert rep.passed and rep.lhs == 0.0
    assert rep.constant_provenance == "fitted"


def test_perimeter_growth_bound():
    for body in (unit_square(), unit_disk()):
        quad = surface_quadrature(body, 96)
        radii = np.geomspace(0.05, 1.2, 10) * body.diameter() / 2.0
        rep = checks.check_perimeter_growth(body, quad, 0, radii)
        assert rep.passed


# ---------------------------------------------------------------------------
# rearrangement and subset bounds


def test_rearrangement_cap_is_fixed_point():
    quad = surface_quadrature(unit_disk(), 240)
    x = quad.points[0]
    d = np.linalg.norm(quad.points - x, axis=1)
    cap = NodeSubset(quad, d <= 0.9)
    rep = checks.check_rearrangement(quad, cap, 0, sp=0.5)
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) <= quad.weights.max() * 10.0


def test_rearrangement_antipodal_arcs_strict():
    quad = surface_quadrature(unit_disk(), 240)
    two_arcs = NodeSubset(quad, np.abs(quad.points[:, 0]) > np.cos(np.pi / 4))
    rep = checks.check_rearrangement(quad, two_arcs, 0, sp=0.5)
    assert rep.passed
    assert rep.rhs - rep.lhs > 0.05 * rep.rhs


def test_rearrangement_random_subsets():
    rng = np.random.default_rng(13)
    for name, res in (("ball2d", 200), ("ball3d", 80)):
        quad = surface_quadrature(load_fixture(name), res)
        for _ in range(10):
            mask = rng.random(quad.node_count) < rng.uniform(0.2, 0.7)
            mask[0] = True
            rep = checks.check_rearrangement(quad, NodeSubset(quad, mask), 0, sp=0.5)
            assert rep.passed


def test_subset_bound_full_set_reduction():
    disk = unit_disk()
    quad = surface_quadrature(disk, 180)
    full = NodeSubset(quad, np.ones(quad.node_count, dtype=bool))
    constant = oracles.pointwise_constant(1, 0.5)
    rep = checks.check_pointwise_subset(
        quad, full, 0, alpha=0.5, s=0.5, p=1.0, constant=constant, c_split=1.0
    )
    assert rep.passed
    assert rep.details["tail"] == 0.0
    assert rep.lhs == pytest.approx((2 * np.pi) ** (-0.5), rel=1e-9)


def test_subset_bound_tiny_cap_branch():
    quad = surface_quadrature(unit_disk(), 360)
    tiny = cap_subset(quad, 0, 0.05)
    rep = checks.check_pointwise_subset(
        quad, tiny, 0, alpha=0.5, s=0.5, p=1.0, constant=10.0, c_split=1.0
    )
    assert rep.details["branch"] == "high-density"


def test_flat_subset_balls_saturate():
    for n, h in ((1, 1.0 / 400.0), (2, 1.0 / 40.0)):
        cells = checks.ball_cells(n, h, 1.0)
        rep = checks.check_flat_subset_bound(
            n, 0.5, h, cells, np.zeros(n, dtype=int), rel_tolerance=1e-3
        )
        assert rep.passed
        assert rep.lhs == pytest.approx(rep.rhs, rel=0.01)
        assert rep.constant_used == pytest.approx(
            oracles.flat_equality_constant(n, 0.5), rel=1e-12
        )
        assert rep.constant_provenance == "derived-closed-form"


def test_flat_subset_off_center_strict():
    n, h = 1, 1.0 / 200.0
    cells = checks.ball_cells(n, h, 1.0)
    edge = cells[int(np.argmax(cells[:, 0]))]
    rep = checks.check_flat_subset_bound(n, 0.5, h, cells, edge)
    assert rep.passed and rep.margin > 0.05 * rep.rhs


def test_flat_subset_random_unions():
    from fracgeo.inequalities.corpus import random_cell_union

    rng = np.random.default_rng(3)
    for k in range(10):
        n = 1 if k % 2 == 0 else 2
        cells = random_cell_union(rng, n, 40)
        x_cell = cells[int(rng.integers(len(cells)))]
        rep = checks.check_flat_subset_bound(n, 0.5, 1.0, cells, x_cell, 5e-3)
        assert rep.passed


def test_flat_tail_sum_matches_the_per_cell_loop():
    from fracgeo.inequalities.corpus import random_cell_union

    cases = [
        (n, alpha, h, checks.ball_cells(n, h, 1.0), np.zeros(n, dtype=int))
        for n, h in ((1, 1.0 / 200.0), (2, 1.0 / 24.0))
        for alpha in (0.25, 0.5, 0.75)
    ]
    rng = np.random.default_rng(61)
    for n in (1, 2):
        for k in range(5):
            cells = random_cell_union(rng, n, 60)
            x_cell = cells[int(rng.integers(len(cells)))]
            cases.append((n, (0.25, 0.5, 0.75)[k % 3], 1.0, cells, x_cell))
    for n, alpha, h, cells, x_cell in cases:
        got = checks.flat_tail_sum(n, alpha, h, cells, x_cell)
        ref = oracles.flat_tail_sum_per_cell(n, alpha, h, cells, x_cell)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# coarea


def test_coarea_indicator_exact():
    for name, res in (("ball2d", 200), ("ball3d", 80)):
        quad = surface_quadrature(load_fixture(name), res)
        subset = NodeSubset(quad, quad.points[:, -1] > 0.2)
        field = ScalarField.indicator(subset)
        rep = checks.check_coarea(field, s=0.5, rel_tolerance=1e-10)
        assert rep.passed
        assert rep.lhs == pytest.approx(frac_perimeter(subset, 0.5), rel=1e-10)


def test_coarea_smooth_field():
    quad = surface_quadrature(unit_disk(), 240)
    field = ScalarField(quad, quad.points[:, 0])
    rep = checks.check_coarea(field, s=0.5, rel_tolerance=0.02)
    assert rep.passed


def test_coarea_scales_linearly():
    quad = surface_quadrature(unit_disk(), 160)
    values = np.cos(np.arctan2(quad.points[:, 1], quad.points[:, 0]))
    one = checks.check_coarea(ScalarField(quad, values), 0.5)
    two = checks.check_coarea(ScalarField(quad, 2.0 * values), 0.5)
    assert two.lhs == pytest.approx(2.0 * one.lhs, rel=1e-12)
    assert two.rhs == pytest.approx(2.0 * one.rhs, rel=1e-12)


@pytest.mark.parametrize("name, res", [("ball2d", 160), ("cube", 192), ("ball3d", 320)])
def test_coarea_one_pass_matches_the_level_loop(name, res):
    quad = surface_quadrature(load_fixture(name), res)
    dense = oracles.dense_interaction_matrix(quad, quad.n + 0.5)
    rng = np.random.default_rng(7)
    fields = [quad.points[:, 0], np.exp(quad.points[:, -1]), rng.uniform(-1.0, 2.0, quad.node_count)]
    for values in fields:
        for levels in (16, 64, 128):
            rep = checks.check_coarea(ScalarField(quad, values), 0.5, levels=levels)
            want = oracles.coarea_level_sum(dense, values, levels)
            assert rep.rhs == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# dyadic slicing


def test_slicing_worked_example():
    seq = SlicingSequence(0, [1.0])
    params = Params(n=2, alpha=0.5, s=0.5, p=1.0)
    rep = checks.check_slicing_inequality(seq, params)
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0 ** (4.0 / 3.0), abs=1e-12)


def test_slicing_all_zero_sequence():
    seq = SlicingSequence(0, [0.0])
    rep = checks.check_slicing_inequality(seq, Params(n=2, alpha=0.5, s=0.5, p=1.0))
    assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0


def test_sequence_window_semantics():
    seq = SlicingSequence(-2, [4.0, 4.0, 1.0])
    assert seq.term(-10) == 4.0
    assert seq.term(-2) == 4.0
    assert seq.term(0) == 1.0
    assert seq.term(1) == 0.0
    assert seq.cutoff == 1


def test_sequence_validation():
    with pytest.raises(InvalidSequenceError):
        SlicingSequence(0, [1.0, 2.0])
    with pytest.raises(InvalidSequenceError):
        SlicingSequence(0, [-1.0])
    with pytest.raises(InvalidSequenceError):
        SlicingSequence(0, [])


def test_geometric_tail_closed_form():
    for p in (1.0, 1.5, 2.0):
        brute = sum(2.0 ** (p * i) for i in range(-200, 3))
        assert geometric_tail(p, 2) == pytest.approx(brute, rel=1e-12)


PARAM_GRID = [
    Params(n=n, alpha=0.5, s=s, p=p)
    for n in (1, 2)
    for s in (0.25, 0.5, 0.75)
    for p in (1.0, 1.5, 2.0)
    if n > s * p
]


@st.composite
def admissible_sequences(draw):
    start = draw(st.integers(-6, 6))
    length = draw(st.integers(1, 10))
    a0 = draw(st.floats(0.0, 50.0))
    factors = draw(
        st.lists(st.floats(0.0, 1.0), min_size=length - 1, max_size=length - 1)
    )
    values = [a0]
    for f in factors:
        values.append(values[-1] * f)
    return SlicingSequence(start, values)


@given(seq=admissible_sequences(), k=st.integers(0, len(PARAM_GRID) - 1))
@settings(deadline=None, max_examples=200)
def test_slicing_bound_property(seq, k):
    rep = checks.check_slicing_inequality(seq, PARAM_GRID[k])
    assert rep.passed


# ---------------------------------------------------------------------------
# Sobolev forms


def test_function_sobolev_zero_field():
    quad = surface_quadrature(unit_disk(), 120)
    field = ScalarField(quad, np.zeros(quad.node_count))
    params = Params(n=1, alpha=0.5, s=0.25, p=1.0)
    rep = checks.check_function_sobolev(
        field, params, 0.5, 1.0, np.ones(quad.node_count)
    )
    assert rep.passed and rep.lhs == 0.0


def test_function_sobolev_ones_reduces_to_integral_bound():
    disk = unit_disk()
    quad = surface_quadrature(disk, 180)
    alpha = s = 0.5
    params = Params(n=1, alpha=alpha, s=s, p=1.0)
    hvals = checks.halpha_at_nodes(quad, alpha)
    constant = oracles.pointwise_constant(1, alpha)
    f_rep = checks.check_function_sobolev(
        ScalarField(quad, np.ones(quad.node_count)), params, alpha, constant, hvals
    )
    i_rep = checks.check_integral_bound(disk, quad, alpha, s)
    assert f_rep.passed and i_rep.passed
    assert f_rep.details["energy_term"] == 0.0
    assert f_rep.lhs / f_rep.rhs == pytest.approx(i_rep.lhs / i_rep.rhs, rel=1e-6)


def test_set_sobolev_full_set_matches_function_form():
    disk = unit_disk()
    quad = surface_quadrature(disk, 180)
    alpha = s = 0.5
    params = Params(n=1, alpha=alpha, s=s, p=1.0)
    hvals = checks.halpha_at_nodes(quad, alpha)
    constant = oracles.pointwise_constant(1, alpha)
    full = NodeSubset(quad, np.ones(quad.node_count, dtype=bool))
    s_rep = checks.check_set_sobolev(quad, full, params, alpha, constant, hvals)
    assert s_rep.passed
    assert s_rep.details["perimeter_term"] == 0.0
    f_rep = checks.check_function_sobolev(
        ScalarField(quad, np.ones(quad.node_count)), params, alpha, constant, hvals
    )
    assert s_rep.lhs == pytest.approx(f_rep.lhs, rel=1e-12)
    assert s_rep.rhs == pytest.approx(f_rep.rhs, rel=1e-12)


def test_fit_constant_equals_rerunning_with_the_fitted_constant():
    from fracgeo.inequalities.reports import fit_constant

    rng = np.random.default_rng(5)
    quads = [
        surface_quadrature(body, 96)
        for body in (unit_disk(), regular_polygon(12), load_fixture("icosa"))
    ]
    runs = {}  # check -> [(args, keywords)], the constant passed by keyword
    for k, quad in enumerate(quads):
        body, alpha = quad.body, (0.25, 0.5, 0.75)[k]
        hvals = checks.halpha_at_nodes(quad, alpha)
        for s, p in ((0.5, 1.0), (0.25, 2.0)):
            xi = int(rng.integers(quad.node_count))
            subset = cap_subset(quad, xi, rng.uniform(0.3, 0.9) * body.diameter())
            bump = np.exp(-np.linalg.norm(quad.points - quad.points[xi], axis=1) ** 2)
            radius = rng.uniform(0.15, 0.45) * body.diameter()
            for check, args, kw in (
                (checks.check_reverse_isoperimetric, (body, quad, xi, radius), {}),
                (checks.check_pointwise_subset, (quad, subset, xi, alpha, s, p),
                 {"c_split": 0.7}),
                (checks.check_set_sobolev, (quad, subset, Params(body.n, s=s), alpha),
                 {"halpha_values": hvals}),
                (checks.check_function_sobolev,
                 (ScalarField(quad, bump), Params(body.n, s=s, p=p), alpha),
                 {"halpha_values": hvals}),
            ):
                runs.setdefault(check, []).append((args, kw))
    for check, calls in runs.items():
        fitted, c = fit_constant([check(*a, constant=1.0, **kw) for a, kw in calls])
        assert c > 0.0
        for rep, (a, kw) in zip(fitted, calls):
            again = check(*a, constant=c, **kw)
            for attr in ("lhs", "rhs", "margin", "passed", "constant_used"):
                assert getattr(rep, attr) == getattr(again, attr), (check, attr)
            assert rep.passed
    assert fit_constant([]) == ([], 0.0)


# ---------------------------------------------------------------------------
# classical integral geometry


def test_cauchy_formula_square():
    from fracgeo.quadrature import sphere_rule

    rep = checks.check_cauchy_formula(unit_square(), sphere_rule(1, 720), 1e-3 / 4.0)
    assert rep.passed
    assert rep.lhs == pytest.approx(4.0, abs=1e-3)


def test_cauchy_formula_cube():
    from fracgeo.quadrature import sphere_rule

    rep = checks.check_cauchy_formula(load_fixture("cube"), sphere_rule(2, 1280), 0.01)
    assert rep.passed
    assert rep.lhs == pytest.approx(6.0, rel=0.01)


def test_cauchy_formula_rotation_invariant():
    from fracgeo.quadrature import sphere_rule

    rule = sphere_rule(1, 720)
    values = []
    for phi in (0.0, 0.3, 1.1):
        c, s = np.cos(phi), np.sin(phi)
        verts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float) @ np.array(
            [[c, s], [-s, c]]
        )
        body = make_body({"type": "polygon", "vertices": verts.tolist()})
        values.append(checks.check_cauchy_formula(body, rule).lhs)
    assert np.ptp(values) < 1e-3 * 4.0


def test_diameter_bounds_square_and_ball():
    sq_rep = checks.check_rosenthal_szasz(unit_square())
    assert sq_rep.passed
    assert sq_rep.lhs == 4.0
    assert sq_rep.rhs == pytest.approx(np.pi * np.sqrt(2.0), rel=1e-12)
    ball_rep = checks.check_rosenthal_szasz(unit_disk())
    assert ball_rep.passed and abs(ball_rep.margin) < 1e-9 * ball_rep.rhs
    iso_sq = checks.check_isodiametric(unit_square())
    assert iso_sq.passed and iso_sq.rhs == pytest.approx(np.pi / 2.0, rel=1e-12)
    iso_ball = checks.check_isodiametric(Ball(3, np.zeros(3), 1.3))
    assert iso_ball.passed and abs(iso_ball.margin) < 1e-6 * iso_ball.rhs


def test_diameter_bounds_random_hulls():
    rng = np.random.default_rng(19)
    for _ in range(20):
        body = random_hull3d(rng)
        assert checks.check_rosenthal_szasz(body).passed
        assert checks.check_isodiametric(body).passed


# ---------------------------------------------------------------------------
# suite integration


def test_suite_sections_are_named():
    assert SUITE_SECTIONS == ("curvature", "localized", "functional", "classical")
    with pytest.raises(ValueError):
        run_suite("section5")


def test_suite_classical_section_passes_and_repeats():
    first = run_suite("classical", seed=0)
    second = run_suite("classical", seed=0)
    assert all(r.passed for r in first)
    assert [r.to_record() for r in first] == [r.to_record() for r in second]


def test_suite_curvature_section_passes():
    reports = run_suite("curvature", seed=3)
    assert len(reports) > 0
    assert all(r.passed for r in reports)
    assert all(r.constant_provenance != "none" or r.constant_used is None
               for r in reports)
