"""Marker flow: discrete geometry, evaluator parity, runs, audits, export."""

import importlib

import numpy as np
import pytest

from fracgeo.fixtures import load_fixture
from fracgeo.geometry import Ball, GeometryError, _signed_area, make_body
from fracgeo.flow import (
    TURN_TOLERANCE,
    FlowOptions,
    FlowState,
    FlowTrace,
    MaxStepsExceededError,
    TraceTooShortError,
    _MarkerEvaluator,
    check_decay_and_bounds,
    check_first_variation,
    classical_curvature,
    flow,
    marker_frame,
    resample_equal_arclength,
    sample_boundary,
)
from fracgeo.inequalities.corpus import random_ellipse_polygon, regular_polygon

import oracles


ALPHA = 0.5
# the module, which the package's `flow` function shadows as an attribute
FLOW_MODULE = importlib.import_module("fracgeo.flow")


def circle_markers(count, radius=1.0):
    t = 2.0 * np.pi * np.arange(count) / count
    return radius * np.stack([np.cos(t), np.sin(t)], axis=1)


def unit_square():
    return make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    )


@pytest.fixture(scope="module")
def circle_trace():
    return flow(Ball(2, np.zeros(2), 1.0), ALPHA, FlowOptions(markers=96))


@pytest.fixture(scope="module")
def square_trace():
    return flow(unit_square(), ALPHA, FlowOptions(markers=64))


@pytest.fixture(scope="module")
def rect_trace():
    thin = make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 0.05], [0, 0.05]]}
    )
    return flow(thin, ALPHA, FlowOptions(markers=64))


# ---------------------------------------------------------------------------
# discrete marker geometry


def test_classical_curvature_circle_limit():
    kappa = classical_curvature(circle_markers(256, radius=2.0))
    assert np.allclose(kappa, 0.5, rtol=0.01)


def test_turning_angles_sum_to_full_turn():
    for markers in (circle_markers(48), sample_boundary(unit_square(), 32)):
        _, _, turns, _, duals, lengths = marker_frame(markers)
        assert abs(turns.sum() - 2.0 * np.pi) < 1e-12
        assert duals.sum() == pytest.approx(lengths.sum(), rel=1e-12)


def test_classical_curvature_scaling_exact():
    markers = circle_markers(64, radius=1.3)
    assert np.array_equal(
        classical_curvature(2.0 * markers), classical_curvature(markers) / 2.0
    )


def test_marker_frame_square_normals_and_turns():
    markers = sample_boundary(unit_square(), 16)
    _, normals, turns, _, _, _ = marker_frame(markers)
    bottom = np.where(
        (np.abs(markers[:, 1]) < 1e-12) & (markers[:, 0] > 0.1)
    )[0][0]
    assert np.allclose(normals[bottom], [0.0, -1.0], atol=1e-12)
    corner_turns = turns[np.abs(turns) > 1e-9]
    assert len(corner_turns) == 4
    assert np.allclose(corner_turns, np.pi / 2.0, atol=1e-12)


def test_sample_boundary_circle_and_square():
    mk = sample_boundary(Ball(2, np.zeros(2), 2.0), 32)
    assert mk.shape == (32, 2)
    assert np.allclose(np.linalg.norm(mk, axis=1), 2.0, atol=1e-12)
    sq = sample_boundary(unit_square(), 19)
    assert len(sq) == 19
    for v in [[0, 0], [1, 0], [1, 1], [0, 1]]:
        assert np.min(np.linalg.norm(sq - np.array(v, float), axis=1)) < 1e-12


def test_sample_boundary_allocates_by_length():
    rect = make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 0.05], [0, 0.05]]}
    )
    mk = sample_boundary(rect, 64)
    assert len(mk) == 64
    on_long = np.sum((np.abs(mk[:, 1]) < 1e-12) | (np.abs(mk[:, 1] - 0.05) < 1e-12))
    assert on_long >= 56


def test_sample_boundary_rejects_bad_input():
    with pytest.raises(GeometryError):
        sample_boundary(unit_square(), 3)
    with pytest.raises(GeometryError):
        sample_boundary(Ball(3, np.zeros(3), 1.0), 32)


def test_resample_stays_on_polyline_with_equal_arcs():
    markers = sample_boundary(unit_square(), 64)
    out = resample_equal_arclength(markers, 48)
    assert out.shape == (48, 2)
    assert np.allclose(out[0], markers[0], atol=1e-12)
    # every resampled point still lies on the square's boundary
    on_edge = (
        (np.abs(out[:, 0]) < 1e-9) | (np.abs(out[:, 0] - 1.0) < 1e-9)
        | (np.abs(out[:, 1]) < 1e-9) | (np.abs(out[:, 1] - 1.0) < 1e-9)
    )
    assert on_edge.all()
    closed = np.concatenate([out, out[:1]])
    seg = np.linalg.norm(np.diff(closed, axis=0), axis=1)
    assert seg.sum() == pytest.approx(4.0, rel=1e-9)


# ---------------------------------------------------------------------------
# per-marker curvature


def evaluate(markers, alpha):
    return _MarkerEvaluator(alpha, len(markers))(markers)[0]


def test_marker_halpha_circle_uniform_and_accurate():
    values = evaluate(circle_markers(256), ALPHA)
    assert np.ptp(values) < 1e-9 * values.mean()
    assert values.mean() == pytest.approx(oracles.disk_halpha(ALPHA), rel=0.01)


def test_marker_halpha_scaling():
    markers = circle_markers(96, radius=1.1)
    ratio = evaluate(2.0 * markers, ALPHA) / evaluate(markers, ALPHA)
    assert np.allclose(ratio, 2.0 ** (-ALPHA), rtol=1e-12)


def test_square_corners_move_faster_than_edges():
    markers = sample_boundary(unit_square(), 64)
    values = evaluate(markers, ALPHA)
    corner = np.where(np.all(np.abs(markers) < 1e-12, axis=1))[0][0]
    mid = int(np.argmin(np.abs(markers[:, 0] - 0.5) + np.abs(markers[:, 1])))
    assert values[corner] > 2.0 * values[mid]
    assert int(np.argmax(values)) in np.where(
        np.abs(classical_curvature(markers)) > 1e-9
    )[0]


def test_slab_midpoint_matches_closed_form():
    rect = make_body(
        {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 0.05], [0, 0.05]]}
    )
    markers = sample_boundary(rect, 64)
    values = evaluate(markers, ALPHA)
    mid = int(np.argmin(np.abs(markers[:, 0] - 0.5) + np.abs(markers[:, 1])))
    slab = oracles.sin_power_integral(-ALPHA) * 0.05 ** (-ALPHA)
    assert values[mid] == pytest.approx(slab, rel=0.02)


MARKER_SETS = (
    circle_markers(8),  # the fewest markers a flow accepts
    circle_markers(64, radius=1.3),
    circle_markers(256),  # every marker has the same gap
    sample_boundary(unit_square(), 64),
    sample_boundary(regular_polygon(11, 0.8, phase=0.3), 48),
    sample_boundary(load_fixture("thinrect"), 64),  # collinear: no gap
)


# the five flows the flow benchmark times: (body, alpha, markers); the step
# limiter stays active on the disk at alpha 0.75
PLANAR_FLOWS = (
    (load_fixture("ball2d"), 0.5, 64),
    (load_fixture("ball2d"), 0.75, 80),
    (load_fixture("square"), 0.5, 64),
    (load_fixture("thinrect"), 0.5, 64),
    (random_ellipse_polygon(np.random.default_rng([0, 2])), 0.5, 64),
)


def test_evaluator_matches_reference():
    for alpha in (0.1, 0.5, 0.75, 0.9):
        for markers in MARKER_SETS:
            ref = oracles.marker_halpha_exact(markers, alpha)
            got = evaluate(markers, alpha)
            assert np.abs(got - ref).max() < 1e-12 * ref.max()


def test_evaluator_given_the_frame_is_bit_identical():
    for alpha in (0.1, 0.75):
        for markers in MARKER_SETS:
            ev = _MarkerEvaluator(alpha, len(markers))
            given = ev(markers, marker_frame(markers))
            assert all(np.array_equal(a, b) for a, b in zip(given, ev(markers)))


def test_evaluator_matches_the_exact_marker_model():
    # across the whole range of alpha, on the initial markers of the
    # benchmarked flows too; worst seen 5.4e-15
    starts = [sample_boundary(body, count) for body, _, count in PLANAR_FLOWS]
    for alpha in (0.001, 0.05, 0.5, 0.95, 0.999):
        for markers in (*MARKER_SETS, *starts):
            exact = oracles.marker_halpha_exact(markers, alpha)
            got = evaluate(markers, alpha)
            assert np.abs(got - exact).max() < 1e-12 * exact.max()


def _arrays(ev):
    """The evaluator's arrays, by attribute name."""
    return {name: a for name, a in vars(ev).items() if isinstance(a, np.ndarray)}


def test_evaluator_results_do_not_alias_its_workspace():
    markers = sample_boundary(unit_square(), 64)
    ev = _MarkerEvaluator(ALPHA, 64)
    results = ev(markers)
    kept = [r.copy() for r in results]
    for r in results:
        assert not any(np.shares_memory(r, a) for a in _arrays(ev).values())
    ev(circle_markers(64))
    ev(markers * 1.5)
    assert all(np.array_equal(r, k) for r, k in zip(results, kept))


def test_warm_evaluator_allocates_no_new_buffer():
    for count in (64, 256):
        markers = sample_boundary(unit_square(), count)
        ev = _MarkerEvaluator(ALPHA, count)
        # the edge ring with its view and every work array are built with the
        # evaluator; cells has one row per edge a marker counts
        addresses = {name: a.ctypes.data for name, a in _arrays(ev).items()}
        assert {"ring", "cells", "offset", "along", "elevation", "terms", "reach"} <= set(addresses)
        assert ev.cells.shape == (count - 2, 5, count)
        assert np.shares_memory(ev.cells, ev.ring)
        for again in (markers, 0.5 * markers, circle_markers(count)):
            ev(again)
            assert {name: a.ctypes.data for name, a in _arrays(ev).items()} == addresses


@pytest.fixture(scope="module")
def planar_runs():
    """The benchmarked flows' traces, each with the (evaluator, marker count)
    of every evaluator call it made."""
    runs = []
    call = _MarkerEvaluator.__call__
    for body, alpha, count in PLANAR_FLOWS:
        seen = []

        def watched(self, markers, frame=None):
            seen.append((id(self), len(markers)))
            return call(self, markers, frame)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_MarkerEvaluator, "__call__", watched)
            runs.append((flow(body, alpha, FlowOptions(markers=count)), count, seen))
    return runs


def test_each_flow_evaluates_one_marker_count(planar_runs):
    # re-hulls are resampled back to the run's count before the next evaluation
    rehulls = 0
    for trace, count, seen in planar_runs:
        assert trace.ending == "extinct" and len(seen) >= len(trace.states)
        assert len({ident for ident, _ in seen}) == 1
        assert {m for _, m in seen} == {count}
        rehulls += len(trace.rehull_steps)
    # a re-hull drops markers; the limiter-active disk alone re-hulls on most steps
    assert rehulls > 100


def test_benchmarked_flows_follow_the_exact_marker_model(planar_runs):
    # every 4th state, resampled, re-hulled and late states among them
    for trace, _, _ in planar_runs:
        for state in trace.states[::4]:
            exact = oracles.marker_halpha_exact(state.markers, trace.alpha)
            assert np.abs(state.halpha - exact).max() < 1e-11 * exact.max()


@pytest.mark.parametrize("name", ["ball2d", "square"])
def test_flow_records_the_curvature_of_its_markers(name, monkeypatch):
    # the square's resamples move its markers; the disk's barely do
    monkeypatch.setattr(FLOW_MODULE, "EPS_EXTINCT", 0.3)
    trace = flow(load_fixture(name), ALPHA, FlowOptions(markers=64))
    after_resample = trace.resampled_steps[0]
    last = len(trace.states) - 1
    picks = {1, 2, after_resample, after_resample + 1, last // 2, last}
    for k in sorted(picks):
        state = trace.states[k]
        ref = oracles.marker_halpha_exact(state.markers, ALPHA)
        assert np.abs(state.halpha - ref).max() < 1e-12 * ref.max()


# ---------------------------------------------------------------------------
# full runs


def _folded(markers):
    """The flow's test for a front it must not correct with: a dent past the
    turn tolerance, markers that marker_frame rejects, or no enclosed area."""
    try:
        turns = marker_frame(markers)[2]
    except GeometryError:
        return True
    return turns.min() < -TURN_TOLERANCE or _signed_area(markers) <= 0.0


@pytest.fixture(scope="module")
def limiter_run():
    # the step limiter stays active on this run and most predictions fold
    calls = []
    call = _MarkerEvaluator.__call__

    def watched(self, markers, frame=None):
        calls.append(_folded(markers))
        return call(self, markers, frame)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_MarkerEvaluator, "__call__", watched)
        trace = flow(load_fixture("ball2d"), 0.75, FlowOptions(markers=80))
    return trace, calls


def test_no_folded_front_reaches_the_evaluator(limiter_run):
    trace, calls = limiter_run
    assert trace.ending == "extinct"
    assert not any(calls)


def test_folded_predictions_skip_the_chord_sums(limiter_run):
    trace, calls = limiter_run
    # the prediction of every state but the last, from its recorded speed
    folds = []
    for k, state in enumerate(trace.states[:-1]):
        bis = marker_frame(state.markers)[3]
        if _folded(state.markers - state.dt * state.halpha[:, None] * bis):
            folds.append(k + 1)
    assert trace.fallback_steps == folds
    assert len(folds) > len(trace.states) // 2
    kept = len(trace.states) - 1 - len(folds)
    assert len(calls) == len(trace.states) + kept


def test_circle_run_hits_oracle_extinction_time(circle_trace):
    target = oracles.circle_extinction_time(ALPHA, 1.0)
    assert circle_trace.ending == "extinct"
    assert circle_trace.t_star_num == pytest.approx(target, rel=0.02)
    assert circle_trace.rehull_steps == []


def test_circle_run_state_invariants(circle_trace):
    states = circle_trace.states
    t = np.array([s.t for s in states])
    p = np.array([s.perimeter for s in states])
    a = np.array([s.area for s in states])
    assert np.all(np.diff(t) > 0.0)
    assert np.all(np.diff(p) < 0.0)
    assert np.all(np.diff(a) < 0.0)
    for s in states[:: max(1, len(states) // 12)]:
        _, _, turns, _, _, _ = marker_frame(s.markers)
        assert turns.min() > -1e-7
        assert s.halpha.min() > 0.0
        # rotational symmetry: one shrinking circle, uniform speed
        assert np.ptp(s.halpha) < 0.01 * s.halpha.mean()


def test_circle_first_variation_tight(circle_trace):
    rep = check_first_variation(circle_trace)
    assert rep.passed
    assert abs(rep.lhs - rep.rhs) < 5e-3 * abs(rep.rhs)
    assert rep.lhs < 0.0


def test_circle_decay_audit(circle_trace):
    rep = check_decay_and_bounds(circle_trace)
    assert rep.passed
    assert rep.details["perimeter_monotone"]
    assert rep.details["median_slope"] < 0.0
    first = circle_trace.states[0]
    assert rep.details["t_star_over_perimeter_power"] == pytest.approx(
        circle_trace.t_star_num / first.perimeter ** (1.0 + ALPHA), rel=1e-12
    )


@pytest.mark.parametrize("alpha", [0.001, 0.999])
def test_disk_flows_to_extinction_at_the_ends_of_the_alpha_range(alpha):
    trace = flow(load_fixture("ball2d"), alpha, FlowOptions(markers=32))
    assert trace.ending == "extinct"
    assert all(np.isfinite(s.halpha).all() for s in trace.states)
    assert np.isfinite(trace.t_star_num)


def test_extinction_scaling_is_exact():
    ts = {}
    for lam in (0.5, 1.0, 2.0):
        tr = flow(Ball(2, np.zeros(2), lam), ALPHA, FlowOptions(markers=48))
        ts[lam] = tr.t_star_num
    assert ts[2.0] / ts[1.0] == pytest.approx(2.0 ** (1.0 + ALPHA), rel=1e-9)
    assert ts[0.5] / ts[1.0] == pytest.approx(0.5 ** (1.0 + ALPHA), rel=1e-9)
    fit = oracles.fit_exponent([0.5, 1.0, 2.0], [ts[0.5], ts[1.0], ts[2.0]])
    assert fit == pytest.approx(1.0 + ALPHA, abs=1e-6)


def test_clockwise_input_gives_the_same_run():
    mk = circle_markers(32)
    fwd = flow(mk, ALPHA, FlowOptions(markers=32))
    rev = flow(mk[::-1].copy(), ALPHA, FlowOptions(markers=32))
    assert fwd.t_star_num == rev.t_star_num


def test_square_run_audit(square_trace):
    assert square_trace.ending == "extinct"
    assert square_trace.t_star_num == pytest.approx(0.074056, rel=0.03)
    p = np.array([s.perimeter for s in square_trace.states])
    assert np.all(np.diff(p) < 0.0)
    fv = check_first_variation(square_trace)
    assert fv.passed
    dec = check_decay_and_bounds(square_trace)
    assert dec.passed


def test_thin_rectangle_collapses_on_the_slab_clock(rect_trace):
    assert rect_trace.ending == "extinct"
    target = oracles.slab_collapse_time(ALPHA, 0.05)
    assert rect_trace.t_star_num == pytest.approx(target, rel=0.10)
    p = np.array([s.perimeter for s in rect_trace.states])
    assert p.max() == p[0]
    rep = check_decay_and_bounds(rect_trace, slope_floor=0.0)
    assert rep.passed and rep.details["perimeter_monotone"]


def test_perimeter_bound_ratio_more_stable_than_diameter_ratio(
    square_trace, rect_trace
):
    sq = check_decay_and_bounds(square_trace).details
    re = check_decay_and_bounds(rect_trace, slope_floor=0.0).details
    spread_p = sq["t_star_over_perimeter_power"] / re["t_star_over_perimeter_power"]
    spread_d = sq["t_star_over_diameter_power"] / re["t_star_over_diameter_power"]
    assert spread_p > 1.0 and spread_d > 1.0
    assert spread_p < spread_d


def test_time_reversed_trace_flips_the_rate_sign(square_trace):
    total = square_trace.states[-1].t
    reversed_states = [
        FlowState(total - s.t, s.markers, s.perimeter, s.area, s.halpha, s.dt)
        for s in reversed(square_trace.states)
    ]
    mirror = FlowTrace(
        alpha=square_trace.alpha,
        options=square_trace.options,
        states=reversed_states,
        ending="extinct",
    )
    rep = check_first_variation(mirror)
    assert not rep.passed
    assert rep.lhs > 0.0 > rep.rhs


# ---------------------------------------------------------------------------
# option validation and failure modes


def test_flow_options_validation():
    with pytest.raises(GeometryError):
        FlowOptions(markers=4)


def test_flow_rejects_bad_initial_data():
    with pytest.raises(GeometryError):
        flow(circle_markers(32), 1.5)
    with pytest.raises(GeometryError):
        flow(np.zeros((5, 2)), ALPHA)
    dented = circle_markers(32)
    dented[3] *= 0.2
    with pytest.raises(GeometryError, match="convex"):
        flow(dented, ALPHA, FlowOptions(markers=32))
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = circle_markers(32)
        poisoned[5, 1] = bad
        with pytest.raises(GeometryError, match="finite"):
            flow(poisoned, ALPHA, FlowOptions(markers=32))


def test_flow_raises_when_step_budget_runs_out(monkeypatch):
    monkeypatch.setattr(FLOW_MODULE, "MAX_STEPS", 3)
    with pytest.raises(MaxStepsExceededError):
        flow(Ball(2, np.zeros(2), 1.0), ALPHA, FlowOptions(markers=32))


def test_marker_array_flow_keeps_its_marker_count():
    # the default options sample bodies with 256 markers; an array keeps its 32
    trace = flow(circle_markers(32), ALPHA)
    assert trace.ending == "extinct" and trace.resampled_steps
    assert {len(s.markers) for s in trace.states} == {32}


def test_extinction_estimate_needs_a_decaying_tail():
    opts = FlowOptions(markers=32)
    short = FlowTrace(alpha=ALPHA, options=opts, states=[
        FlowState(0.1 * k, circle_markers(32), 6.0, 2.8, np.ones(32), 0.1)
        for k in range(5)
    ])
    with pytest.raises(TraceTooShortError):
        short.extinction_estimate()
    growing = FlowTrace(alpha=ALPHA, options=opts, states=[
        FlowState(0.1 * k, circle_markers(32), 6.0 + k, 2.8, np.ones(32), 0.1)
        for k in range(8)
    ])
    with pytest.raises(TraceTooShortError):
        growing.extinction_estimate()


# ---------------------------------------------------------------------------
# export


def test_trace_csv_export(tmp_path, circle_trace):
    from fracgeo.flow import write_trace_csv

    path = tmp_path / "trace.csv"
    write_trace_csv(circle_trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,t,perimeter,area,dt,h_min,h_max"
    assert len(lines) == len(circle_trace.states) + 1
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(2.0 * np.pi, rel=1e-3)


def test_snapshot_svg_export(tmp_path, circle_trace):
    from fracgeo.flow import write_snapshot_svg

    path = tmp_path / "fronts.svg"
    write_snapshot_svg(circle_trace, path)
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 8
