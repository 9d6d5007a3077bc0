import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import read_csv

import serieslab.integrators
import serieslab.scenario
from serieslab.cli import main
from serieslab.figures import (
    FIGURE_IDS,
    ORIENTATION_EPS,
    polyline_self_intersects,
    reproduce_figure,
)
from serieslab.integrators import lv_closed_orbit, reference_integrate, sample_series
from serieslab.models import make_model
from serieslab.scenario import _Runner, load_preset, run_scenario
from serieslab.series import generate_taylor_solution


def lv_case_v():
    return make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0])


def test_self_intersection_detects_a_crossing():
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    assert polyline_self_intersects(bowtie)


def test_self_intersection_negative_cases():
    line = np.column_stack([np.linspace(0, 1, 50), np.linspace(0, 2, 50)])
    assert not polyline_self_intersects(line)
    theta = np.linspace(0.0, 2 * np.pi, 200)
    almost_closed_circle = np.column_stack([np.cos(theta[:-1]), np.sin(theta[:-1])])
    assert not polyline_self_intersects(almost_closed_circle)
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    assert not polyline_self_intersects(square)


def test_points_rounded_off_one_line_never_cross():
    # back-and-forth walks along y = 7x/3: rounding 7x/3 puts every point a
    # little off the line, by more than the cross products' own rounding
    for seed in range(200):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-100.0, 100.0) + np.cumsum(rng.uniform(-1.0, 1.0, 80))
        assert not polyline_self_intersects(np.column_stack([x, 7.0 * x / 3.0]))


def test_self_intersection_input_validation():
    with pytest.raises(ValueError):
        polyline_self_intersects(np.zeros((4, 3)))


def brute_force_self_intersects(points, allowance=ORIENTATION_EPS) -> bool:
    """All-pairs oracle: every non-adjacent pair gets the cross-product
    test, with no bounding-box pruning.  An orientation within ``allowance``
    times max|coordinate| times (|v|_1 + |w|_1) has no side; with
    ``allowance=0`` this is the exact sign test, which rounding noise on
    near-collinear segments can fool."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0] - 1
    if n < 3:
        return False
    p = pts[:-1]
    q = pts[1:]
    d = q - p
    slack = allowance * np.max(np.abs(pts))

    def cross(v, w):
        c = v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]
        size = np.abs(v).sum(axis=-1) + np.abs(w).sum(axis=-1)
        return np.where(np.abs(c) > slack * size, c, 0.0)

    for i in range(0, n, 64):
        block = slice(i, min(i + 64, n))
        pi = p[block, None, :]
        di = d[block, None, :]
        d1 = cross(d[None, :, :], pi - p[None, :, :])
        d2 = cross(d[None, :, :], q[block, None, :] - p[None, :, :])
        d3 = cross(di, p[None, :, :] - pi)
        d4 = cross(di, q[None, :, :] - pi)
        hits = (d1 * d2 < 0) & (d3 * d4 < 0)
        idx_i = np.arange(i, min(i + 64, n))[:, None]
        idx_j = np.arange(n)[None, :]
        hits &= idx_j >= idx_i + 2
        if np.any(hits):
            return True
    return False


# Lattice coordinates (multiples of 1/8, below 2**8 in size) make every
# cross product exact, so touching and collinear segments give exact zeros
# and the rounding allowance never decides: there the pruned test must
# also agree with the exact sign test.  The float circles need the
# allowance: a circle wound past its start whose later vertices fall on
# earlier ones retraces its chords, which the exact sign test can read as
# crossings.
lattice_steps = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=399)


@st.composite
def polylines(draw):
    kind = draw(st.sampled_from(
        ["walk", "monotone", "monotone_return", "circle", "collinear", "grid"]))
    n = draw(st.integers(4, 400))
    if kind == "walk":
        steps = [(0, 0)] + draw(lattice_steps)
        return np.cumsum(np.array(steps, dtype=float), axis=0) / 8.0
    if kind in ("monotone", "monotone_return"):
        # strictly increasing x: a graph of a function never crosses itself,
        # so every block gets scanned; a final jump back may cross any block
        dx = draw(st.lists(st.integers(1, 3), min_size=n - 1, max_size=n - 1))
        y = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
        pts = np.column_stack([np.concatenate([[0], np.cumsum(dx)]), y]) / 8.0
        if kind == "monotone_return":
            back = draw(st.tuples(st.integers(0, int(pts[-1, 0] * 8)),
                                  st.integers(-8, 8)))
            pts = np.vstack([pts, np.array(back, dtype=float) / 8.0])
        return pts
    if kind == "circle":
        # closed (end on the start), almost closed, or wound past the start
        turns = draw(st.sampled_from([1.0, 0.99, 1.0 - 1.0 / n, 1.3]))
        theta = np.linspace(0.0, 2 * np.pi * turns, n)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if kind == "collinear":
        # back and forth along one lattice line: overlaps, no proper crossing
        k = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
        direction = np.array(draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)])))
        return np.outer(k, direction) / 8.0
    # a few grid nodes revisited many times: many shared vertices and touches
    cells = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=n, max_size=n))
    return np.array(cells, dtype=float)


@settings(max_examples=150, deadline=None)
@given(polylines())
def test_pruned_self_intersection_matches_brute_force(points):
    found = polyline_self_intersects(points)
    assert found == brute_force_self_intersects(points)
    if np.array_equal(points * 8.0, np.round(points * 8.0)):
        assert found == brute_force_self_intersects(points, allowance=0.0)


def test_retraced_circle_does_not_cross_itself():
    # 1.3 turns in 13 equal steps: vertices 10..13 land on vertices 0..3,
    # so the last chords retrace the first ones
    theta = np.linspace(0.0, 2 * np.pi * 1.3, 14)
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    assert not polyline_self_intersects(pts)


def test_self_intersection_finds_a_crossing_many_blocks_back():
    # a long simple graph, a detour below it, then one segment up across
    # its first block
    x = np.arange(300.0)
    pts = np.column_stack([x, np.sin(x)])
    pts = np.vstack([pts, [[299.0, -5.0], [2.5, -5.0], [2.5, 5.0]]])
    assert polyline_self_intersects(pts)
    assert brute_force_self_intersects(pts)


#: the period of lv_case_v, from 40-digit Taylor stepping in mpmath (orders
#: 40 and 50 at steps 0.05 and 0.03 agree in all 40 digits)
LV_CASE_V_PERIOD = 7.603020304425163


def test_orbit_period():
    period = lv_closed_orbit(lv_case_v())[0]
    assert abs(period - 7.603020304423) < 1e-9
    # the log-coordinate solve lands 1.97e-13 off; a solve in u at
    # rtol = atol = 1e-12 landed 2.66e-13 off
    assert abs(period / LV_CASE_V_PERIOD - 1.0) < 2.5e-13


@pytest.mark.parametrize("rates, start", [
    ((2.0, 0.5, 0.3, 1.7), (0.1, 1.0)),   # skewed rates, wide orbit
    ((1.0, 1.0, 1.0, 1.0), (3.0, 1.0)),   # on the level y = a/b, moving up
    ((1.0, 1.0, 1.0, 1.0), (0.5, 1.0)),   # on the level y = a/b, moving down
])
def test_orbit_period_returns_to_the_start(rates, start):
    a, b, c, d = rates
    model = make_model("lotka_volterra", dict(a=a, b=b, c=c, d=d), list(start))
    period = lv_closed_orbit(model)[0]
    end = reference_integrate(model, period, 1e-12, atol=1e-14).states[-1]
    assert np.max(np.abs(end - np.array(start))) < 1e-9


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
def test_orbit_period_near_the_center_tends_to_linear_period(eps):
    # small orbits around the center (c/d, a/b) have period 2*pi/sqrt(a*c),
    # up to a relative correction of order eps**2
    a, b, c, d = 2.0, 1.0, 0.5, 1.0
    model = make_model("lotka_volterra", dict(a=a, b=b, c=c, d=d),
                       [c / d * (1 + eps), a / b])
    linear = 2 * math.pi / math.sqrt(a * c)
    assert abs(lv_closed_orbit(model)[0] - linear) / linear < eps**2


def test_orbit_period_rejects_the_center():
    model = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [1.0, 1.0])
    with pytest.raises(ValueError, match="stationary center"):
        lv_closed_orbit(model)


@pytest.mark.parametrize("start", [(3.0, 0.0), (0.0, 2.0), (0.0, 0.0)])
def test_orbit_period_rejects_an_axis_start_before_solving(monkeypatch, start):
    def no_solve(*args, **kwargs):
        raise AssertionError("an axis start must be rejected before any solve")

    monkeypatch.setattr(scipy.integrate, "solve_ivp", no_solve)
    model = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), list(start))
    with pytest.raises(ValueError, match="on an axis"):
        lv_closed_orbit(model)


def test_orbit_period_requires_lv():
    with pytest.raises(ValueError):
        lv_closed_orbit(make_model("sir", dict(beta=1.0, gamma=1.0), [20, 4, 10]))


def test_series_phase_curve_crosses_itself():
    model = lv_case_v()
    grid = np.linspace(0.0, 6.0, 601)
    tr = sample_series(generate_taylor_solution(model, 5), grid)
    assert polyline_self_intersects(tr.states)


def test_exact_orbit_does_not_cross_itself():
    period, orbit = lv_closed_orbit(lv_case_v())
    assert orbit.times.size == 1200
    assert orbit.times[-1] == pytest.approx(0.999 * period, rel=1e-15)
    assert not polyline_self_intersects(orbit.states)


def test_closed_orbit_matches_a_log_coordinate_solve():
    # the orbit is read from the period solve's dense output; an
    # independent solve in w = ln u at the tightest tolerance measured
    # 2.7e-11 relative from it
    _, orbit = lv_closed_orbit(lv_case_v())
    reference = reference_integrate(lv_case_v(), orbit.times[-1], 1e-13,
                                    grid=orbit.times)
    assert reference.meta["coordinates"] == "log"
    assert np.max(np.abs(orbit.states / reference.states - 1.0)) < 1e-9


def test_reproduce_fig1(tmp_path):
    files = reproduce_figure("fig1", tmp_path, fmt="both")
    names = sorted(f.name for f in files)
    assert names == ["fig1_populations.csv", "fig1_populations.svg"]
    data = read_csv(tmp_path / "fig1_populations.csv")
    # the series prey count goes negative inside the window, truth never does
    assert np.min(data["x_series"]) < 0
    assert np.min(data["x_exact"]) > 0
    assert np.min(data["y_exact"]) > 0


def test_reproduce_fig2(tmp_path):
    files = reproduce_figure("fig2", tmp_path, fmt="csv")
    names = sorted(f.name for f in files)
    assert names == ["fig2_orbit_exact.csv", "fig2_orbit_series.csv"]
    # 12 significant digits of LV_CASE_V_PERIOD
    header = (tmp_path / "fig2_orbit_exact.csv").read_text().splitlines()
    assert "# period=7.60302030443" in header
    orbit = read_csv(tmp_path / "fig2_orbit_exact.csv")
    series = read_csv(tmp_path / "fig2_orbit_series.csv")
    assert not polyline_self_intersects(np.column_stack([orbit["x"], orbit["y"]]))
    assert polyline_self_intersects(np.column_stack([series["x"], series["y"]]))


def test_reproduce_epidemic_figures(tmp_path):
    for fig, stem in (("fig3", "fig3"), ("fig4", "fig4")):
        files = reproduce_figure(fig, tmp_path, fmt="both")
        names = sorted(f.name for f in files)
        assert names == [f"{stem}_curves.svg", f"{stem}_exact_curves.csv",
                         f"{stem}_series_vs_exact.csv"]
        exact = read_csv(tmp_path / f"{stem}_exact_curves.csv")
        # exact curves stay inside the population simplex
        total = exact["x"] + exact["y_exact"] + exact["z_exact"]
        assert np.max(np.abs(total - total[0])) < 1e-9


def data_cells(path):
    """The data cells of one CSV artifact as written, row by row."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def test_figures_are_views_of_their_presets(tmp_path):
    for name in ("lv-crash", "lv-orbit", "sir-slow", "sir-fast"):
        run_scenario(load_preset(name), tmp_path, fmt="csv")
    for fig_id in FIGURE_IDS:
        reproduce_figure(fig_id, tmp_path / fig_id, fmt="csv")
    # fig1: the lv-crash reference and series, side by side
    reference = data_cells(tmp_path / "lv-crash" / "reference.csv")
    series = data_cells(tmp_path / "lv-crash" / "series.csv")
    assert len(series) == 501
    assert data_cells(tmp_path / "fig1" / "fig1_populations.csv") == [
        ref + ser[1:] for ref, ser in zip(reference, series, strict=True)]
    # fig2: the lv-orbit series
    assert (data_cells(tmp_path / "fig2" / "fig2_orbit_series.csv")
            == data_cells(tmp_path / "lv-orbit" / "series.csv"))
    # fig3, fig4: x, y_series and z_series are the epidemic series
    for fig_id, name in (("fig3", "sir-slow"), ("fig4", "sir-fast")):
        rows = data_cells(tmp_path / fig_id / f"{fig_id}_series_vs_exact.csv")
        series = data_cells(tmp_path / name / "series.csv")
        assert [[row[0], row[3], row[4]] for row in rows] == [
            row[1:] for row in series]


def test_fig2_draws_the_orbit_of_its_presets_runner(tmp_path):
    # one orbit, computed by the preset's runner, serves fig2 and the
    # lv-orbit phase_plane rows
    reproduce_figure("fig2", tmp_path, fmt="csv")
    period, orbit = _Runner(load_preset("lv-orbit")).orbit
    path = tmp_path / "fig2_orbit_exact.csv"
    assert f"# period={period:.12g}" in path.read_text().splitlines()
    assert data_cells(path) == [
        [repr(v) for v in row]
        for row in np.column_stack([orbit.times, orbit.states]).tolist()]


def test_a_figure_follows_its_preset(tmp_path, monkeypatch):
    load = serieslab.scenario.load_preset
    monkeypatch.setattr(
        serieslab.scenario, "load_preset",
        lambda name: replace(load(name), t_end=2.5, samples=251, series_order=3))
    reproduce_figure("fig1", tmp_path, fmt="csv")
    path = tmp_path / "fig1_populations.csv"
    assert "# series_order=3" in path.read_text().splitlines()
    data = read_csv(path)
    assert np.array_equal(data["t"], np.linspace(0.0, 2.5, 251))


@pytest.mark.parametrize("fig_id, solves", [
    ("fig1", 1),   # the reference populations
    ("fig2", 1),   # lv_closed_orbit: the period, with the orbit read from it
    ("fig3", 0),
    ("fig4", 0),
])
def test_a_figure_makes_only_the_solves_it_draws(fig_id, solves, tmp_path,
                                                 monkeypatch, capsys):
    calls = []
    solve_ivp = scipy.integrate.solve_ivp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "solve_ivp", counted)
    monkeypatch.setattr(serieslab.integrators, "solve_ivp", counted)
    assert main(["figure", fig_id, "--out", str(tmp_path)]) == 0
    assert len(calls) == solves


def test_reproduce_figure_rejects_unknown():
    with pytest.raises(ValueError):
        reproduce_figure("fig9", ".")
    with pytest.raises(ValueError):
        reproduce_figure("fig1", ".", fmt="png")
