"""The four demonstration figures, plus the geometry behind them.

Each figure draws one bundled preset (``_FIGURES``), contrasting its
truncated power-series solution with ground truth on a window wide enough
to expose the series failure: populations that go negative, a phase-plane
curve that crosses itself (impossible for a true orbit), and epidemic
curves that never reach the endpoint region.  A builder returns its CSV
tables and its plot; ``artifact_writer``, the one reader of ``--format``,
writes them, for the figures and for ``scenario.run_scenario`` alike.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

import numpy as np

from .csvout import write_csv
from .exact import sir_curves, sir_endpoints
from .svgplot import LinePlot

#: read only by bench/workloads.py's min_radius_along_path, as the atol
#: of its reference solves; a change to the benchmark can delete it
DEEP_DECAY_ATOL = 1e-140

#: an orientation (a cross product of point differences) has a side only
#: beyond this share of its error scale (see polyline_self_intersects)
ORIENTATION_EPS = 8 * np.finfo(float).eps


def polyline_self_intersects(points) -> bool:
    """True if any two non-adjacent segments of the polyline cross properly.

    Shared endpoints and tangential touches do not count, so a closed or
    almost-closed simple curve stays negative.  Nor do orientations within
    the rounding error of the pair's four points and of the arithmetic, so
    points rounded off one straight line never cross.  A non-finite point
    breaks the curve, as ``LinePlot`` draws it: no segment ending there
    crosses anything.  Segments are tested in blocks of 64 against the
    later segments whose bounding boxes meet the block's box (a proper
    crossing needs that overlap), so a curve that does not fold back on
    itself costs close to linear time; the worst case stays quadratic in
    the number of points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be an (n, 2) array")
    n = pts.shape[0] - 1
    if n < 3:
        return False
    # one array per coordinate, so that nothing reduces over an axis of
    # length 2; a non-finite point is moved to 0 and its segments dropped
    x, y = pts[:, 0], pts[:, 1]
    finite = np.isfinite(x) & np.isfinite(y)
    x, y = np.where(finite, x, 0.0), np.where(finite, y, 0.0)
    drawn = finite[:-1] & finite[1:]
    px, py, qx, qy = x[:-1], y[:-1], x[1:], y[1:]
    lox, loy = np.minimum(px, qx), np.minimum(py, qy)
    hix, hiy = np.maximum(px, qx), np.maximum(py, qy)
    big = np.maximum(np.maximum(-lox, hix), np.maximum(-loy, hiy))

    # The points carry rounding of their own, up to eps/2 of the pair's
    # largest coordinate m, so a difference of two is off by at most 2 eps m
    # per coordinate, and the cross product of two differences v, w, with
    # its own rounding, by at most 4 eps m (|v|_1 + |w|_1).  An orientation
    # inside twice that bound is taken as 0: no side.
    def orientation(vx, vy, wx, wy, slack):
        c = vx * wy - vy * wx
        size = (np.abs(vx) + np.abs(vy)) + (np.abs(wx) + np.abs(wy))
        return np.where(np.abs(c) > slack * size, c, 0.0)

    for i in range(0, n, 64):
        block = slice(i, min(i + 64, n))
        # candidate partners: strictly later, non-adjacent, drawn segments
        # whose boxes meet the block's box
        near = ((lox[i + 2:] <= hix[block].max()) & (loy[i + 2:] <= hiy[block].max())
                & (hix[i + 2:] >= lox[block].min()) & (hiy[i + 2:] >= loy[block].min())
                & drawn[i + 2:])
        j = np.flatnonzero(near) + (i + 2)
        if j.size == 0:
            continue
        # each pair scaled by the power of two that takes its m into
        # [0.5, 1): exact, and no difference or product can overflow
        m, exponent = np.frexp(np.maximum(big[block, None], big[j]))
        e, slack = -exponent, ORIENTATION_EPS * m
        pix, piy = np.ldexp(px[block, None], e), np.ldexp(py[block, None], e)
        qix, qiy = np.ldexp(qx[block, None], e), np.ldexp(qy[block, None], e)
        pjx, pjy, qjx, qjy = (np.ldexp(v[j], e) for v in (px, py, qx, qy))
        djx, djy, dix, diy = qjx - pjx, qjy - pjy, qix - pix, qiy - piy
        d1 = orientation(djx, djy, pix - pjx, piy - pjy, slack)
        d2 = orientation(djx, djy, qix - pjx, qiy - pjy, slack)
        d3 = orientation(dix, diy, pjx - pix, pjy - piy, slack)
        d4 = orientation(dix, diy, qjx - pix, qjy - piy, slack)
        hits = (d1 * d2 < 0) & (d3 * d4 < 0)
        hits &= j[None, :] >= np.arange(i, block.stop)[:, None] + 2
        hits &= drawn[block, None]
        if np.any(hits):
            return True
    return False


def _params(config, start: bool) -> str:
    """A figure's ``params`` line: the preset's rates, then its start."""
    rates = " ".join(f"{key}={value:g}" for key, value in config.params.items())
    if not start:
        return rates
    return f"{rates}, start ({', '.join(f'{v:g}' for v in config.initial_state)})"


def _fig1(runner):
    # prey-predator populations against time; the series sends the prey
    # count negative within the window while the true count stays > 0
    config, grid = runner.config, runner.grid
    ser, ref = runner.series_tr, runner.reference_tr
    order = config.series_order
    tables = [("fig1_populations.csv",
               ["t", "x_exact", "y_exact", "x_series", "y_series"],
               np.column_stack([grid, ref.states, ser.states]),
               {"figure": "prey and predator populations against time",
                "params": _params(config, start=True),
                "series_order": order})]
    plot = LinePlot(f"Populations: truth against order-{order} series",
                    "t", "population")
    plot.add_curve(grid, ref.states[:, 0], "prey (exact)", "#1f77b4")
    plot.add_curve(grid, ref.states[:, 1], "predator (exact)", "#2ca02c")
    plot.add_curve(grid, ser.states[:, 0], "prey (series)", "#d62728", dash="6,3")
    plot.add_curve(grid, ser.states[:, 1], "predator (series)", "#ff7f0e", dash="6,3")
    plot.set_xlim(0.0, config.t_end)
    plot.set_ylim(-12.0, 40.0)
    return tables, ("fig1_populations.svg", plot)


def _fig2(runner):
    # phase plane: the true orbit is a closed curve; the series polyline
    # crosses itself, which no autonomous planar trajectory can do
    config, ser = runner.config, runner.series_tr
    period, orbit = runner.orbit
    params = _params(config, start=True)
    order = config.series_order
    tables = [
        ("fig2_orbit_exact.csv", ["t", "x", "y"],
         np.column_stack([orbit.times, orbit.states]),
         {"figure": "closed phase-plane orbit (one period)",
          "params": params, "period": f"{period:.12g}"}),
        ("fig2_orbit_series.csv", ["t", "x", "y"],
         np.column_stack([ser.times, ser.states]),
         {"figure": f"order-{order} series curve in the phase plane",
          "params": params, "series_order": order}),
    ]
    plot = LinePlot("Phase plane: closed orbit against series curve", "prey x", "predator y")
    plot.add_curve(orbit.states[:, 0], orbit.states[:, 1], "exact orbit", "#1f77b4")
    plot.add_curve(ser.states[:, 0], ser.states[:, 1], f"order-{order} series",
                   "#d62728", dash="6,3")
    plot.set_xlim(-0.5, 6.0)
    plot.set_ylim(-0.5, 7.0)
    return tables, ("fig2_phase_plane.svg", plot)


def _epidemic_figure(stem: str, spread: str, runner):
    config, model, ser = runner.config, runner.model, runner.series_tr
    ends = sir_endpoints(model)
    x0 = float(model.initial_state[0])
    # dense exact curves down to just above the infective die-out point
    x_dense = np.geomspace(ends.x_limit * 1.0001, x0, 800)
    y_exact, z_exact = sir_curves(x_dense, model)
    xs, ys, zs = ser.states.T
    # exact curves re-evaluated at the series' own susceptible coordinate,
    # where that coordinate is still meaningful
    inside = (xs > 0) & (xs <= x0)
    y_at = np.full(xs.shape, np.nan)
    z_at = np.full(xs.shape, np.nan)
    y_at[inside], z_at[inside] = sir_curves(xs[inside], model)
    title = (f"Epidemic curves, {spread} spread: truth against "
             f"order-{config.series_order} series")
    params = _params(config, start=False)
    tables = [
        (f"{stem}_series_vs_exact.csv",
         ["x", "y_exact", "z_exact", "y_series", "z_series"],
         np.column_stack([xs, y_at, z_at, ys, zs]),
         {"figure": title, "params": params,
          "series_order": config.series_order,
          "note": "rows follow the series time grid; x is the series "
                  "susceptible count, exact columns are evaluated at "
                  "that x when it lies in (0, x0]"}),
        (f"{stem}_exact_curves.csv", ["x", "y_exact", "z_exact"],
         np.column_stack([x_dense, y_exact, z_exact]),
         {"figure": title + " (dense exact curves)", "params": params,
          "x_limit": f"{ends.x_limit:.9g}"}),
    ]
    plot = LinePlot(title, "susceptibles x", "count")
    plot.add_curve(x_dense, y_exact, "infectives (exact)", "#1f77b4")
    plot.add_curve(x_dense, z_exact, "removed (exact)", "#2ca02c")
    plot.add_curve(xs, ys, "infectives (series)", "#d62728", dash="6,3")
    plot.add_curve(xs, zs, "removed (series)", "#ff7f0e", dash="6,3")
    top = max(float(np.max(y_exact)), float(np.max(z_exact)))
    plot.set_xlim(0.0, 1.05 * x0)
    plot.set_ylim(0.0, 1.25 * top)
    return tables, (f"{stem}_curves.svg", plot)


#: the ``--format`` values: the tables, the plot, or both
FORMATS = ("csv", "svg", "both")


def artifact_writer(fmt: str):
    """The one reader of ``--format``.  Returns ``write(directory, tables,
    plot)``, which writes each ``(file name, columns, rows, meta)`` table
    unless ``fmt`` is ``svg``, then the ``(file name, LinePlot)`` plot
    unless it is ``csv``, and returns their paths in that order.  An
    unknown ``fmt`` raises ValueError here, before anything is computed."""
    if fmt not in FORMATS:
        raise ValueError(f"fmt must be one of {', '.join(FORMATS)}")

    def write(directory, tables, plot) -> list[Path]:
        directory = Path(directory)
        paths = [] if fmt == "svg" else [
            write_csv(directory / name, columns, rows, meta)
            for name, columns, rows, meta in tables]
        if fmt != "csv":
            name, lineplot = plot
            paths.append(lineplot.write(directory / name))
        return paths

    return write


#: each figure: the preset it draws, and its builder
_FIGURES = {
    "fig1": ("lv-crash", _fig1),
    "fig2": ("lv-orbit", _fig2),
    "fig3": ("sir-slow", partial(_epidemic_figure, "fig3", "slow")),
    "fig4": ("sir-fast", partial(_epidemic_figure, "fig4", "fast")),
}

FIGURE_IDS = tuple(_FIGURES)


def reproduce_figure(fig_id: str, out_dir=".", fmt: str = "both") -> list[Path]:
    """Write the CSV data and SVG plot of one demonstration figure, drawn
    from the runs of its preset (``_FIGURES``) that the scenario runner
    computes at the default reference tolerance, and return the paths
    ``artifact_writer`` wrote.

    ``fig1``: prey-predator populations against time (series goes negative).
    ``fig2``: phase plane, closed orbit against a self-crossing series curve.
    ``fig3``/``fig4``: epidemic curves for slow and fast parameter sets.
    """
    if fig_id not in _FIGURES:
        raise ValueError(f"unknown figure id {fig_id!r}; expected one of {FIGURE_IDS}")
    write = artifact_writer(fmt)
    from .scenario import _Runner, load_preset  # scenario imports this module

    preset, build = _FIGURES[fig_id]
    return write(out_dir, *build(_Runner(load_preset(preset))))
