"""The artifact writers and the SIR curves against their per-point oracles.

``render``, ``write_csv`` and the SIR relations work on whole arrays; the
per-point versions they replaced are kept here as oracles, and every
comparison is exact: the same string, the same file bytes, the same
float bits.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serieslab.cli
import serieslab.figures
import serieslab.report
import serieslab.scenario
from serieslab.csvout import format_cell, write_csv
from serieslab.exact import _sir_data, sir_curves, sir_y_of_x, sir_z_of_x
from serieslab.figures import FIGURE_IDS, reproduce_figure
from serieslab.models import build_riccati, make_model
from serieslab.scenario import preset_names
from serieslab.svgplot import LinePlot, nice_ticks

# -- oracles -----------------------------------------------------------------


def oracle_format_cell(value) -> str:
    if hasattr(value, "item"):
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return repr(value)
    return str(value)


def oracle_write_csv(path, columns, rows, meta=None) -> Path:
    """Every cell through ``oracle_format_cell``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(columns))
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()
    for row in rows:
        lines.append(",".join(oracle_format_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def oracle_render(self) -> str:
    """``LinePlot.render`` mapping one point at a time."""
    left, right, top, bottom = 72, 18, 42, 56
    bw = self.width - left - right
    bh = self.height - top - bottom
    (x0, x1), (y0, y1) = self._limits()

    def sx(x):
        return left + (x - x0) / (x1 - x0) * bw

    def sy(y):
        return top + (y1 - y) / (y1 - y0) * bh

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
        f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
    )
    out.append(
        f'<rect width="{self.width}" height="{self.height}" fill="white"/>'
    )
    out.append(
        f'<clipPath id="box"><rect x="{left}" y="{top}" width="{bw}" '
        f'height="{bh}"/></clipPath>'
    )
    out.append(
        f'<text x="{self.width // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{self.title}</text>'
    )
    out.append(
        f'<rect x="{left}" y="{top}" width="{bw}" height="{bh}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in nice_ticks(x0, x1):
        px = sx(tx)
        if left - 0.5 <= px <= left + bw + 0.5:
            out.append(
                f'<line x1="{px:.2f}" y1="{top + bh}" x2="{px:.2f}" '
                f'y2="{top + bh + 5}" stroke="black"/>'
            )
            out.append(
                f'<text x="{px:.2f}" y="{top + bh + 20}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{tx:.6g}</text>'
            )
    for ty in nice_ticks(y0, y1):
        py = sy(ty)
        if top - 0.5 <= py <= top + bh + 0.5:
            out.append(
                f'<line x1="{left - 5}" y1="{py:.2f}" x2="{left}" '
                f'y2="{py:.2f}" stroke="black"/>'
            )
            out.append(
                f'<text x="{left - 8}" y="{py + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{ty:.6g}</text>'
            )
    out.append(
        f'<text x="{left + bw / 2:.0f}" y="{self.height - 14}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f'{self.xlabel}</text>'
    )
    out.append(
        f'<text x="20" y="{top + bh / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 20 {top + bh / 2:.0f})">{self.ylabel}</text>'
    )
    out.append('<g clip-path="url(#box)">')
    for x, y, _label, color, dash in self.curves:
        pts = []
        for xv, yv in zip(x, y):
            if math.isfinite(xv) and math.isfinite(yv):
                pts.append(f"{sx(xv):.2f},{sy(yv):.2f}")
            else:
                if len(pts) > 1:
                    self._emit_polyline(out, pts, color, dash)
                pts = []
        if len(pts) > 1:
            self._emit_polyline(out, pts, color, dash)
    out.append("</g>")
    ly = top + 16
    for _x, _y, label, color, dash in self.curves:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{left + bw - 150}" y1="{ly}" x2="{left + bw - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"{dash_attr}/>'
        )
        out.append(
            f'<text x="{left + bw - 114}" y="{ly + 4}" '
            f'font-family="sans-serif" font-size="12">{label}</text>'
        )
        ly += 18
    out.append("</svg>")
    return "\n".join(out) + "\n"


def oracle_sir_y_of_x(x, model):
    beta, gamma, x0, y0, _ = _sir_data(model)
    if x <= 0:
        raise ValueError("x must be positive")
    return y0 + x0 - x + (gamma / beta) * math.log(x / x0)


def oracle_sir_z_of_x(x, model):
    beta, gamma, x0, _, z0 = _sir_data(model)
    if x <= 0:
        raise ValueError("x must be positive")
    return z0 - (gamma / beta) * math.log(x / x0)


def oracle_sir_curves(x, model):
    return (np.array([oracle_sir_y_of_x(v, model) for v in x], dtype=float),
            np.array([oracle_sir_z_of_x(v, model) for v in x], dtype=float))


def outcome(fn, *args):
    """The float bits or string ``fn`` returns, or the error it raises."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return value if isinstance(value, str) else np.float64(value).tobytes()


# -- SVG ---------------------------------------------------------------------

inf = math.inf
nan = math.nan


def gappy_plot(xlim=None, ylim=None):
    plot = LinePlot("gaps", "x", "y")
    x = np.linspace(-1.0, 4.0, 41)
    y = np.sin(3.0 * x) * 2.5
    y[[3, 10, 11, 20, 22, 40]] = [nan, inf, -inf, nan, nan, inf]
    x[[5, 30]] = [nan, -inf]
    plot.add_curve(x, y, "gappy")
    # isolated finite points between gaps, and a run of one at either end
    plot.add_curve([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                   [1.0, nan, 2.0, inf, 3.0, nan], "isolated", dash="6,3")
    plot.add_curve([nan, 0.5, 0.6, nan], [1.0, -0.5, 7.5, 2.0], "short")
    plot.add_curve([], [], "empty")
    if xlim:
        plot.set_xlim(*xlim)
    if ylim:
        plot.set_ylim(*ylim)
    return plot


@pytest.mark.parametrize("xlim, ylim", [
    (None, None),
    ((0.0, 2.0), (-1.0, 1.0)),       # many points outside explicit limits
    ((-3.0, -2.0), (10.0, 20.0)),    # every point outside
    (None, (-0.1, 0.1)),
], ids=["auto", "inside-out", "all-outside", "mixed"])
def test_render_matches_per_point_oracle(xlim, ylim):
    plot = gappy_plot(xlim, ylim)
    assert plot.render() == oracle_render(plot)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_render_matches_per_point_oracle_on_huge_values():
    plot = LinePlot("huge", "x", "y")
    plot.add_curve([0.0, 1.0, 2.0, 3.0, 4.0],
                   [1e308, -1e308, 1.7e308, nan, 5e-324], "huge")
    plot.add_curve([0.0, 1e300, 2.0], [1.0, 2.0, -1e300], "big")
    assert plot.render() == oracle_render(plot)
    plot.set_xlim(0.0, 4.0)
    plot.set_ylim(-1.0, 1.0)
    assert plot.render() == oracle_render(plot)


@pytest.mark.parametrize("curves, polylines", [
    ([([nan, 1.0], [2.0, inf]), ([], [])], 0),
    ([([1e300, 1e300], [0.0, 1.0])], 1),
    ([([0.0, 1.0], [-3e20, -3e20])], 1),
], ids=["no-finite-point", "one-huge-x", "one-huge-y"])
def test_degenerate_automatic_limits_render(curves, polylines):
    # no finite point used to raise ValueError, and one shared coordinate
    # past 2**53 a zero-width span and ZeroDivisionError
    plot = LinePlot("degenerate", "x", "y")
    for x, y in curves:
        plot.add_curve(x, y, "curve")
    (x0, x1), (y0, y1) = plot._limits()
    assert x0 < x1 and y0 < y1
    svg = plot.render()
    assert svg == oracle_render(plot)
    assert svg.count("<polyline") == polylines
    assert "nan" not in svg and "inf" not in svg


finite_or_not = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([nan, inf, -inf, 0.0, -0.0, 1e300, -1e300, 5e-324]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite_or_not, finite_or_not), max_size=40),
       st.booleans())
def test_render_matches_per_point_oracle_on_random_curves(points, limits):
    plot = LinePlot("random", "x", "y")
    plot.add_curve([p[0] for p in points], [p[1] for p in points], "random")
    if limits:
        plot.set_xlim(-2.0, 3.0)
        plot.set_ylim(-5.0, 5.0)
    # degenerate automatic limits give the same outcome in both
    assert outcome(LinePlot.render, plot) == outcome(oracle_render, plot)


# -- CSV ---------------------------------------------------------------------

SPECIAL_FLOATS = np.array([
    [nan, inf, -inf],
    [-0.0, 0.0, 5e-324],
    [2.2250738585072014e-308, 1e308, -1.7976931348623157e308],
    [3.0, -12.0, 1e16],
    [0.1, 1.0 / 3.0, 123456789.125],
])


def assert_same_file(tmp_path, columns, rows, meta=None):
    got = write_csv(tmp_path / "got.csv", columns, rows, meta).read_bytes()
    want = oracle_write_csv(tmp_path / "want.csv", columns, rows,
                            meta).read_bytes()
    assert got == want
    return got


@pytest.mark.parametrize("rows", [
    SPECIAL_FLOATS,
    SPECIAL_FLOATS[:1],
    SPECIAL_FLOATS[:0],
    np.zeros((0, 3)),
    np.column_stack([np.linspace(-1.0, 1.0, 7)] * 3),
], ids=["specials", "one-row", "no-rows", "zeros-0x3", "grid"])
def test_float_rows_match_format_cell(rows, tmp_path):
    assert_same_file(tmp_path, ["a", "b", "c"], rows, {"k": "v"})


def test_int_and_bool_arrays_keep_format_cell(tmp_path):
    got = assert_same_file(tmp_path, ["a", "b"],
                           np.array([[True, False], [False, True]]))
    assert got == b"a,b\ntrue,false\nfalse,true\n"
    got = assert_same_file(tmp_path, ["a", "b"], np.array([[1, -2], [30, 0]]))
    assert got == b"a,b\n1,-2\n30,0\n"


def test_list_rows_keep_format_cell(tmp_path):
    rows = [("x", None, True, 3, np.float64(-0.0), nan, np.int64(7),
             np.bool_(False), 2.5)]
    got = assert_same_file(tmp_path, list("abcdefghi"), rows)
    assert got == b"a,b,c,d,e,f,g,h,i\nx,,true,3,-0.0,nan,7,false,2.5\n"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), min_size=0, max_size=30))
def test_format_cell_of_a_float_is_its_repr(values):
    for v in values:
        assert format_cell(v) == oracle_format_cell(v) == repr(v)
        assert format_cell(np.float64(v)) == oracle_format_cell(np.float64(v))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True), max_size=24),
       st.integers(1, 4))
def test_random_float_rows_match_format_cell(values, width):
    rows = np.array(values[: len(values) // width * width],
                    dtype=float).reshape(-1, width)
    with tempfile.TemporaryDirectory() as tmp:
        assert_same_file(Path(tmp), [f"c{i}" for i in range(width)], rows)


# -- SIR curves --------------------------------------------------------------

SIR_MODELS = [
    make_model("sir", {"beta": 0.01, "gamma": 0.02}, [20.0, 15.0, 10.0]),
    make_model("sir", {"beta": 2.5, "gamma": 0.3}, [0.9, 0.1, 0.0]),
    make_model("sir", {"beta": 0.7, "gamma": 1.1}, [0.4, 0.05, 0.02]),
    # gamma * (1 / beta) rounds unlike gamma / beta here
    make_model("sir", {"beta": 0.7, "gamma": 0.3}, [3.0, 0.5, 0.2]),
]


@pytest.mark.parametrize("model", SIR_MODELS)
def test_sir_relations_match_per_point_oracle(model):
    x0 = float(model.initial_state[0])
    # inside (0, x0], past x0, subnormal, and a value that rounds
    xs = np.concatenate([np.geomspace(1e-300, x0, 400),
                         np.linspace(x0, 3.0 * x0, 50),
                         [5e-324, x0 * (1 + 2**-52), 0.1, math.pi]])
    for x in xs.tolist():
        for new, old in ((sir_y_of_x, oracle_sir_y_of_x),
                         (sir_z_of_x, oracle_sir_z_of_x)):
            assert outcome(new, x, model) == outcome(old, x, model)
    xs = xs[xs / x0 > 0]   # x/x0 underflowing to 0 has no logarithm
    got = sir_curves(xs, model)
    want = oracle_sir_curves(xs, model)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_sir_relations_keep_their_errors():
    model = SIR_MODELS[0]
    for x in (0.0, -1.0):
        for fn in (sir_y_of_x, sir_z_of_x):
            with pytest.raises(ValueError, match="x must be positive"):
                fn(x, model)
    with pytest.raises(ValueError, match="x must be positive"):
        sir_curves(np.array([1.0, 0.0]), model)
    with pytest.raises(ValueError, match="expected an sir model"):
        sir_curves(np.array([1.0]), build_riccati(0.0))
    y, z = sir_curves(np.array([]), model)
    assert y.shape == z.shape == (0,)


@pytest.mark.parametrize("fig_id", ["fig3", "fig4"])
def test_epidemic_figure_exact_columns_follow_the_domain_rule(fig_id, tmp_path):
    reproduce_figure(fig_id, tmp_path, fmt="csv")
    path = tmp_path / f"{fig_id}_series_vs_exact.csv"
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("#")][1:]
    model = (serieslab.figures._epidemic_slow() if fig_id == "fig3"
             else serieslab.figures._epidemic_fast())
    x0 = float(model.initial_state[0])
    outside = 0
    for line in lines:
        x, y_exact, z_exact = (float(c) for c in line.split(",")[:3])
        if 0 < x <= x0:
            assert y_exact == oracle_sir_y_of_x(x, model)
            assert z_exact == oracle_sir_z_of_x(x, model)
        else:
            outside += 1
            assert math.isnan(y_exact) and math.isnan(z_exact)
    # the series leaves the domain inside the plotted window
    assert outside > 0


# -- every artifact, oracles against the shipped code ------------------------


def all_verbs():
    return ([["run", name] for name in preset_names()]
            + [["figure", fig] for fig in FIGURE_IDS] + [["report-all"]])


def write_every_artifact(out: Path) -> dict[str, bytes]:
    for i, verb in enumerate(all_verbs()):
        with contextlib.redirect_stdout(io.StringIO()):
            serieslab.cli.main([*verb, "--out", str(out / f"{i:02d}")])
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_every_artifact_matches_the_per_point_oracles(tmp_path, monkeypatch):
    shipped = write_every_artifact(tmp_path / "shipped")
    for module in (serieslab.cli, serieslab.scenario, serieslab.figures,
                   serieslab.report):
        monkeypatch.setattr(module, "write_csv", oracle_write_csv)
    monkeypatch.setattr(serieslab.report, "format_cell", oracle_format_cell)
    monkeypatch.setattr(LinePlot, "render", oracle_render)
    for module in (serieslab.scenario, serieslab.figures):
        monkeypatch.setattr(module, "sir_curves", oracle_sir_curves)
    oracle = write_every_artifact(tmp_path / "oracle")
    assert len(shipped) == 89
    assert sorted(shipped) == sorted(oracle)
    differ = [name for name in shipped if shipped[name] != oracle[name]]
    assert differ == []
