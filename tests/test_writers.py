"""The artifact writers and the SIR curves against their per-point oracles.

``render``, ``write_csv`` and the SIR relations work on whole arrays; the
per-point versions they replaced are kept here as oracles, and every
comparison is exact: the same string, the same file bytes, the same
float bits.
"""

import contextlib
import hashlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
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
from serieslab.scenario import load_preset, preset_names
from serieslab.svgplot import LinePlot, nice_ticks
from conftest import run_in_child
from test_scenario import GOLDEN_SHA256

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
    """``LinePlot.render`` mapping one point at a time.  A curve breaks at a
    non-finite data point and at a pixel coordinate past the float range."""
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
        for xv, yv in zip(x.tolist(), y.tolist()):
            # Python floats overflow to inf with no warning
            px, py = sx(xv), sy(yv)
            if all(map(math.isfinite, (xv, yv, px, py))):
                pts.append(f"{px:.2f},{py:.2f}")
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


def test_plot_write_creates_its_directory(tmp_path):
    # as write_csv and ComparisonReport.write do
    plot = LinePlot("nested", "x", "y")
    plot.add_curve([0.0, 1.0], [1.0, 0.0], "line")
    path = plot.write(tmp_path / "new" / "sub" / "x.svg")
    assert path == tmp_path / "new" / "sub" / "x.svg"
    assert path.read_text(encoding="utf-8") == plot.render()


def test_render_matches_per_point_oracle_on_huge_values():
    plot = LinePlot("huge", "x", "y")
    plot.add_curve([0.0, 1.0, 2.0, 3.0, 4.0],
                   [1e308, -1e308, 1.7e308, nan, 5e-324], "huge")
    plot.add_curve([0.0, 1e300, 2.0], [1.0, 2.0, -1e300], "big")
    assert plot.render() == oracle_render(plot)
    plot.set_xlim(0.0, 4.0)
    plot.set_ylim(-1.0, 1.0)
    assert plot.render() == oracle_render(plot)


def test_a_point_mapped_past_the_float_range_breaks_the_curve():
    # 1e308 inside limits of (0, 5) maps to a pixel beyond the float range:
    # no inf reaches the points, and no overflow warning escapes
    plot = LinePlot("overflow", "x", "y")
    plot.set_xlim(0.0, 2.0)
    plot.set_ylim(0.0, 5.0)
    plot.add_curve([0.0, 1.0, 2.0, 3.0], [1.0, 1e308, 2.0, 3.0], "curve")
    svg = plot.render()
    assert "inf" not in svg and "nan" not in svg
    assert svg.count("<polyline") == 1
    assert 'points="742.00,295.20 1077.00,210.80"' in svg
    assert svg == oracle_render(plot)


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


def test_tick_ladder_over_an_ulp_wide_span_ends():
    # a span of one ulp at the float 1 - sqrt(2): v + step == v, so the
    # ladder used to loop forever
    out = run_in_child("from serieslab.svgplot import nice_ticks\n"
                       "print(nice_ticks(-0.41421356237309515,"
                       " -0.41421356237309515 + 2**-54))")
    assert out == "[-0.41421356237309515]\n"


def test_tick_ladder_over_spans_of_a_few_ulps_ends():
    # spans of 1-4 ulps at several magnitudes: each ladder ends, rising
    out = run_in_child(
        "import math\n"
        "from serieslab.svgplot import nice_ticks\n"
        "for lo in (-0.41421356237309515, 1.0, -3e-200, 7e150, -1e300):\n"
        "    for ulps in range(1, 5):\n"
        "        hi = lo + ulps * math.ulp(lo)\n"
        "        ticks = nice_ticks(lo, hi)\n"
        "        assert 1 <= len(ticks) <= 5, (lo, ulps, ticks)\n"
        "        assert ticks == sorted(set(ticks)), (lo, ulps, ticks)\n"
        "print('ok')")
    assert out == "ok\n"


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
    config = load_preset("sir-slow" if fig_id == "fig3" else "sir-fast")
    model = make_model(config.model_name, config.params, config.initial_state)
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
    """(output directory, argv) of the 11 verbs that write artifacts."""
    return ([(f"run-{name}", ["run", name]) for name in preset_names()]
            + [(fig, ["figure", fig]) for fig in FIGURE_IDS]
            + [("report-all", ["report-all"])])


def write_every_artifact(out: Path, *options: str) -> dict[str, bytes]:
    for directory, verb in all_verbs():
        with contextlib.redirect_stdout(io.StringIO()):
            serieslab.cli.main([*verb, "--out", str(out / directory), *options])
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_each_format_writes_its_share_of_the_both_files(tmp_path):
    # svg writes the plots and the reports, csv every file but the plots,
    # and each of their files is the one that both writes
    written = {fmt: write_every_artifact(tmp_path / fmt, "--format", fmt)
               for fmt in ("csv", "svg", "both")}
    csv, svg, both = written["csv"], written["svg"], written["both"]
    reports = {"report.txt", "report.csv", "report_all.txt", "report_all.csv"}
    assert all(name.endswith(".svg") or Path(name).name in reports for name in svg)
    assert not any(name.endswith(".svg") for name in csv)
    for directory, _ in all_verbs():
        assert any(name.startswith(f"{directory}/") and name.endswith(".svg")
                   for name in svg)
    assert csv.keys() | svg.keys() == both.keys()
    for files in (csv, svg):
        assert all(files[name] == both[name] for name in files)


def test_every_artifact_matches_the_per_point_oracles(tmp_path, monkeypatch):
    shipped = write_every_artifact(tmp_path / "shipped")
    for module in (serieslab.cli, serieslab.figures, serieslab.report):
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

# -- every artifact, pinned --------------------------------------------------

#: sha256 of the other 36 artifact names of the 11 verbs (GOLDEN_SHA256
#: holds the 15 order-5 series files, which
#: `test_series_artifacts_match_golden_bytes` checks): the reference solves, the reports,
#: the SVGs and the epidemic curves, whose bytes pass through scipy's
#: solvers, root searches and quadrature or through numpy's BLAS-backed
#: dot products, so they are pinned only on the versions they were
#: recorded on, PINNED_ON (fig2's again when its ``params`` line became
#: ``a=1 b=1 c=1 d=1``, and fig2_orbit_exact.csv's when the orbit came to
#: be read from the period solve, and again when that solve moved to the
#: log coordinates of reference_integrate; and the 18 whose bytes moved
#: when the reference solves came to step on Python floats, in the float
#: kernel behind scipy's DOP853, instead of numpy's; and the 7 SIR
#: reference and report files, with report_all.csv, when the susceptible
#: and infective counts came to be solved in w = ln u).  `run <preset>` and
#: `report-all` write the same per-preset files, so a name is its last two
#: path components.
ARTIFACT_SHA256 = {
    "fig1/fig1_populations.csv": "fcbb5437a518e2c1dab77686bfee09f1ce5bd4a567c59c109871c5b9bf7386a8",
    "fig1/fig1_populations.svg": "5b41bd0b8e8fc9649b132d9136acafc2be355885416965a28495d696e0f35d41",
    "fig2/fig2_orbit_exact.csv": "b02fd6387ac4e8e61e6611e61b25ddeb62411d540a79501e922b5aa6748cfa5a",
    "fig2/fig2_phase_plane.svg": "5558994256fe7b76fa2593137c54c8ee91ca87a9ce89066473a35b2a2b4c54cb",
    "fig3/fig3_curves.svg": "d00788be9a6b99f99587c1d17232c95e788ee44e73300a85b94c51c0b7cce31b",
    "fig3/fig3_exact_curves.csv": "e626c2cffae4725bc1dcf1b28d63f8b4be5695845291def8a7a1bde837b9b900",
    "fig3/fig3_series_vs_exact.csv": "28392a14853a913e51e43bf83c5336ecbfea85de8cefc7338315244b1d67bc48",
    "fig4/fig4_curves.svg": "b7178e0786b79595c367951047c37f573927239bb44ff9b406836eb1e4a952fa",
    "fig4/fig4_exact_curves.csv": "1655fc9cbe3b5ef4420e3e4d83e2769bad03c452319c5b4b60420d75017e9ddc",
    "fig4/fig4_series_vs_exact.csv": "3525d8b164d42bb8c2ba01043fde7fb4d6f089a5807f1692f2a6a8b39b00040f",
    "lv-crash/reference.csv": "f919559efab077e49c9daa55ddf312be0fe357915b971d5756c5c223a74ff673",
    "lv-crash/report.csv": "50a4fe237896010f6939a1a2420949b7278526492d0dc0d54195ce4bd994e53c",
    "lv-crash/report.txt": "16fdba538179967256e54a54d809758b358ed8f4489e57533cd0caedef7fefb7",
    "lv-crash/timeseries.svg": "73bafc661256437410295dffeb2fb77aac0b3485858b7709c29326bdc41d3b35",
    "lv-orbit/reference.csv": "269e68763835fc6565d112c1ad91582bcf71683a64096c7ce69442299b250e43",
    "lv-orbit/report.csv": "2aaecf36ba60d678a8353304c681a5f6934258da5c2331888c3d8aa21fd58939",
    "lv-orbit/report.txt": "20c204075f426a7d1d1f9fa0a3877b5be0dfe7c71b72b9b9e2ddff3d9195e242",
    "lv-orbit/timeseries.svg": "07be5ea038831eb23d9f781c4d418cae90291444125eb8e55871e3e6c046283d",
    "report-all/report_all.csv": "4481862ca35e9a67b45ca9b354af4fd712ef4b2efc3b46d4f394a0438190cc33",
    "report-all/report_all.txt": "3dba82109cc68acdeca715ee471b52a08ff55834dcdcd618c5eece9d5a5665bb",
    "riccati-five/reference.csv": "666d188a0cd2e44f859ce7b71b48fb3a38835725914a64cdc7c1e45489c880d4",
    "riccati-five/report.csv": "88bfbd7bb71420ce3380b5aaa3a7e58871981ae18a8c6838a83da523589c2f1b",
    "riccati-five/report.txt": "79a4edbad5ef06a791b3cecf123570065133971df96e21df6cece19b25fb54a0",
    "riccati-five/timeseries.svg": "0f86a98e8e891e37058a96063288edf95fee206e1260c8529165d10da4658e19",
    "riccati-zero/reference.csv": "bf8eb9faa764abc62a67ec77e63365b6ee2c51d47ed6977cf5c43e25caf44c03",
    "riccati-zero/report.csv": "cf070f13e5be26d810744df8dae66267d6f24a45064e5123e9529bab4f60fe4c",
    "riccati-zero/report.txt": "089be27709da934af6329440f5ae59f5e607f472c482f456d307b9d538912ae6",
    "riccati-zero/timeseries.svg": "86e37072519c6292b8314769dd4ec63a3e9597e605b3f17d0f393848d3e83ab4",
    "sir-fast/reference.csv": "b6dd28e7013f979cb801a4e416fe6daa8ecfacc596f1c5e4056da378fa93fc21",
    "sir-fast/report.csv": "e24eb725c26f2a5318e65ae7ac17bd421814f08ac86725f1a3b8279c40088146",
    "sir-fast/report.txt": "0785682688e7587cd1c415b57d6b28127bafc7116dac0138daafd23790c3d3af",
    "sir-fast/timeseries.svg": "e1ff1f4378a33bf133c8cd644703412d3b8ffb7a5e65c7a420d803cf740be3d0",
    "sir-slow/reference.csv": "9620c68efb387096e54da123d8b3a313f907d21b35c713bbd0b1904f0e72558c",
    "sir-slow/report.csv": "1719515375c108f387d7111090e91d8e94b1e9a8bf9b0d69fdca9675e265bac5",
    "sir-slow/report.txt": "1466470e204e383e1f2ea958c85ac4ab41fca81918626abccf47df973ede769c",
    "sir-slow/timeseries.svg": "b2dc26b71611e03ab74a1850bf2b147b5772762cfe34a21b75f531039d1d7374",
}

PINNED_ON = {"numpy": "2.4.6", "scipy": "1.17.1"}


def test_every_artifact_matches_its_pinned_bytes(tmp_path):
    written = write_every_artifact(tmp_path)
    assert len(written) == 89
    got = {}
    for path, data in written.items():
        digest = hashlib.sha256(data).hexdigest()
        name = "/".join(path.split("/")[-2:])
        # a preset's files from `run` and from `report-all` are identical
        assert got.setdefault(name, digest) == digest, path
    assert sorted(got) == sorted({**GOLDEN_SHA256, **ARTIFACT_SHA256})
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    differ = sorted(name for name, digest in ARTIFACT_SHA256.items()
                    if got[name] != digest)
    if versions != PINNED_ON:
        pytest.skip(f"{len(ARTIFACT_SHA256)} artifacts are pinned on numpy "
                    f"{PINNED_ON['numpy']} and scipy {PINNED_ON['scipy']}, "
                    f"not numpy {versions['numpy']} and scipy "
                    f"{versions['scipy']}; here {len(differ)} differ: "
                    f"{', '.join(differ) or 'none'}")
    assert differ == []
