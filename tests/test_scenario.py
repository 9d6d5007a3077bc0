import hashlib
import inspect
import math
from dataclasses import MISSING, fields, replace
from importlib import resources

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import serieslab.cli
import serieslab.exact
import serieslab.integrators
import serieslab.scenario
from serieslab.cli import main
from serieslab.convergence import riccati_radii
from serieslab.exact import ENDPOINT_TOL, sir_endpoints
from serieslab.figures import FIGURE_IDS, reproduce_figure
from serieslab.integrators import (REFERENCE_TOL, TOL_RANGE, DivergenceError,
                                   IntegrationError, lv_closed_orbit,
                                   reference_integrate)
from serieslab.models import (MODELS, ModelInstance, PolynomialVectorField,
                              build_riccati, make_model)
from serieslab.report import compare_row, threshold_row
from serieslab.series import generate_taylor_solution
from serieslab.scenario import (
    ESTIMATE_ORDER,
    ScenarioConfig,
    _endpoint_limit,
    _Runner,
    load_preset,
    preset_names,
    run_scenario,
    validate_config,
)

MINIMAL_RICCATI = """\
[scenario]
name = tiny
model = riccati

[model]
initial_state = 0.0

[grid]
t_end = 1.0
samples = 11
"""


def test_validate_minimal_config():
    config = validate_config(MINIMAL_RICCATI)
    assert isinstance(config, ScenarioConfig)
    assert config.name == "tiny"
    assert config.series_order == 5
    assert config.analyses == ()
    assert config.multistage is None


def test_validate_reports_all_violations_at_once():
    bad = """\
[scenario]
name = broken
model = seir

[model]
initial_state = 1.0, 2.0

[multistage]
order = 1
step = -0.5

[grid]
t_end = -3.0
samples = 1

[analyses]
items = conserved, endpoints, juggling
"""
    errors = validate_config(bad)
    assert isinstance(errors, list)
    joined = "\n".join(errors)
    assert "scenario.model: unknown name 'seir'" in joined
    assert "multistage.step: must be positive" in joined
    assert "multistage.order: must be at least 2" in joined
    assert "grid.t_end: must be positive" in joined
    assert "grid.samples: must be at least 2" in joined
    assert "analyses.items: unknown analysis 'juggling'" in joined
    assert len(errors) >= 6


def test_validate_analysis_applicability():
    sir_conserved = MINIMAL_RICCATI.replace("model = riccati", "model = sir").replace(
        "initial_state = 0.0", "initial_state = 20, 15, 10"
    ) + "\n[model.params]\nbeta = 0.01\ngamma = 0.02\n\n[analyses]\nitems = conserved\n"
    errors = validate_config(sir_conserved)
    assert isinstance(errors, list)
    assert any("conserved requires lotka_volterra" in e for e in errors)
    riccati_endpoints = MINIMAL_RICCATI + "\n[analyses]\nitems = endpoints\n"
    errors = validate_config(riccati_endpoints)
    assert any("endpoints requires sir" in e for e in errors)


def test_validate_parameter_requirements():
    missing = """\
[scenario]
name = lv
model = lotka_volterra

[model]
initial_state = 1.0, 1.0

[model.params]
a = 1.0
b = 1.0
q = 2.0

[grid]
t_end = 1.0
"""
    errors = validate_config(missing)
    joined = "\n".join(errors)
    assert "model.params.c: required" in joined
    assert "model.params.d: required" in joined
    assert "model.params.q: unknown parameter" in joined


def model_rule_cases():
    """(family, params, start) that break one rule each, per family; a
    negative start breaks none for riccati, whose state is not a count."""
    for name, spec in MODELS.items():
        params = {p: 1.0 + i for i, p in enumerate(spec.params)}
        start = [1.0] * len(spec.components)
        cases = [("unknown", {**params, "k": 1.0}, start),
                 ("short", params, start[:-1]),
                 ("long", params, start + [1.0]),
                 ("negative", params, [-1.0] + start[1:])]
        if spec.params:
            first = spec.params[0]
            cases += [(f"rate{v}", {**params, first: v}, start)
                      for v in (0.0, -1.0, math.inf)]
            cases.append(("missing", {p: v for p, v in params.items() if p != first},
                          start))
        for case, bad_params, bad_start in cases:
            yield pytest.param(name, bad_params, bad_start, id=f"{name}-{case}")


def config_text(name, params, start):
    return (f"[scenario]\nname = t\nmodel = {name}\n\n[model]\n"
            f"initial_state = {', '.join(map(repr, start))}\n\n[model.params]\n"
            + "".join(f"{k} = {v!r}\n" for k, v in params.items())
            + "\n[grid]\nt_end = 1.0\n")


@pytest.mark.parametrize("name, params, start", model_rule_cases())
def test_one_statement_of_each_model_rule(name, params, start):
    spec = MODELS[name]
    problems = spec.problems(params, start)
    assert problems or (name == "riccati" and start == [-1.0])
    # a config number that is not finite is the parser's to reject
    parsed = {k: v if math.isfinite(v) else None for k, v in params.items()}
    lines = ["model." + p for p in spec.problems(parsed, start)]
    lines = [f"model.params.{k}: must be finite"
             for k, v in parsed.items() if v is None] + lines
    result = validate_config(config_text(name, params, start))
    if not lines:
        assert isinstance(result, ScenarioConfig)
        assert make_model(name, params, start).initial_state.tolist() == start
        return
    assert [e for e in result if e.startswith("model.")] == lines
    with pytest.raises(ValueError) as info:
        make_model(name, params, start)
    assert str(info.value) == "; ".join(problems)
    with pytest.raises(ValueError) as info:
        ModelInstance(spec, params, start)
    assert str(info.value) == "; ".join(problems)


def test_model_rules_skip_unparsed_values():
    spec = MODELS["lotka_volterra"]
    assert spec.problems({"a": None, "b": 1.0, "c": 1.0, "d": 1.0},
                         [None, 1.0]) == []
    assert spec.problems({"a": math.nan, "b": 1.0, "c": 1.0, "d": 1.0},
                         [1.0, 1.0]) == ["params.a: must be positive"]


@pytest.mark.parametrize("name", ["../x", "/tmp/x", "a/b", "a\\b", ".", ".."])
def test_scenario_name_is_one_path_component(name, tmp_path, capsys):
    text = MINIMAL_RICCATI.replace("name = tiny", f"name = {name}")
    assert validate_config(text) == ["scenario.name: must be a plain file name"]
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "deep" / "out"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: scenario.name: must be a plain file name\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini"]


def test_validate_references():
    with_refs = MINIMAL_RICCATI + """
[analyses]
items = radius

[references]
series_radius_exact = 1.274, 0.001, abs, a known value
nonsense = 1.0, 0.1, abs, who knows
bad_format = 1.0
"""
    errors = validate_config(with_refs)
    assert isinstance(errors, list)
    joined = "\n".join(errors)
    assert "references.nonsense: unknown quantity" in joined
    assert "references.bad_format" in joined


def reference_case(model, state, params, items, multistage, quantities):
    text = (f"[scenario]\nname = refs\nmodel = {model}\n\n"
            f"[model]\ninitial_state = {state}\n\n[model.params]\n")
    text += "".join(f"{key} = {value}\n" for key, value in params.items())
    text += f"\n[grid]\nt_end = 1.0\n\n[analyses]\nitems = {items}\n"
    if multistage:
        text += "\n[multistage]\norder = 5\nstep = 0.1\n"
    text += "\n[references]\n"
    text += "".join(f"{q} = 1.0, 0.0, abs, a value\n" for q in sorted(quantities))
    return validate_config(text)


LV_RATES = {"a": 1, "b": 1, "c": 1, "d": 1}
SIR_RATES = {"beta": 0.01, "gamma": 0.02}


#: (model, start, rates, analyses, multistage), the quantities a
#: [references] section may name, and some it may not
REFERENCE_CASES = pytest.mark.parametrize("case, accepted, rejected", [
    (("riccati", "0.0", {}, "radius", True),
     {"exact_final_state", "series_radius_exact", "radius_estimate_y",
      "multistage_radius_min", "multistage_end_error", "multistage_final_state"},
     {"radius_estimate_x", "multistage_vs_reference"}),
    (("riccati", "5.0", {}, "radius", False),
     {"exact_final_state", "series_radius_exact", "radius_estimate_y"},
     {"multistage_radius_min", "multistage_end_error", "multistage_final_state"}),
    (("sir", "20, 15, 10", SIR_RATES, "endpoints", False),
     {"x_limit", "x_over", "x_peak", "y_peak", "series_population_drift",
      "reference_population_drift"},
     # boolean rows have no reference to replace
     {"epidemic_occurs", "endpoint_ordering", "radius_estimate_x",
      "multistage_vs_reference"}),
    (("lotka_volterra", "3, 2", LV_RATES, "radius, conserved, phase_plane", True),
     {"radius_estimate_x", "radius_estimate_y", "conserved_drift_reference",
      "conserved_violation_series", "multistage_vs_reference"},
     {"reference_stays_positive", "series_curve_self_intersects",
      "exact_orbit_self_intersects", "radius_estimate_z", "x_limit"}),
], ids=["riccati-zero", "riccati-five", "sir-endpoints", "lv"])


@REFERENCE_CASES
def test_references_name_only_table_quantities(case, accepted, rejected):
    config = reference_case(*case, accepted)
    assert isinstance(config, ScenarioConfig), config
    assert {rv.quantity for rv in config.references} == accepted
    errors = reference_case(*case, accepted | rejected)
    assert sorted(errors) == sorted(
        f"references.{q}: unknown quantity for this scenario" for q in rejected)


@REFERENCE_CASES
def test_references_replace_the_checks_of_exactly_their_rows(case, accepted,
                                                            rejected):
    report = _Runner(reference_case(*case, accepted), 1e-10).run()
    carried = [row for row in report.rows if row.source == "a value"]
    assert sorted(row.quantity for row in carried) == sorted(accepted)
    for row in carried:
        assert row.reference == 1.0
        assert row.criterion == "|computed - reference| <= 0"


def test_presets_all_load():
    names = preset_names()
    assert names == sorted(names)
    assert {"riccati-zero", "riccati-five", "lv-crash", "lv-orbit",
            "sir-slow", "sir-fast"} == set(names)
    for name in names:
        config = load_preset(name)
        assert config.name == name


def test_run_minimal_scenario_writes_artifacts(tmp_path):
    config = validate_config(MINIMAL_RICCATI)
    report = run_scenario(config, tmp_path, fmt="both", tol=1e-10)
    out = tmp_path / "tiny"
    for name in ("series.csv", "reference.csv", "series_coefficients.csv",
                 "report.txt", "report.csv", "timeseries.svg"):
        assert (out / name).exists()
    # no analyses and no multistage stepping: trajectories only, the
    # report table stays empty
    assert report.rows == []
    assert report.all_passed


def assert_same_bytes(first_dir, second_dir):
    names = sorted(path.name for path in first_dir.iterdir())
    assert names == sorted(path.name for path in second_dir.iterdir())
    assert names
    for name in names:
        assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes(), name


def test_run_scenario_is_deterministic(tmp_path):
    for name in preset_names():
        config = load_preset(name)
        run_scenario(config, tmp_path / "a", fmt="both", tol=1e-10)
        run_scenario(config, tmp_path / "b", fmt="both", tol=1e-10)
        assert_same_bytes(tmp_path / "a" / name, tmp_path / "b" / name)


def test_figures_are_deterministic(tmp_path):
    for fig_id in FIGURE_IDS:
        reproduce_figure(fig_id, tmp_path / "a" / fig_id, fmt="both")
        reproduce_figure(fig_id, tmp_path / "b" / fig_id, fmt="both")
        assert_same_bytes(tmp_path / "a" / fig_id, tmp_path / "b" / fig_id)


#: sha256 of the artifacts made only of order-5 series coefficients and
#: elementwise numpy arithmetic, recorded before the straight-line kernel
#: (fig2's again when its ``params`` line became ``a=1 b=1 c=1 d=1``);
#: no BLAS call enters them, so they hold on any platform
GOLDEN_SHA256 = {
    "lv-crash/series.csv": "870dbed8055d1d0675a223c63cf419699d490b5eafa91d0cd24b5604062761b0",
    "lv-crash/series_coefficients.csv": "b9516fccd503f05f202c6a6e167ffe27e76898b54675d2b35caf877b79f0caf0",
    "lv-orbit/series.csv": "c5860c1e6a4429f1cedd798ef0a0ae4ca7934a0421405ec42b2236b370a7d016",
    "lv-orbit/series_coefficients.csv": "519415eed19277b5ad06b260b9628130bd2482aecc134a2c91d195cbb11066bf",
    "riccati-five/multistage.csv": "2c8abcdcb609881928438c3f802bd24eb64710e4f9bac468287db4a672e4001d",
    "riccati-five/series.csv": "97d25351163bedd69f6f2a5fcab48465bf51d65479d37efd7529ad626b5e389a",
    "riccati-five/series_coefficients.csv": "b8703743bdf514a3a1aeb0a4cc00670ed3ffb890288efb175a97ff50bc79d40e",
    "riccati-zero/multistage.csv": "96ce87c5a36767028b92f3afed8959052a983558f1a277c86f1a75df420bd490",
    "riccati-zero/series.csv": "b79e1615310040c9db3fa51c08ab382c5555acb0803d3e0cf53aa6ae0d940643",
    "riccati-zero/series_coefficients.csv": "2350cf5c4ef9cc56b0c674a499b01c7539a0672cc8ea085ebc551c07b1f1bc81",
    "sir-fast/series.csv": "0e442f06ba419d47569cd3ef885938354a67c6086a233f1115b93fd4be93efb8",
    "sir-fast/series_coefficients.csv": "741ca82285095e8c8389fd1ee73a72297a3b680017d6fe82ec68908a1290fc03",
    "sir-slow/series.csv": "75f912a1396e89424eadda47c5fd4a0355a301767c0b3812a800dd816bead30a",
    "sir-slow/series_coefficients.csv": "bd1cf090a5a609d7e3d4efcea2e543edfcf3de4a25c7d1cdcc0de1bf3fb47adb",
    "fig2/fig2_orbit_series.csv": "e7f4cacfbe4da40737cd670f820ab1c81247945b42e720f7992f0786e989ea1c",
}


def test_series_artifacts_match_golden_bytes(tmp_path):
    for name in preset_names():
        run_scenario(load_preset(name), tmp_path, fmt="csv")
    reproduce_figure("fig2", tmp_path / "fig2", fmt="csv")
    got = {key: hashlib.sha256((tmp_path / key).read_bytes()).hexdigest()
           for key in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


MULTISTAGE_LV = """\
[scenario]
name = lv-steps
model = lotka_volterra

[model]
initial_state = 3.0, 2.0

[model.params]
a = 1
b = 1
c = 1
d = 1

[multistage]
order = 5
step = 0.1

[grid]
t_end = 10.0
samples = 201
"""

MULTISTAGE_SIR = """\
[scenario]
name = sir-steps
model = sir

[model]
initial_state = 20, 15, 10

[model.params]
beta = 0.01
gamma = 0.02

[multistage]
order = 6
step = 0.15

[grid]
t_end = 9.0
samples = 301
"""


RADIUS_ESTIMATES = {
    "lotka_volterra": ["radius_estimate_x", "radius_estimate_y"],
    "sir": ["radius_estimate_x", "radius_estimate_y", "radius_estimate_z"],
}
CONSERVED = ["conserved_drift_reference", "conserved_violation_series",
             "reference_stays_positive"]
SIR_ROWS = [*RADIUS_ESTIMATES["sir"], "series_population_drift",
            "reference_population_drift", "x_limit", "epidemic_occurs",
            "x_over", "x_peak", "y_peak", "endpoint_ordering"]

#: every report row, in order; all of them pass
ROW_CATALOGUE = {
    "lv-crash": [*RADIUS_ESTIMATES["lotka_volterra"], *CONSERVED],
    "lv-orbit": [*RADIUS_ESTIMATES["lotka_volterra"], *CONSERVED,
                 "series_curve_self_intersects", "exact_orbit_self_intersects"],
    "riccati-five": ["exact_final_state", "series_radius_exact",
                     "radius_estimate_y", "multistage_end_error",
                     "multistage_final_state"],
    "riccati-zero": ["exact_final_state", "series_radius_exact",
                     "radius_estimate_y", "multistage_radius_min",
                     "multistage_end_error", "multistage_final_state"],
    "sir-fast": SIR_ROWS,
    "sir-slow": SIR_ROWS,
    "lv-steps": ["multistage_vs_reference"],
    "sir-steps": ["multistage_vs_reference", "series_population_drift",
                  "reference_population_drift"],
}


def test_report_row_catalogue(tmp_path):
    configs = [load_preset(name) for name in preset_names()]
    configs += [validate_config(MULTISTAGE_LV), validate_config(MULTISTAGE_SIR)]
    got = {config.name: [(row.quantity, bool(row.passed)) for row in
                         run_scenario(config, tmp_path, fmt="csv").rows]
           for config in configs}
    assert got == {name: [(q, True) for q in quantities]
                   for name, quantities in ROW_CATALOGUE.items()}


@pytest.mark.parametrize("t_end", [10.0, 30.0])
def test_restart_min_row_matches_the_scalar_grid_and_minimiser(t_end, tmp_path):
    # the row as computed before the grid became one array expression:
    # 2001 scalar calls, then the bounded minimiser
    config = replace(load_preset("riccati-zero"), t_end=t_end)
    row, = [r for r in run_scenario(config, tmp_path, fmt="csv").rows
            if r.quantity == "multistage_radius_min"]
    span = max(10.0, t_end)
    coarse = [riccati_radii(0.0, t) for t in np.linspace(0.0, span, 2001)]
    best = minimize_scalar(lambda t: riccati_radii(0.0, t),
                           bounds=(0.0, span), method="bounded",
                           options={"xatol": 1e-12})
    assert row.computed == min(float(np.min(coarse)), float(best.fun))
    assert row.computed == 1.1107207345395915
    assert row.passed


@pytest.mark.parametrize("text", [MULTISTAGE_LV, MULTISTAGE_SIR], ids=["lv", "sir"])
def test_multistage_rows_solve_on_the_stage_times(text, tmp_path, monkeypatch):
    config = validate_config(text)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("grid"))
        return reference_integrate(*args, **kwargs)

    monkeypatch.setattr(serieslab.scenario, "reference_integrate", counted)
    report = run_scenario(config, tmp_path, fmt="csv")
    monkeypatch.undo()
    runner = _Runner(config, 1e-10)
    stages = runner.multistage_tr.times
    # one solve on the plot grid, one on the stage times
    assert len(calls) == 2
    for grid in (runner.grid, stages):
        assert any(np.array_equal(grid, called) for called in calls)
    # the solves choose their own coordinates and floors from the model
    on_grid = reference_integrate(runner.model, config.t_end, 1e-10,
                                  grid=runner.grid)
    on_nodes = reference_integrate(runner.model, config.t_end, 1e-10,
                                   grid=stages)
    assert np.array_equal(runner.reference_tr.states, on_grid.states)
    assert runner.reference_tr.meta == on_grid.meta
    want = float(np.max(np.abs(runner.multistage_tr.states - on_nodes.states)))
    row, = [r for r in report.rows if r.quantity == "multistage_vs_reference"]
    assert row.computed == want
    assert row.passed


def test_lv_crash_reference_solve_cost(tmp_path, monkeypatch):
    # a deterministic guard on the log-coordinate path: a solve in u with
    # an absolute floor of 1e-140 made 5834 field evaluations here, the log
    # path 617
    evaluate = PolynomialVectorField.evaluate
    counts = []

    def counted_solve(*args, **kwargs):
        calls = []

        def counted(self, state):
            calls.append(1)
            return evaluate(self, state)

        monkeypatch.setattr(PolynomialVectorField, "evaluate", counted)
        try:
            return reference_integrate(*args, **kwargs)
        finally:
            monkeypatch.setattr(PolynomialVectorField, "evaluate", evaluate)
            counts.append(len(calls))

    monkeypatch.setattr(serieslab.scenario, "reference_integrate", counted_solve)
    assert main(["run", "lv-crash", "--out", str(tmp_path)]) == 0
    assert len(counts) == 1
    assert 0 < counts[0] <= 1500


DEEP_DECAY_LV = """\
[scenario]
name = lv-deep-decay
model = lotka_volterra

[model]
initial_state = 1, 300

[model.params]
a = 1
b = 1
c = 0.01
d = 1

[grid]
t_end = 2.0
samples = 201

[analyses]
items = conserved
"""


@pytest.mark.parametrize("t_end", [2.0, 5.0])
def test_deep_decay_reference_stays_positive(t_end, tmp_path):
    # the prey falls to about 1e-256 by t = 2, and past t = 2.5 below the
    # smallest float, where the rows read the first integral from the
    # solve's own ln x; the solve in u sent it negative within t = 0.1
    text = DEEP_DECAY_LV.replace("t_end = 2.0", f"t_end = {t_end}")
    report = run_scenario(validate_config(text), tmp_path, fmt="csv")
    rows = {row.quantity: row for row in report.rows}
    assert list(rows) == ["conserved_drift_reference", "conserved_violation_series",
                          "reference_stays_positive"]
    assert rows["reference_stays_positive"].computed is True
    assert all(row.passed for row in report.rows)


def test_conserved_drift_bound_scales_with_the_rates(tmp_path):
    # c ln x + a ln y - d x - b y grows with a and c, and so do its rounding
    # and the solve's error: the drift over a + c stays near 1e-10 from
    # rates of 1e-2 to 1e4, while an absolute 1e-6 failed this accurate solve
    text = (DEEP_DECAY_LV.replace("initial_state = 1, 300", "initial_state = 3, 2")
            .replace("a = 1\nb = 1\nc = 0.01\nd = 1",
                     "a = 1e4\nb = 1e-4\nc = 1e3\nd = 1e-3")
            .replace("t_end = 2.0", "t_end = 0.01"))
    report = run_scenario(validate_config(text), tmp_path, fmt="csv")
    drift = report.rows[0]
    assert drift.quantity == "conserved_drift_reference"
    assert 1e-6 < drift.computed < 1e-9 * (1e4 + 1e3)
    assert drift.criterion == "computed <= 0.01"
    assert all(row.passed for row in report.rows)
    # rates of 1 or below keep the absolute bound
    slow = run_scenario(validate_config(DEEP_DECAY_LV), tmp_path, fmt="csv")
    assert slow.rows[0].criterion == "computed <= 1e-06"


DIVERGING_RICCATI = """\
[scenario]
name = riccati-wide-steps
model = riccati

[model]
initial_state = 0.0

[multistage]
order = 5
step = 3.0

[grid]
t_end = 10.0
samples = 101

[analyses]
items = radius
"""


@pytest.mark.parametrize("text, quantity, message", [
    (DIVERGING_RICCATI, "multistage_end_error", "state diverged at stage 1 (t=6)"),
    (MULTISTAGE_LV.replace("step = 0.1", "step = 2.0"), "multistage_vs_reference",
     "state diverged at stage 2 (t=6)"),
], ids=["riccati", "lv"])
def test_diverging_multistage_run_becomes_an_error_row(text, quantity, message,
                                                       tmp_path, monkeypatch):
    path = tmp_path / "diverging.ini"
    path.write_text(text)
    config = validate_config(text)
    grids = []

    def counted(*args, **kwargs):
        grids.append(kwargs.get("grid"))
        return reference_integrate(*args, **kwargs)

    monkeypatch.setattr(serieslab.scenario, "reference_integrate", counted)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    # the reference solve runs on the plot grid alone
    assert len(grids) == 1
    assert np.array_equal(grids[0], np.linspace(0.0, config.t_end, config.samples))
    directory = tmp_path / "out" / config.name
    assert {p.name for p in directory.iterdir()} == {
        "series.csv", "reference.csv", "series_coefficients.csv",
        "timeseries.svg", "report.txt", "report.csv"}
    report = run_scenario(config, tmp_path / "again", fmt="csv")
    failed = [row for row in report.rows if not row.passed]
    assert [row.quantity for row in failed] == [quantity]
    assert failed[0].source.startswith(f"error: DivergenceError: {message}; ")


BLOW_UP_RICCATI = """\
[scenario]
name = riccati-blow-up
model = riccati

[model]
initial_state = -1.0

[grid]
t_end = 3.0
samples = 31

[analyses]
items = radius
"""

ESCAPED = "error: IntegrationError: solution escaped the divergence limit"


@pytest.mark.parametrize("text, rows", [
    (BLOW_UP_RICCATI, [("exact_final_state", ESCAPED),
                       ("series_radius_exact", None),
                       ("radius_estimate_y", None)]),
    (BLOW_UP_RICCATI + "\n[multistage]\norder = 5\nstep = 0.1\n",
     [("exact_final_state", ESCAPED),
      ("series_radius_exact", None),
      ("radius_estimate_y", None),
      ("multistage_end_error", "error: DivergenceError: state diverged")]),
], ids=["plain", "multistage"])
def test_blow_up_start_gives_error_rows(text, rows, tmp_path):
    path = tmp_path / "blow-up.ini"
    path.write_text(text)
    config = validate_config(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    # every artifact but the reference trajectory
    directory = tmp_path / "out" / config.name
    assert {p.name for p in directory.iterdir()} == {
        "series.csv", "series_coefficients.csv", "timeseries.svg",
        "report.txt", "report.csv"}
    assert "(reference)" not in (directory / "timeseries.svg").read_text()
    report = run_scenario(config, tmp_path / "again", fmt="csv")
    assert [row.quantity for row in report.rows] == [q for q, _ in rows]
    for row, (_, error) in zip(report.rows, rows):
        if error is None:
            assert row.passed
        else:
            assert not row.passed
            assert row.source.startswith(error)


UNDERFLOWING_SIR = """\
[scenario]
name = sir-underflow
model = sir

[model]
initial_state = 5.0, 1.0, 0.0

[model.params]
beta = 1e4
gamma = 1e-4

[grid]
t_end = 0.01
samples = 11

[analyses]
items = endpoints
"""


def test_die_out_below_the_smallest_float_becomes_an_error_row(tmp_path):
    # rho = 1e-8: the die-out point is about 5*exp(-6e8), which no float
    # holds; the row names the error instead of reporting 0 or NaN
    report = run_scenario(validate_config(UNDERFLOWING_SIR), tmp_path, fmt="csv")
    rows = {row.quantity: row for row in report.rows}
    assert "x_limit" not in rows
    row = rows["endpoints"]
    assert not row.passed
    assert row.source.startswith(
        "error: ArithmeticError: die-out point x0*exp(-6e+08) lies below the smallest float")
    assert all(other.passed for other in report.rows if other is not row)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("y0", ["1e200", "-1e200"])
def test_overflowing_series_becomes_error_rows(y0, tmp_path, capsys):
    # the order-5 coefficients overflow and DOP853 cannot take a step:
    # both runs fail, and every row that reads them reports why instead of
    # a traceback; the closed-form radius, about 1/|y0|, still holds
    text = BLOW_UP_RICCATI.replace("initial_state = -1.0",
                                   f"initial_state = {y0}")
    path = tmp_path / "huge.ini"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "computation must succeed" in capsys.readouterr().out
    directory = tmp_path / "out" / "riccati-blow-up"
    assert {p.name for p in directory.iterdir()} == {
        "timeseries.svg", "report.txt", "report.csv"}
    runner = _Runner(validate_config(text), 1e-10)
    for run in ("series_solution", "series_tr"):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            getattr(runner, run)
    with pytest.raises(IntegrationError):
        runner.reference_tr
    report = runner.run()
    assert [(row.quantity, row.passed) for row in report.rows] == [
        ("exact_final_state", False),
        ("series_radius_exact", True),
        ("radius_estimate", False),
    ]
    final, exact, estimate = report.rows
    assert final.source.startswith("error: IntegrationError: ")
    assert exact.computed == pytest.approx(1e-200, rel=1e-15, abs=0)
    assert estimate.source == "error: ValueError: coefficients must be finite"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_run_is_computed_once(tmp_path, monkeypatch):
    # the series run fails for the csv writers too, and the reference
    # solve for exact_final_state and both writers; neither is retried
    text = BLOW_UP_RICCATI.replace("initial_state = -1.0", "initial_state = 1e200")
    orders, grids = [], []

    def series(model, order):
        orders.append(order)
        return generate_taylor_solution(model, order)

    def reference(*args, **kwargs):
        grids.append(kwargs["grid"])
        return reference_integrate(*args, **kwargs)

    monkeypatch.setattr(serieslab.scenario, "generate_taylor_solution", series)
    monkeypatch.setattr(serieslab.scenario, "reference_integrate", reference)
    report = run_scenario(validate_config(text), tmp_path, fmt="both")
    # the radius estimate reads a series of its own order
    assert sorted(orders) == [5, ESTIMATE_ORDER]
    assert len(grids) == 1
    assert not report.rows[0].passed


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_failed_series_run_fails_the_rows_that_read_it(tmp_path):
    text = MULTISTAGE_LV.replace("3.0, 2.0", "1e200, 1e200") + (
        "\n[analyses]\nitems = conserved, phase_plane\n")
    report = run_scenario(validate_config(text), tmp_path, fmt="both")
    assert [row.quantity for row in report.rows] == [
        "multistage_vs_reference", "conserved", "phase_plane"]
    assert not any(row.passed for row in report.rows)
    for row in report.rows[1:]:
        assert row.source == "error: ValueError: coefficients must be finite"
    assert {p.name for p in (tmp_path / "lv-steps").iterdir()} == {
        "timeseries.svg", "report.txt", "report.csv"}


def test_guard_types_numerical_failures_and_reraises_bugs():
    runner = _Runner(validate_config(MINIMAL_RICCATI), 1e-10)

    def diverges():
        raise DivergenceError("state diverged at stage 3", step_index=3)

    runner.guard("multistage_end_error", diverges)
    row, = runner.rows
    assert not row.passed
    assert row.source == "error: DivergenceError: state diverged at stage 3"
    for bug in (TypeError("bad operand"), KeyError("beta"), AttributeError("states")):
        def broken(bug=bug):
            raise bug

        with pytest.raises(type(bug)):
            runner.guard("x_limit", broken)
    assert len(runner.rows) == 1


def test_run_scenario_failures_become_rows(tmp_path):
    text = MINIMAL_RICCATI + """
[analyses]
items = radius

[references]
series_radius_exact = 2.0, 0.001, abs, deliberately wrong
"""
    config = validate_config(text)
    report = run_scenario(config, tmp_path, fmt="csv")
    assert not report.all_passed
    failing = [row for row in report.rows if not row.passed]
    assert [row.quantity for row in failing] == ["series_radius_exact"]
    # every row spells out its criterion and source
    for row in report.rows:
        assert row.criterion
        assert row.source


def test_numeric_error_surfaces_as_failed_row(tmp_path):
    # a constant solution has no estimable radius; the failure must land in
    # the table as a failed row, not crash the run
    text = MINIMAL_RICCATI.replace("initial_state = 0.0",
                                   "initial_state = 2.414213562373095")
    text += "\n[analyses]\nitems = radius\n"
    config = validate_config(text)
    report = run_scenario(config, tmp_path, fmt="csv")
    assert not report.all_passed
    exact_final, exact_radius, estimate = report.rows
    assert exact_final.quantity == "exact_final_state" and exact_final.passed
    # the closed form still holds: a constant solution has no pole
    assert exact_radius.quantity == "series_radius_exact"
    assert exact_radius.computed == math.inf and exact_radius.passed
    assert estimate.quantity == "radius_estimate_y"
    assert not estimate.passed
    assert estimate.source.startswith("error: NotEstimableError: ")


def test_a_reference_leaves_an_error_row_as_it_is():
    # a constant solution has no estimable radius, with or without a
    # reference for the estimate
    text = MINIMAL_RICCATI.replace("initial_state = 0.0",
                                   "initial_state = 2.414213562373095")
    text += ("\n[analyses]\nitems = radius\n\n[references]\n"
             "radius_estimate_y = 1.0, 0.1, abs, a value\n")
    report = _Runner(validate_config(text), 1e-10).run()
    estimate = report.rows[-1]
    assert estimate.quantity == "radius_estimate_y"
    assert not estimate.passed and estimate.reference is None
    assert estimate.criterion == "computation must succeed"
    assert estimate.source.startswith("error: NotEstimableError: ")


@pytest.mark.parametrize("row", [
    compare_row("q", math.nan, 1.0, math.inf, "abs", "s"),
    compare_row("q", math.nan, 1.0, math.inf, "rel", "s"),
    threshold_row("q", math.nan, math.inf, "s"),
    threshold_row("q", math.nan, -math.inf, "s", "above"),
], ids=["abs", "rel", "below", "above"])
def test_a_nan_fails_every_numeric_check(row):
    # even against a bound that every number meets
    assert not row.passed


def test_report_rows_have_explicit_criteria(tmp_path):
    report = run_scenario(load_preset("lv-orbit"), tmp_path, fmt="csv")
    assert report.all_passed
    quantities = {row.quantity for row in report.rows}
    assert {"conserved_drift_reference", "conserved_violation_series",
            "series_curve_self_intersects", "exact_orbit_self_intersects"} <= quantities
    for row in report.rows:
        assert row.criterion
        assert row.source


# -- command line ----------------------------------------------------------------

def test_cli_run_preset(tmp_path, capsys):
    code = main(["run", "riccati-five", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "series_radius_exact" in out
    assert (tmp_path / "riccati-five" / "report.txt").exists()


def test_cli_run_config_file(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text(MINIMAL_RICCATI)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario]\nname = x\nmodel = seir\n")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown name" in err


#: (preset, line, the line with {v} for the bad value, the field named)
NON_FINITE_FIELDS = [
    ("riccati-zero", "t_end = 10.0", "t_end = {v}", "grid.t_end"),
    ("riccati-zero", "step = 0.2", "step = {v}", "multistage.step"),
    ("lv-orbit", "initial_state = 3.0, 2.0", "initial_state = 3.0, {v}",
     "model.initial_state"),
    # with [references] present, one of whose keys the start decides on
    ("riccati-zero", "initial_state = 0.0", "initial_state = {v}",
     "model.initial_state"),
    ("lv-orbit", "a = 1.0", "a = {v}", "model.params.a"),
    ("riccati-zero", "series_radius_exact = 1.274, 0.001",
     "series_radius_exact = {v}, 0.001", "references.series_radius_exact"),
    ("riccati-zero", "series_radius_exact = 1.274, 0.001",
     "series_radius_exact = 1.274, {v}", "references.series_radius_exact"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("preset, line, bad, field", NON_FINITE_FIELDS,
                         ids=["t_end", "step", "lv-start", "start-with-references",
                              "param", "reference-value", "reference-tolerance"])
def test_cli_rejects_a_non_finite_config_number(preset, line, bad, field, value,
                                                tmp_path, capsys):
    text = resources.files("serieslab").joinpath(
        f"scenarios/{preset}.ini").read_text(encoding="utf-8")
    assert line in text
    path = tmp_path / "bad.ini"
    path.write_text(text.replace(line, bad.format(v=value)))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {field}: must be finite\n"
    assert not (tmp_path / "out").exists()


def test_cli_missing_config_is_usage_error(capsys):
    assert main(["run", "/nonexistent/none.ini"]) == 2


def test_cli_failing_row_gives_exit_one(tmp_path):
    path = tmp_path / "wrong.ini"
    path.write_text(MINIMAL_RICCATI + """
[analyses]
items = radius

[references]
series_radius_exact = 2.0, 0.001, abs, deliberately wrong
""")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 1


def test_cli_figure(tmp_path, capsys):
    assert main(["figure", "fig3", "--out", str(tmp_path), "--format", "csv"]) == 0
    assert (tmp_path / "fig3_exact_curves.csv").exists()


@pytest.mark.parametrize("flag", [["--order", "7"], ["--tol", "1e-8"]])
def test_cli_figure_takes_no_run_overrides(flag, tmp_path, capsys):
    # a figure draws its preset as it stands: an override is a usage error
    with pytest.raises(SystemExit) as info:
        main(["figure", "fig1", "--out", str(tmp_path), *flag])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["run", "lv-orbit", "--order", "0"], "argument --order: must be at least 1"),
    (["run", "riccati-zero", "--tol", "1"], "argument --tol: must lie in [1e-13, 0.001]"),
    (["run", "riccati-zero", "--tol", "0"], "argument --tol: must lie in [1e-13, 0.001]"),
    (["report-all", "--order", "-3"], "argument --order: must be at least 1"),
], ids=["order-0", "tol-1", "tol-0", "report-all-order-minus-3"])
def test_cli_out_of_range_override_is_a_usage_error(argv, message, tmp_path, capsys):
    # rejected before any preset runs, not turned into error rows
    with pytest.raises(SystemExit) as info:
        main([*argv, "--out", str(tmp_path)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_override_ranges_include_their_bounds():
    # --tol reads the range reference_integrate enforces
    assert serieslab.cli.order("1") == 1
    assert serieslab.cli.tolerance("1e-13") == TOL_RANGE[0]
    assert serieslab.cli.tolerance("1e-3") == TOL_RANGE[1]
    with pytest.raises(ValueError, match="tol must lie in"):
        reference_integrate(build_riccati(0.0), 1.0, tol=math.nextafter(TOL_RANGE[1], 1.0))


def test_each_run_wide_default_reads_its_owner(monkeypatch):
    # each tolerance is one float object, stated once (a literal elsewhere
    # would be another object); small ints are shared, so the order is ==
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    for fn in (reference_integrate, _Runner, run_scenario):
        assert default(fn, "tol") is REFERENCE_TOL
    parser = serieslab.cli.build_parser()
    for argv in (["run", "lv-orbit"], ["report-all"]):
        assert parser.parse_args(argv).tol is REFERENCE_TOL
    assert parser.parse_args(["radius", "--y0", "0"]).order == ESTIMATE_ORDER
    tols = []

    def spy(module, name, position):
        # records the argument at ``position``, the callee's tol
        forward = getattr(module, name)

        def record(*args, **kwargs):
            tols.append(args[position])
            return forward(*args, **kwargs)
        monkeypatch.setattr(module, name, record)

    spy(serieslab.integrators, "_dop853", 2)
    spy(serieslab.exact, "find_root_bracketed", 3)
    lv_closed_orbit(_Runner(load_preset("lv-orbit")).model)
    sir_endpoints(_Runner(load_preset("sir-slow")).model)
    assert len(tols) == 3
    assert tols[0] is REFERENCE_TOL
    assert all(tol is ENDPOINT_TOL for tol in tols[1:])
    # the residual bound of an endpoint row, 1e-11 times the slope in s
    assert 10 * ENDPOINT_TOL == 1e-11
    assert _endpoint_limit(1e6, 1.0) == 10 * ENDPOINT_TOL * (1e6 - 1.0)
    # validate_config alone states a config's defaults
    assert all(f.default is MISSING and f.default_factory is MISSING
               for f in fields(ScenarioConfig))


@pytest.mark.parametrize("order", ["0", "1", "7"])
def test_cli_radius_order_below_the_ratio_window_is_a_usage_error(order, capsys):
    with pytest.raises(SystemExit) as info:
        main(["radius", "--y0", "0.3", "--order", order])
    assert info.value.code == 2
    assert "argument --order: must be at least 8" in capsys.readouterr().err


def test_cli_radius_order_at_the_ratio_window(capsys):
    assert main(["radius", "--y0", "0.3", "--order", "8"]) == 0
    out = capsys.readouterr().out
    assert "ratio-test estimate at order 8: " in out
    assert "window=8" in out


def test_cli_radius_query(capsys):
    assert main(["radius", "--y0", "0"]) == 0
    out = capsys.readouterr().out
    assert "closed-form radius: 1.27362" in out
    assert "restart radius floor" in out


@pytest.mark.parametrize("y0, radius", [("1e17", 1e-17), ("-1e200", 1e-200)])
def test_cli_radius_query_for_huge_starts(y0, radius, capsys):
    # the order-30 series overflows; the closed form still holds, and the
    # exponent-form negative start is read as a value, not as an option
    assert main(["radius", "--y0", y0]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("closed-form radius: ")
    value = float(lines[0].split()[2])
    assert math.isfinite(value) and value > 0
    assert value == pytest.approx(radius, rel=1e-5, abs=0)
    assert lines[1] == "ratio-test estimate unavailable: coefficients must be finite"


@pytest.mark.parametrize("y0", ["inf", "nan"])
def test_cli_radius_rejects_non_finite_start(y0, capsys):
    assert main(["radius", "--y0", y0]) == 2
    assert capsys.readouterr().err == "error: y0 must be finite\n"


def test_cli_endpoints_query(capsys):
    assert main(["endpoints", "--beta", "0.01", "--gamma", "0.02",
                 "--x0", "20", "--y0", "15", "--z0", "10"]) == 0
    out = capsys.readouterr().out
    assert "x_limit: 5.022e-07" in out
    assert "y_peak:  28.3948" in out


def test_cli_endpoints_keep_tiny_roots(capsys):
    assert main(["endpoints", "--beta", "1", "--gamma", "0.5",
                 "--x0", "20", "--y0", "4"]) == 0
    out = capsys.readouterr().out
    assert "x_limit: 2.85033e-20" in out
    assert "x_over:  8.49671e-17" in out


def test_cli_endpoints_rejects_bad_parameters(capsys):
    assert main(["endpoints", "--beta", "-1", "--gamma", "1",
                 "--x0", "20", "--y0", "15"]) == 2
    assert capsys.readouterr().err == "error: params.beta: must be positive\n"
