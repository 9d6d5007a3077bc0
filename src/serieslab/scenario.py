"""Declarative scenarios: INI configs, validation, and the runner that
turns one config into trajectories, figures and a comparison report.

A scenario names a model, a series order, a time grid, optional piecewise
stepping, and a list of analyses.  Reference values (with tolerances and a
source note) can be attached to any numeric quantity the scenario reports;
without one, each quantity falls back to a self-consistency check, so every
report row always carries an explicit pass criterion.  One table, ``_TABLE``,
lists every producer of report rows with the models, analysis and runs it
needs; validation and the runner both read it.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from importlib import resources
from pathlib import Path

import numpy as np

from .convergence import (
    MULTISTAGE_RADIUS_FLOOR,
    NotEstimableError,
    estimate_radius,
    riccati_radii,
    riccati_radius,
)
from .csvout import write_csv
from .exact import (
    lv_conserved,
    riccati_exact,
    sir_curves,
    sir_endpoints,
    sir_y_of_x,
)
from .figures import DEEP_DECAY_ATOL, lv_closed_orbit, polyline_self_intersects
from .integrators import (
    Trajectory,
    multistage_taylor,
    reference_integrate,
    sample_series,
)
from .models import MODELS, make_model
from .report import (
    ComparisonReport,
    ReportRow,
    bool_row,
    compare_row,
    error_row,
    threshold_row,
)
from .series import generate_taylor_solution
from .svgplot import LinePlot

#: order used when a radius has to be estimated from coefficients
ESTIMATE_ORDER = 30

#: exceptions an analysis may end in that become an error row: divergence,
#: blow-up, no bracket or no estimable radius, a failed solver
NUMERICAL_FAILURES = (ArithmeticError, ValueError, RuntimeError)


@dataclass(frozen=True)
class ReferenceValue:
    quantity: str
    value: float
    tolerance: float
    kind: str     # abs | rel
    source: str


@dataclass(frozen=True)
class MultistageSettings:
    order: int
    step: float


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    model_name: str
    params: dict
    initial_state: tuple
    t_end: float
    samples: int
    series_order: int = 5
    multistage: MultistageSettings | None = None
    analyses: tuple = ()
    references: tuple = ()


def validate_config(raw: str):
    """Parse and validate a scenario config.

    Returns a ScenarioConfig when everything checks out, otherwise the full
    list of violations as ``field.path: message`` strings (never raises for
    content problems, so callers can show them all at once).
    """
    errors: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw)
    except configparser.Error as exc:
        return [f"syntax: {exc}"]

    def get(section, option, default=None):
        if parser.has_option(section, option):
            return parser.get(section, option)
        return default

    def get_number(section, option, default=None, cast=float):
        text = get(section, option)
        if text is None:
            return default
        try:
            return cast(text)
        except ValueError:
            what = "a number" if cast is float else "an integer"
            errors.append(f"{section}.{option}: not {what}: {text!r}")
            return None

    name = (get("scenario", "name") or "").strip()
    if not name:
        errors.append("scenario.name: required")
    model_name = (get("scenario", "model") or "").strip()
    spec = MODELS.get(model_name)
    if spec is None:
        errors.append(f"scenario.model: unknown name {model_name!r}")

    state_text = get("model", "initial_state", "")
    initial_state: tuple = ()
    try:
        initial_state = tuple(float(v) for v in state_text.split(",") if v.strip())
    except ValueError:
        errors.append(f"model.initial_state: not a number list: {state_text!r}")
    if spec is not None:
        dim = len(spec.components)
        if len(initial_state) != dim:
            errors.append(
                f"model.initial_state: expected {dim} component(s) for "
                f"{model_name}, got {len(initial_state)}"
            )
        elif spec.populations and any(v < 0 for v in initial_state):
            errors.append("model.initial_state: components must be non-negative")

    params: dict = {}
    if parser.has_section("model.params"):
        for key in parser.options("model.params"):
            value = get_number("model.params", key)
            if value is not None:
                params[key] = value
    if spec is not None:
        required = set(spec.params)
        missing = required - set(params)
        extra = set(params) - required
        for key in sorted(missing):
            errors.append(f"model.params.{key}: required for {model_name}")
        for key in sorted(extra):
            errors.append(f"model.params.{key}: unknown parameter for {model_name}")
        for key in sorted(required & set(params)):
            if not params[key] > 0:
                errors.append(f"model.params.{key}: must be positive")

    series_order = get_number("series", "order", 5, int)
    if series_order is not None and series_order < 1:
        errors.append("series.order: must be at least 1")

    multistage = None
    if parser.has_section("multistage"):
        ms_order = get_number("multistage", "order", 5, int)
        ms_step = get_number("multistage", "step")
        if ms_step is None:
            errors.append("multistage.step: required")
        elif not ms_step > 0:
            errors.append("multistage.step: must be positive")
        if ms_order is not None and ms_order < 2:
            errors.append("multistage.order: must be at least 2")
        if ms_order is not None and ms_step is not None and ms_step > 0:
            multistage = MultistageSettings(ms_order, ms_step)

    t_end = get_number("grid", "t_end")
    if t_end is None:
        errors.append("grid.t_end: required")
    elif not t_end > 0:
        errors.append("grid.t_end: must be positive")
    samples = get_number("grid", "samples", 401, int)
    if samples is not None and samples < 2:
        errors.append("grid.samples: must be at least 2")

    analyses_text = get("analyses", "items", "") or ""
    analyses = tuple(a.strip() for a in analyses_text.split(",") if a.strip())
    for analysis in analyses:
        if analysis not in ANALYSES:
            errors.append(f"analyses.items: unknown analysis {analysis!r}")
        elif model_name not in ANALYSES[analysis]:
            errors.append(f"analyses.items: {analysis} requires "
                          f"{' or '.join(ANALYSES[analysis])}")

    references = []
    if parser.has_section("references"):
        components = spec.components if spec else ()
        allowed = {key.format(c=c)
                   for entry in _enabled(model_name, analyses,
                                         multistage is not None, initial_state)
                   for key in entry.refs for c in components}
        for key in parser.options("references"):
            raw_value = parser.get("references", key)
            parts = [p.strip() for p in raw_value.split(",", 3)]
            if len(parts) != 4:
                errors.append(
                    f"references.{key}: expected 'value, tolerance, abs|rel, source'"
                )
                continue
            try:
                value = float(parts[0])
                tolerance = float(parts[1])
            except ValueError:
                errors.append(f"references.{key}: value and tolerance must be numbers")
                continue
            kind = parts[2]
            if kind not in ("abs", "rel"):
                errors.append(f"references.{key}: kind must be abs or rel")
                continue
            if tolerance < 0:
                errors.append(f"references.{key}: tolerance must be non-negative")
                continue
            if key not in allowed:
                errors.append(f"references.{key}: unknown quantity for this scenario")
                continue
            references.append(ReferenceValue(key, value, tolerance, kind, parts[3]))

    if errors:
        return errors
    return ScenarioConfig(
        name=name,
        model_name=model_name,
        params=params,
        initial_state=initial_state,
        t_end=t_end,
        samples=samples,
        series_order=series_order,
        multistage=multistage,
        analyses=analyses,
        references=tuple(references),
    )


def preset_names() -> list[str]:
    files = resources.files("serieslab").joinpath("scenarios")
    return sorted(p.name[: -len(".ini")] for p in files.iterdir()
                  if p.name.endswith(".ini"))


def load_preset(name: str) -> ScenarioConfig:
    path = resources.files("serieslab").joinpath(f"scenarios/{name}.ini")
    if not path.is_file():
        raise ValueError(f"unknown preset {name!r}; available: {preset_names()}")
    result = validate_config(path.read_text(encoding="utf-8"))
    if isinstance(result, list):
        raise RuntimeError(f"preset {name} is invalid: {result}")
    return result


def _lv_atol(model):
    # prey/predator counts sweep many orders of magnitude; only relative
    # control keeps the logarithmic invariant meaningful.  Positive starts
    # get it from the log-coordinate solve; this floor serves the solve in
    # u of a start on an axis
    return DEEP_DECAY_ATOL if model.label == "lotka_volterra" else None


def _endpoint_limit(rho, x):
    """Admissible residual of an epidemic endpoint equation at its root x.

    The root is located to 1e-12 relative in x (in s = ln(x/x0)), so the
    residual scales with the slope rho - x of the equation in s.  Above
    x = 1 the bound is that of a root located to 1e-12 absolute in x,
    the tighter of the two."""
    return max(1e-9, 1e-11 * abs(rho - x) / max(1.0, x))


def _restrict(trajectory: Trajectory, times) -> Trajectory:
    """The samples of ``trajectory`` at ``times``, each one of its times."""
    index = np.searchsorted(trajectory.times, times)
    return Trajectory(trajectory.times[index], trajectory.states[index],
                      trajectory.provenance, dict(trajectory.meta))


def _near(reference, tol, kind, source):
    """Default check: within ``tol`` (abs or rel) of ``reference``."""
    return partial(compare_row, reference=reference, tol=tol, kind=kind,
                   source=source)


def _limit(limit, source, direction="below"):
    """Default check: below (or above) ``limit``."""
    return partial(threshold_row, limit=limit, source=source,
                   direction=direction)


def _check(passed, criterion, source):
    """Default check decided by the producer, with no reference value."""
    return lambda quantity, computed: ReportRow(
        quantity, computed, None, None, passed, criterion, source)


class _Runner:
    def __init__(self, config: ScenarioConfig, tol: float):
        self.config = config
        self.tol = tol
        self.model = make_model(config.model_name, config.params,
                                config.initial_state)
        self.names = MODELS[config.model_name].components
        self.grid = np.linspace(0.0, config.t_end, config.samples)
        self.refs = {rv.quantity: rv for rv in config.references}
        self.rows: list[ReportRow] = []
        # a run that fails numerically is kept here under its name; the
        # producers that need it report the failure, the others go on
        self.failures: dict[str, Exception] = {}
        self.series_solution = self.attempt(
            "series", generate_taylor_solution, self.model, config.series_order)
        self.series_tr = (None if self.series_solution is None
                          else sample_series(self.series_solution, self.grid))
        self.multistage_tr = None
        nodes = self.grid
        if config.multistage:
            self.multistage_tr = self.attempt(
                "multistage", multistage_taylor, self.model,
                config.multistage.order, config.multistage.step, config.t_end)
            if self.multistage_tr is not None:
                nodes = np.union1d(self.grid, self.multistage_tr.times)
        self.reference_tr = self.reference_nodes = None
        # one solve serves both grids: solve_ivp's steps do not depend on
        # t_eval, so each grid reads the same dense output as a solve of
        # its own would
        solved = self.attempt("reference", reference_integrate, self.model,
                              config.t_end, tol, grid=nodes,
                              atol=_lv_atol(self.model))
        if solved is not None:
            self.reference_tr = _restrict(solved, self.grid)
            if self.multistage_tr is not None:
                self.reference_nodes = _restrict(solved,
                                                 self.multistage_tr.times)

    # -- runs and rows ---------------------------------------------------

    def attempt(self, run, compute, *args, **kwargs):
        """``compute(*args, **kwargs)``, or None with a numerical failure
        recorded under the name of the ``run``."""
        try:
            return compute(*args, **kwargs)
        except NUMERICAL_FAILURES as exc:
            self.failures[run] = exc
            return None

    def guard(self, quantity, producer, *needs):
        """Add the producer's rows, or one error row if it fails
        numerically or if a run it ``needs`` (series, multistage or
        reference) failed; a programming error (TypeError, KeyError, ...)
        is not a result and propagates."""
        failure = next((self.failures[run] for run in needs
                        if run in self.failures), None)
        if failure is None:
            try:
                self.rows.extend(producer())
                return
            except NUMERICAL_FAILURES as exc:
                failure = exc
        self.rows.append(error_row(quantity, failure))

    def row(self, quantity, computed, default):
        """The comparison with the configured reference for ``quantity``,
        else ``default(quantity, computed)``, the check made without one."""
        rv = self.refs.get(quantity)
        if rv is not None:
            return compare_row(quantity, computed, rv.value, rv.tolerance,
                               rv.kind, rv.source)
        return default(quantity, computed)

    @cached_property
    def exact_radius(self):
        # one closed-form radius serves the exact row and the estimate's check
        return riccati_radius(float(self.model.initial_state[0])).radius

    # -- producers, each listed in _TABLE --------------------------------

    def exact_final_rows(self):
        y0 = float(self.model.initial_state[0])
        reference = float(self.reference_tr.states[-1, 0])
        tol_abs = max(1e-8, 1e3 * self.tol * max(1.0, abs(reference)))
        return [self.row(
            "exact_final_state", riccati_exact(y0, self.config.t_end),
            _near(reference, tol_abs, "abs", "reference integrator end state"))]

    def exact_radius_rows(self):
        radius = self.exact_radius
        return [self.row("series_radius_exact", radius, _check(
            math.isfinite(radius) and radius > 0 or radius == math.inf,
            "radius is positive", "closed-form pole location"))]

    def estimate_rows(self, default=None):
        """The trailing-ratio radius of each component; a component whose
        tail admits no ratio test becomes its own error row."""
        out = []
        est_sol = generate_taylor_solution(self.model, ESTIMATE_ORDER)
        for name, comp in zip(self.names, est_sol.components):
            quantity = f"radius_estimate_{name}"
            try:
                est = estimate_radius(comp).radius
            except NotEstimableError as exc:
                out.append(error_row(quantity, exc))
                continue
            out.append(self.row(quantity, est, default or _check(
                math.isfinite(est) and est > 0,
                "estimate is finite and positive",
                f"trailing-ratio estimate at order {ESTIMATE_ORDER}")))
        return out

    def riccati_estimate_rows(self):
        return self.estimate_rows(_near(
            self.exact_radius, 0.15, "rel",
            "closed-form radius (ratio test should land nearby)"))

    def restart_min_rows(self):
        from scipy.optimize import minimize_scalar

        y0 = float(self.model.initial_state[0])
        span = max(10.0, self.config.t_end)
        coarse = riccati_radii(y0, np.linspace(0.0, span, 2001))
        best = minimize_scalar(
            lambda t: riccati_radii(y0, t),
            bounds=(0.0, span), method="bounded", options={"xatol": 1e-12})
        computed = min(float(np.min(coarse)), float(best.fun))
        return [self.row("multistage_radius_min", computed, _near(
            MULTISTAGE_RADIUS_FLOOR, 1e-3, "rel",
            "analytic lower bound sqrt(2)*pi/4"))]

    def riccati_multistage_rows(self):
        end = float(self.multistage_tr.states[-1, 0])
        exact_end = riccati_exact(float(self.model.initial_state[0]),
                                  self.config.t_end)
        rows = [self.row("multistage_end_error", abs(end - exact_end), _limit(
            1e-4, "piecewise series against the closed form"))]
        if "multistage_final_state" in self.refs:
            rows.append(self.row("multistage_final_state", end, None))
        return rows

    def multistage_vs_reference_rows(self):
        err = float(np.max(np.abs(
            self.multistage_tr.states - self.reference_nodes.states)))
        return [self.row("multistage_vs_reference", err, _limit(
            1e-4, "piecewise series against the reference integrator"))]

    def population_rows(self):
        coeff = np.vstack([c.coefficients
                           for c in self.series_solution.components])
        per_order = np.abs(coeff[:, 1:].sum(axis=0))
        drift_series = float(per_order.max()) if per_order.size else 0.0
        # rounding in the coefficient sums scales with the largest
        # coefficient, so fast parameter sets get a proportionate floor
        limit = max(1e-12, 16 * np.finfo(float).eps * float(np.abs(coeff).max()))
        total0 = float(np.sum(self.model.initial_state))
        drift_ref = float(np.max(np.abs(
            self.reference_tr.states.sum(axis=1) - total0)))
        return [
            self.row("series_population_drift", drift_series, _limit(
                limit, "coefficient sums vanish order by order")),
            self.row("reference_population_drift", drift_ref, _limit(
                1e-8, "total population along the reference trajectory")),
        ]

    def endpoints_rows(self):
        model = self.model
        ends = sir_endpoints(model)
        x0 = float(model.initial_state[0])
        rho = model.params["gamma"] / model.params["beta"]
        resid = abs(sir_y_of_x(ends.x_limit, model))
        limit = _endpoint_limit(rho, ends.x_limit)
        out = [
            self.row("x_limit", ends.x_limit, _check(
                resid <= limit, f"|infectives(x_limit)| <= {limit:g}",
                "root of the die-out equation")),
            bool_row("epidemic_occurs", ends.epidemic_occurs, x0 > rho,
                     "threshold x0 > gamma/beta"),
        ]
        if ends.epidemic_occurs:
            resid_over = abs(x0 - ends.x_over + rho * math.log(ends.x_over / x0))
            limit = _endpoint_limit(rho, ends.x_over)
            xg = np.geomspace(ends.x_limit * 1.001, x0, 4001)
            grid_max = float(np.max(sir_curves(xg, model)[0]))
            out += [
                self.row("x_over", ends.x_over, _check(
                    resid_over <= limit,
                    f"|residual of the return equation| <= {limit:g}",
                    "nontrivial root of the return equation")),
                self.row("x_peak", ends.x_peak, _near(
                    rho, 0.0, "abs", "peak location gamma/beta")),
                self.row("y_peak", ends.y_peak, _check(
                    grid_max <= ends.y_peak + 1e-9,
                    "no larger infective count on a dense susceptible grid",
                    "infectives evaluated at the peak")),
                bool_row("endpoint_ordering",
                         ends.x_limit < ends.x_over < ends.x_peak < x0, True,
                         "die-out, return, peak and start must be ordered"),
            ]
        return out

    def conserved_rows(self):
        p = self.model.params
        rates = (p["a"], p["b"], p["c"], p["d"])
        h0 = lv_conserved(*(float(v) for v in self.model.initial_state), *rates)
        drift = max(abs(lv_conserved(float(x), float(y), *rates) - h0)
                    for x, y in self.reference_tr.states)
        # leaving the positive quadrant is an unbounded violation: the
        # conserved level set never touches the axes
        violation = 0.0
        for t, (x, y) in zip(self.series_tr.times, self.series_tr.states):
            if t > min(4.0, self.config.t_end):
                break
            if x <= 0 or y <= 0:
                violation = math.inf
                break
            violation = max(violation, abs(
                lv_conserved(float(x), float(y), *rates) - h0))
        return [
            self.row("conserved_drift_reference", drift, _limit(
                1e-6, "first integral along the reference trajectory")),
            self.row("conserved_violation_series", violation, _limit(
                1.0, "series points abandon the conserved curve", "above")),
            bool_row("reference_stays_positive",
                     bool(np.all(self.reference_tr.states > 0)), True,
                     "true orbits stay in the open positive quadrant"),
        ]

    def phase_plane_rows(self):
        _, orbit = lv_closed_orbit(self.model, self.tol)
        return [
            bool_row("series_curve_self_intersects",
                     polyline_self_intersects(self.series_tr.states), True,
                     "series phase curves cross themselves beyond the radius"),
            bool_row("exact_orbit_self_intersects",
                     polyline_self_intersects(orbit.states), False,
                     "a true closed orbit cannot cross itself"),
        ]

    # -- driver ----------------------------------------------------------

    def run(self) -> ComparisonReport:
        config = self.config
        for entry in _enabled(config.model_name, config.analyses,
                              config.multistage is not None,
                              config.initial_state):
            self.guard(entry.quantity, partial(entry.produce, self),
                       *entry.needs)
        meta = {
            "model": config.model_name,
            "params": " ".join(f"{k}={v:g}" for k, v in
                               sorted(config.params.items())) or "none",
            "initial_state": " ".join(f"{v:g}" for v in config.initial_state),
            "series_order": config.series_order,
            "grid": f"t_end={config.t_end:g} samples={config.samples}",
            "reference_tol": f"{self.tol:g}",
        }
        if config.multistage:
            meta["multistage"] = (f"order={config.multistage.order} "
                                  f"step={config.multistage.step:g}")
        return ComparisonReport(config.name, self.rows, meta)


#: ``_Analysis.item`` values that are not [analyses] names: "any rows"
#: runs whenever some analysis is listed or a [multistage] section is present
_ANY_ROWS, _MULTISTAGE = "any rows", "[multistage]"


@dataclass(frozen=True)
class _Analysis:
    """One producer of report rows, and when and on what it runs."""

    produce: Callable          # a _Runner method returning report rows
    item: str                  # [analyses] item, _ANY_ROWS or _MULTISTAGE
    models: tuple[str, ...]
    quantity: str              # the row reporting a failure
    refs: tuple[str, ...] = ()  # [references] keys; {c} is each component
    needs: tuple[str, ...] = ()  # runs read: series, multistage, reference
    start: Callable | None = None  # further condition on the initial state


def _starts_at_zero(state) -> bool:
    # the row's reference, the floor sqrt(2)*pi/4, is the restart radius's
    # minimum only for starts in (1 - sqrt(2), 1]; zero is such a start
    return len(state) > 0 and float(state[0]) == 0.0


#: every producer, in report-row order
_TABLE = (
    _Analysis(_Runner.exact_final_rows, _ANY_ROWS, ("riccati",),
              "exact_final_state", ("exact_final_state",), ("reference",)),
    _Analysis(_Runner.exact_radius_rows, "radius", ("riccati",),
              "series_radius_exact", ("series_radius_exact",)),
    _Analysis(_Runner.riccati_estimate_rows, "radius", ("riccati",),
              "radius_estimate", ("radius_estimate_{c}",)),
    _Analysis(_Runner.estimate_rows, "radius", ("lotka_volterra", "sir"),
              "radius_estimate", ("radius_estimate_{c}",)),
    _Analysis(_Runner.restart_min_rows, "radius", ("riccati",),
              "multistage_radius_min", ("multistage_radius_min",),
              start=_starts_at_zero),
    _Analysis(_Runner.riccati_multistage_rows, _MULTISTAGE, ("riccati",),
              "multistage_end_error",
              ("multistage_end_error", "multistage_final_state"),
              ("multistage",)),
    _Analysis(_Runner.multistage_vs_reference_rows, _MULTISTAGE,
              ("lotka_volterra", "sir"), "multistage_vs_reference",
              ("multistage_vs_reference",), ("multistage", "reference")),
    _Analysis(_Runner.population_rows, _ANY_ROWS, ("sir",),
              "population_conservation",
              ("series_population_drift", "reference_population_drift"),
              ("series", "reference")),
    _Analysis(_Runner.endpoints_rows, "endpoints", ("sir",), "endpoints",
              ("x_limit", "x_over", "x_peak", "y_peak")),
    _Analysis(_Runner.conserved_rows, "conserved", ("lotka_volterra",),
              "conserved",
              ("conserved_drift_reference", "conserved_violation_series"),
              ("series", "reference")),
    _Analysis(_Runner.phase_plane_rows, "phase_plane", ("lotka_volterra",),
              "phase_plane", needs=("series",)),
)

#: each [analyses] item and the models it applies to
ANALYSES = {
    item: tuple(m for m in MODELS
                if any(e.item == item and m in e.models for e in _TABLE))
    for item in dict.fromkeys(e.item for e in _TABLE)
    if item not in (_ANY_ROWS, _MULTISTAGE)
}


def _enabled(model_name, analyses, multistage: bool, initial_state):
    """The table entries a scenario runs, in report-row order."""
    switched_on = {_ANY_ROWS: bool(analyses) or multistage,
                   _MULTISTAGE: multistage}
    for entry in _TABLE:
        on = switched_on.get(entry.item, entry.item in analyses)
        if (on and model_name in entry.models
                and (entry.start is None or entry.start(initial_state))):
            yield entry


def run_scenario(config: ScenarioConfig, out_dir, fmt: str = "both",
                 tol: float = 1e-10) -> ComparisonReport:
    """Execute one validated scenario and write its artifacts.

    Creates ``out_dir/<scenario name>/`` containing trajectory CSVs, an
    overview SVG, and the report as text and CSV.  Numeric failures inside
    any analysis become failed report rows; they never abort the run.
    """
    if fmt not in ("csv", "svg", "both"):
        raise ValueError("fmt must be csv, svg or both")
    runner = _Runner(config, tol)
    report = runner.run()
    directory = Path(out_dir) / config.name
    directory.mkdir(parents=True, exist_ok=True)

    def traj_meta(tr):
        meta = {"scenario": config.name, "model": config.model_name,
                "provenance": tr.provenance}
        meta.update({k: v for k, v in tr.meta.items()})
        return meta

    columns = ["t", *runner.names]
    if fmt in ("csv", "both"):
        for tr, stem in ((runner.series_tr, "series"),
                         (runner.reference_tr, "reference"),
                         (runner.multistage_tr, "multistage")):
            if tr is not None:
                write_csv(directory / f"{stem}.csv", columns,
                          np.column_stack([tr.times, tr.states]), traj_meta(tr))
        if runner.series_solution is not None:
            coeffs = np.vstack([c.coefficients
                                for c in runner.series_solution.components])
            write_csv(
                directory / "series_coefficients.csv",
                ["k", *runner.names],
                [(k, *coeffs[:, k]) for k in range(config.series_order + 1)],
                meta={"scenario": config.name, "model": config.model_name,
                      "order": config.series_order},
            )
    if fmt in ("svg", "both"):
        plot = LinePlot(f"Scenario {config.name}", "t", "state")
        reference = runner.reference_tr
        for tr, stem, dash in ((reference, "reference", None),
                               (runner.series_tr, "series", "6,3")):
            if tr is not None:
                for i, name in enumerate(runner.names):
                    plot.add_curve(tr.times, tr.states[:, i],
                                   f"{name} ({stem})", dash=dash)
        if reference is not None:
            finite = reference.states[np.isfinite(reference.states).all(axis=1)]
            if finite.size:
                lo = float(finite.min())
                hi = float(finite.max())
                pad = 0.15 * (hi - lo if hi > lo else 1.0)
                plot.set_ylim(lo - pad, hi + pad)
        plot.write(directory / "timeseries.svg")
    report.write(directory)
    return report
