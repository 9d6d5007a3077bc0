"""Declarative scenarios: INI configs, validation, and the runner that
turns one config into trajectories, figures and a comparison report.

A scenario names a model, a series order, a time grid, optional piecewise
stepping, and a list of analyses.  Reference values (with tolerances and a
source note) can be attached to any reported quantity; without one, each
quantity falls back to a self-consistency check, so every report row always
carries an explicit pass criterion.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import minimize_scalar

from .convergence import (
    MULTISTAGE_RADIUS_FLOOR,
    NotEstimableError,
    estimate_radius,
    riccati_multistage_radius,
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
from .models import make_model
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

KNOWN_MODELS = {"riccati": 1, "lotka_volterra": 2, "sir": 3}
ANALYSES = ("radius", "endpoints", "conserved", "phase_plane")
COMPONENT_NAMES = {
    "riccati": ("y",),
    "lotka_volterra": ("x", "y"),
    "sir": ("x", "y", "z"),
}
REQUIRED_PARAMS = {
    "riccati": (),
    "lotka_volterra": ("a", "b", "c", "d"),
    "sir": ("beta", "gamma"),
}

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


def known_quantities(model_name: str, initial_state, analyses,
                     has_multistage: bool) -> set[str]:
    """Quantity names a scenario can report, used to validate references."""
    q: set[str] = set()
    any_rows = bool(analyses) or has_multistage
    if model_name == "riccati":
        if any_rows:
            q.add("exact_final_state")
        if "radius" in analyses:
            q |= {"series_radius_exact", "radius_estimate_y"}
            if initial_state and float(initial_state[0]) == 0.0:
                q.add("multistage_radius_min")
        if has_multistage:
            q |= {"multistage_end_error", "multistage_final_state"}
    elif model_name == "lotka_volterra":
        if "radius" in analyses:
            q |= {"radius_estimate_x", "radius_estimate_y"}
        if "conserved" in analyses:
            q |= {
                "conserved_drift_reference",
                "conserved_violation_series",
                "reference_stays_positive",
            }
        if "phase_plane" in analyses:
            q |= {"series_curve_self_intersects", "exact_orbit_self_intersects"}
        if has_multistage:
            q.add("multistage_vs_reference")
    elif model_name == "sir":
        if any_rows:
            q |= {"series_population_drift", "reference_population_drift"}
        if "radius" in analyses:
            q |= {"radius_estimate_x", "radius_estimate_y", "radius_estimate_z"}
        if "endpoints" in analyses:
            q |= {
                "x_limit",
                "x_over",
                "x_peak",
                "y_peak",
                "endpoint_ordering",
                "epidemic_occurs",
            }
        if has_multistage:
            q.add("multistage_vs_reference")
    return q


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

    def get_float(section, option, default=None):
        text = get(section, option)
        if text is None:
            return default
        try:
            return float(text)
        except ValueError:
            errors.append(f"{section}.{option}: not a number: {text!r}")
            return None

    def get_int(section, option, default=None):
        text = get(section, option)
        if text is None:
            return default
        try:
            return int(text)
        except ValueError:
            errors.append(f"{section}.{option}: not an integer: {text!r}")
            return None

    name = (get("scenario", "name") or "").strip()
    if not name:
        errors.append("scenario.name: required")
    model_name = (get("scenario", "model") or "").strip()
    if model_name not in KNOWN_MODELS:
        errors.append(f"scenario.model: unknown name {model_name!r}")

    state_text = get("model", "initial_state", "")
    initial_state: tuple = ()
    try:
        initial_state = tuple(float(v) for v in state_text.split(",") if v.strip())
    except ValueError:
        errors.append(f"model.initial_state: not a number list: {state_text!r}")
    if model_name in KNOWN_MODELS:
        dim = KNOWN_MODELS[model_name]
        if len(initial_state) != dim:
            errors.append(
                f"model.initial_state: expected {dim} component(s) for "
                f"{model_name}, got {len(initial_state)}"
            )
        elif model_name in ("lotka_volterra", "sir") and any(v < 0 for v in initial_state):
            errors.append("model.initial_state: components must be non-negative")

    params: dict = {}
    if parser.has_section("model.params"):
        for key in parser.options("model.params"):
            value = get_float("model.params", key)
            if value is not None:
                params[key] = value
    if model_name in KNOWN_MODELS:
        required = set(REQUIRED_PARAMS[model_name])
        missing = required - set(params)
        extra = set(params) - required
        for key in sorted(missing):
            errors.append(f"model.params.{key}: required for {model_name}")
        for key in sorted(extra):
            errors.append(f"model.params.{key}: unknown parameter for {model_name}")
        for key in sorted(required & set(params)):
            if not params[key] > 0:
                errors.append(f"model.params.{key}: must be positive")

    series_order = get_int("series", "order", 5)
    if series_order is not None and series_order < 1:
        errors.append("series.order: must be at least 1")

    multistage = None
    if parser.has_section("multistage"):
        ms_order = get_int("multistage", "order", 5)
        ms_step = get_float("multistage", "step")
        if ms_step is None:
            errors.append("multistage.step: required")
        elif not ms_step > 0:
            errors.append("multistage.step: must be positive")
        if ms_order is not None and ms_order < 2:
            errors.append("multistage.order: must be at least 2")
        if ms_order is not None and ms_step is not None and ms_step > 0:
            multistage = MultistageSettings(ms_order, ms_step)

    t_end = get_float("grid", "t_end")
    if t_end is None:
        errors.append("grid.t_end: required")
    elif not t_end > 0:
        errors.append("grid.t_end: must be positive")
    samples = get_int("grid", "samples", 401)
    if samples is not None and samples < 2:
        errors.append("grid.samples: must be at least 2")

    analyses_text = get("analyses", "items", "") or ""
    analyses = tuple(a.strip() for a in analyses_text.split(",") if a.strip())
    for analysis in analyses:
        if analysis not in ANALYSES:
            errors.append(f"analyses.items: unknown analysis {analysis!r}")
        elif analysis == "endpoints" and model_name != "sir":
            errors.append("analyses.items: endpoints requires sir")
        elif analysis in ("conserved", "phase_plane") and model_name != "lotka_volterra":
            errors.append(f"analyses.items: {analysis} requires lotka_volterra")

    references = []
    if parser.has_section("references"):
        allowed = known_quantities(model_name, initial_state, analyses,
                                   multistage is not None)
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
    # control keeps the logarithmic invariant meaningful
    return DEEP_DECAY_ATOL if model.label == "lotka_volterra" else None


def _restrict(trajectory: Trajectory, times) -> Trajectory:
    """The samples of ``trajectory`` at ``times``, each one of its times."""
    index = np.searchsorted(trajectory.times, times)
    return Trajectory(trajectory.times[index], trajectory.states[index],
                      trajectory.provenance, dict(trajectory.meta))


class _Runner:
    def __init__(self, config: ScenarioConfig, tol: float):
        self.config = config
        self.tol = tol
        self.model = make_model(config.model_name, config.params,
                                config.initial_state)
        self.names = COMPONENT_NAMES[config.model_name]
        self.grid = np.linspace(0.0, config.t_end, config.samples)
        self.refs = {rv.quantity: rv for rv in config.references}
        self.rows: list[ReportRow] = []
        self.series_solution = generate_taylor_solution(
            self.model, config.series_order)
        self.series_tr = sample_series(self.series_solution, self.grid)
        self.multistage_tr = None
        self.multistage_failure = None
        nodes = self.grid
        if config.multistage:
            try:
                self.multistage_tr = multistage_taylor(
                    self.model, config.multistage.order, config.multistage.step,
                    config.t_end)
            except NUMERICAL_FAILURES as exc:
                # reported as the multistage row; the rest of the run goes on
                self.multistage_failure = exc
            else:
                nodes = np.union1d(self.grid, self.multistage_tr.times)
        self.reference_tr = None
        self.reference_nodes = None
        self.reference_failure = None
        # one solve serves both grids: solve_ivp's steps do not depend on
        # t_eval, so each grid reads the same dense output as a solve of
        # its own would
        try:
            solved = reference_integrate(
                self.model, config.t_end, tol, grid=nodes,
                atol=_lv_atol(self.model))
        except NUMERICAL_FAILURES as exc:
            # a blow-up start: reported as the rows that read the reference
            self.reference_failure = exc
        else:
            self.reference_tr = _restrict(solved, self.grid)
            if self.multistage_tr is not None:
                self.reference_nodes = _restrict(solved,
                                                 self.multistage_tr.times)

    # -- row helpers -----------------------------------------------------

    def guard(self, quantity, producer, *needs):
        """Add the producer's rows, or one error row if it fails
        numerically or if a run it ``needs`` (the failure of the reference
        or multistage run, None when that run succeeded) failed; a
        programming error (TypeError, KeyError, ...) is not a result and
        propagates."""
        failure = next((exc for exc in needs if exc is not None), None)
        if failure is not None:
            self.rows.append(error_row(quantity, failure))
            return
        try:
            rows = producer()
        except NUMERICAL_FAILURES as exc:
            self.rows.append(error_row(quantity, exc))
            return
        self.rows.extend(rows)

    def with_reference(self, quantity, computed, default_reference,
                       default_tol, default_kind, default_source):
        rv = self.refs.get(quantity)
        if rv is not None:
            return compare_row(quantity, computed, rv.value, rv.tolerance,
                               rv.kind, rv.source)
        return compare_row(quantity, computed, default_reference, default_tol,
                           default_kind, default_source)

    def with_threshold(self, quantity, computed, default_limit, source,
                       direction="below"):
        rv = self.refs.get(quantity)
        if rv is not None:
            return compare_row(quantity, computed, rv.value, rv.tolerance,
                               rv.kind, rv.source)
        return threshold_row(quantity, computed, default_limit, source,
                             direction)

    # -- producers -------------------------------------------------------

    def riccati_rows(self):
        y0 = float(self.model.initial_state[0])

        def exact_final():
            computed = riccati_exact(y0, self.config.t_end)
            reference = float(self.reference_tr.states[-1, 0])
            tol_abs = max(1e-8, 1e3 * self.tol * max(1.0, abs(reference)))
            return [self.with_reference(
                "exact_final_state", computed, reference, tol_abs, "abs",
                "reference integrator end state")]

        self.guard("exact_final_state", exact_final, self.reference_failure)

        if "radius" in self.config.analyses:
            def radius_rows():
                rows = []
                exact_rad = riccati_radius(y0).radius
                rv = self.refs.get("series_radius_exact")
                if rv is not None:
                    rows.append(compare_row("series_radius_exact", exact_rad,
                                            rv.value, rv.tolerance, rv.kind,
                                            rv.source))
                else:
                    rows.append(ReportRow(
                        "series_radius_exact", exact_rad, None, None,
                        math.isfinite(exact_rad) and exact_rad > 0
                        or exact_rad == math.inf,
                        "radius is positive", "closed-form pole location"))
                est_sol = generate_taylor_solution(self.model, ESTIMATE_ORDER)
                est = estimate_radius(est_sol.components[0]).radius
                rows.append(self.with_reference(
                    "radius_estimate_y", est, exact_rad, 0.15, "rel",
                    "closed-form radius (ratio test should land nearby)"))
                return rows

            self.guard("series_radius_exact", radius_rows)

            if y0 == 0.0:
                def restart_min():
                    span = max(10.0, self.config.t_end)
                    coarse = np.linspace(0.0, span, 2001)
                    values = [riccati_multistage_radius(t).radius for t in coarse]
                    best = minimize_scalar(
                        lambda t: riccati_multistage_radius(t).radius,
                        bounds=(0.0, span), method="bounded",
                        options={"xatol": 1e-12})
                    computed = min(float(np.min(values)), float(best.fun))
                    return [self.with_reference(
                        "multistage_radius_min", computed,
                        MULTISTAGE_RADIUS_FLOOR, 1e-3, "rel",
                        "analytic lower bound sqrt(2)*pi/4")]

                self.guard("multistage_radius_min", restart_min)

        if self.config.multistage:
            def multistage_rows():
                rows = []
                exact_end = riccati_exact(y0, self.config.t_end)
                err = abs(float(self.multistage_tr.states[-1, 0]) - exact_end)
                rows.append(self.with_threshold(
                    "multistage_end_error", err, 1e-4,
                    "piecewise series against the closed form"))
                rv = self.refs.get("multistage_final_state")
                if rv is not None:
                    rows.append(compare_row(
                        "multistage_final_state",
                        float(self.multistage_tr.states[-1, 0]),
                        rv.value, rv.tolerance, rv.kind, rv.source))
                return rows

            self.guard("multistage_end_error", multistage_rows,
                       self.multistage_failure)

    def estimate_rows(self):
        def rows():
            out = []
            est_sol = generate_taylor_solution(self.model, ESTIMATE_ORDER)
            for name, comp in zip(self.names, est_sol.components):
                quantity = f"radius_estimate_{name}"
                try:
                    est = estimate_radius(comp).radius
                except NotEstimableError as exc:
                    out.append(error_row(quantity, exc))
                    continue
                rv = self.refs.get(quantity)
                if rv is not None:
                    out.append(compare_row(quantity, est, rv.value,
                                           rv.tolerance, rv.kind, rv.source))
                else:
                    out.append(ReportRow(
                        quantity, est, None, None,
                        math.isfinite(est) and est > 0,
                        "estimate is finite and positive",
                        "trailing-ratio estimate at order "
                        f"{ESTIMATE_ORDER}"))
            return out

        self.guard("radius_estimate", rows)

    def endpoints_rows(self):
        def rows():
            out = []
            model = self.model
            ends = sir_endpoints(model)
            x0 = float(model.initial_state[0])
            y0 = float(model.initial_state[1])
            rho = model.params["gamma"] / model.params["beta"]
            resid = abs(sir_y_of_x(ends.x_limit, model))
            rv = self.refs.get("x_limit")
            if rv is not None:
                out.append(compare_row("x_limit", ends.x_limit, rv.value,
                                       rv.tolerance, rv.kind, rv.source))
            else:
                # the root is located to 1e-12 in x; the admissible residual
                # scales with the slope of the die-out equation there
                limit = max(1e-9, 1e-11 * abs(rho / ends.x_limit - 1.0))
                out.append(ReportRow(
                    "x_limit", ends.x_limit, None, None, resid <= limit,
                    f"|infectives(x_limit)| <= {limit:g}",
                    "root of the die-out equation"))
            out.append(bool_row("epidemic_occurs", ends.epidemic_occurs,
                                x0 > rho, "threshold x0 > gamma/beta"))
            if ends.epidemic_occurs:
                rv = self.refs.get("x_over")
                if rv is not None:
                    out.append(compare_row("x_over", ends.x_over, rv.value,
                                           rv.tolerance, rv.kind, rv.source))
                else:
                    resid_over = abs(x0 - ends.x_over
                                     + rho * math.log(ends.x_over / x0))
                    limit = max(1e-9, 1e-11 * abs(rho / ends.x_over - 1.0))
                    out.append(ReportRow(
                        "x_over", ends.x_over, None, None,
                        resid_over <= limit,
                        f"|residual of the return equation| <= {limit:g}",
                        "nontrivial root of the return equation"))
                out.append(self.with_reference(
                    "x_peak", ends.x_peak, rho, 0.0, "abs",
                    "peak location gamma/beta"))
                xg = np.geomspace(ends.x_limit * 1.001, x0, 4001)
                grid_max = float(np.max(sir_curves(xg, model)[0]))
                rv = self.refs.get("y_peak")
                if rv is not None:
                    out.append(compare_row("y_peak", ends.y_peak, rv.value,
                                           rv.tolerance, rv.kind, rv.source))
                else:
                    out.append(ReportRow(
                        "y_peak", ends.y_peak, None, None,
                        grid_max <= ends.y_peak + 1e-9,
                        "no larger infective count on a dense susceptible grid",
                        "infectives evaluated at the peak"))
                out.append(bool_row(
                    "endpoint_ordering",
                    ends.x_limit < ends.x_over < ends.x_peak < x0,
                    True, "die-out, return, peak and start must be ordered"))
            return out

        self.guard("endpoints", rows)

    def sir_population_rows(self):
        def rows():
            coeff = np.vstack([c.coefficients
                               for c in self.series_solution.components])
            per_order = np.abs(coeff[:, 1:].sum(axis=0))
            drift_series = float(per_order.max()) if per_order.size else 0.0
            # rounding in the coefficient sums scales with the largest
            # coefficient, so fast parameter sets get a proportionate floor
            limit = max(1e-12,
                        16 * np.finfo(float).eps * float(np.abs(coeff).max()))
            total0 = float(np.sum(self.model.initial_state))
            drift_ref = float(np.max(np.abs(
                self.reference_tr.states.sum(axis=1) - total0)))
            return [
                self.with_threshold(
                    "series_population_drift", drift_series, limit,
                    "coefficient sums vanish order by order"),
                self.with_threshold(
                    "reference_population_drift", drift_ref, 1e-8,
                    "total population along the reference trajectory"),
            ]

        self.guard("population_conservation", rows, self.reference_failure)

    def conserved_rows(self):
        p = self.model.params
        x0, y0 = (float(v) for v in self.model.initial_state)

        def rows():
            out = []
            h0 = lv_conserved(x0, y0, p["a"], p["b"], p["c"], p["d"])
            drift = max(
                abs(lv_conserved(float(x), float(y),
                                 p["a"], p["b"], p["c"], p["d"]) - h0)
                for x, y in self.reference_tr.states)
            out.append(self.with_threshold(
                "conserved_drift_reference", drift, 1e-6,
                "first integral along the reference trajectory"))
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
                    lv_conserved(float(x), float(y),
                                 p["a"], p["b"], p["c"], p["d"]) - h0))
            out.append(self.with_threshold(
                "conserved_violation_series", violation, 1.0,
                "series points abandon the conserved curve", "above"))
            out.append(bool_row(
                "reference_stays_positive",
                bool(np.all(self.reference_tr.states > 0)), True,
                "true orbits stay in the open positive quadrant"))
            return out

        self.guard("conserved", rows, self.reference_failure)

    def phase_plane_rows(self):
        def rows():
            out = [bool_row(
                "series_curve_self_intersects",
                polyline_self_intersects(self.series_tr.states), True,
                "series phase curves cross themselves beyond the radius")]
            _, orbit = lv_closed_orbit(self.model, self.tol)
            out.append(bool_row(
                "exact_orbit_self_intersects",
                polyline_self_intersects(orbit.states), False,
                "a true closed orbit cannot cross itself"))
            return out

        self.guard("phase_plane", rows)

    def generic_multistage_rows(self):
        def rows():
            err = float(np.max(np.abs(
                self.multistage_tr.states - self.reference_nodes.states)))
            return [self.with_threshold(
                "multistage_vs_reference", err, 1e-4,
                "piecewise series against the reference integrator")]

        self.guard("multistage_vs_reference", rows, self.multistage_failure,
                   self.reference_failure)

    # -- driver ----------------------------------------------------------

    def run(self) -> ComparisonReport:
        config = self.config
        # an empty analysis list with no multistage section means
        # trajectories only: the report table stays empty
        any_rows = bool(config.analyses) or config.multistage is not None
        if config.model_name == "riccati":
            if any_rows:
                self.riccati_rows()
        else:
            if "radius" in config.analyses:
                self.estimate_rows()
            if config.multistage:
                self.generic_multistage_rows()
        if config.model_name == "sir":
            if any_rows:
                self.sir_population_rows()
            if "endpoints" in config.analyses:
                self.endpoints_rows()
        if config.model_name == "lotka_volterra":
            if "conserved" in config.analyses:
                self.conserved_rows()
            if "phase_plane" in config.analyses:
                self.phase_plane_rows()
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
