"""Declarative scenarios: INI configs, validation, and the runner that
turns one config into trajectories, figures and a comparison report.

A scenario names a model, a series order, a time grid, optional piecewise
stepping, and a list of analyses.  Every report row states its own pass
criterion; a reference value (with tolerance and a source note) attached to
a numeric quantity replaces that row's check with a comparison, in one
place, the runner's ``guard``.  One table, ``_TABLE``, lists every producer
of report rows with the models and analysis it runs on; validation and the
runner both read it.  The runner computes each run (series, multistage
path, reference solve, closed orbit) on its first read, for the producers,
the written trajectories and the figures alike.
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
from .exact import (
    ENDPOINT_TOL,
    _lv_integral,
    lv_conserved,
    riccati_exact,
    sir_curves,
    sir_endpoints,
    sir_y_of_x,
)
from .figures import artifact_writer, polyline_self_intersects
from .integrators import (
    REFERENCE_TOL,
    lv_closed_orbit,
    multistage_taylor,
    reference_integrate,
    sample_series,
)
from .models import MODELS, make_model
from .report import (
    ERROR_CRITERION,
    ComparisonReport,
    ReportRow,
    bool_row,
    check_row,
    compare_row,
    error_row,
    threshold_row,
)
from .series import generate_taylor_solution
from .svgplot import LinePlot

#: order used when a radius has to be estimated from coefficients, by the
#: radius rows and by default by ``serieslab radius``
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
    """A validated scenario; validate_config states every default."""

    name: str
    model_name: str
    params: dict
    initial_state: tuple
    t_end: float
    samples: int
    series_order: int
    multistage: MultistageSettings | None
    analyses: tuple
    references: tuple


#: the scalar options, read by one loop: section, option, type, default
#: (None: required), and the least value allowed with the message that
#: states it; ``[multistage]`` options are read only when that section is
#: present.  The least positive float makes "at least" read "positive".
_SCALARS = (
    ("series", "order", int, 5, 1, "must be at least 1"),
    ("multistage", "order", int, 5, 2, "must be at least 2"),
    ("multistage", "step", float, None, math.ulp(0.0), "must be positive"),
    ("grid", "t_end", float, None, math.ulp(0.0), "must be positive"),
    ("grid", "samples", int, 401, 2, "must be at least 2"),
)


def validate_config(raw: str):
    """Parse and validate a scenario config.

    Returns a ScenarioConfig when everything checks out, otherwise the full
    list of violations as ``field.path: message`` strings (never raises for
    content problems, so callers can show them all at once).  Every number
    the config holds must be finite.
    """
    errors: list[str] = []
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw)
    except configparser.Error as exc:
        return [f"syntax: {exc}"]

    def number(field, text, cast=float):
        """``text`` as a finite ``cast``, or None with the violation
        recorded under ``field``."""
        try:
            value = cast(text)
        except ValueError:
            what = "a number" if cast is float else "an integer"
            errors.append(f"{field}: not {what}: {text!r}")
            return None
        if not math.isfinite(value):
            errors.append(f"{field}: must be finite")
            return None
        return value

    name = parser.get("scenario", "name", fallback="").strip()
    if not name:
        errors.append("scenario.name: required")
    elif name in (".", "..") or "/" in name or "\\" in name:
        # run_scenario writes to <out>/<name>: one path component only
        errors.append("scenario.name: must be a plain file name")
    model_name = parser.get("scenario", "model", fallback="").strip()
    spec = MODELS.get(model_name)
    if spec is None:
        errors.append(f"scenario.model: unknown name {model_name!r}")

    state_text = parser.get("model", "initial_state", fallback="")
    initial_state = tuple(number("model.initial_state", v)
                          for v in state_text.split(",") if v.strip())
    params = {key: number(f"model.params.{key}", text)
              for key, text in (parser.items("model.params")
                                if parser.has_section("model.params") else ())}
    if spec is not None:
        errors += ["model." + p for p in spec.problems(params, initial_state)]

    has_multistage = parser.has_section("multistage")
    scalars = {}
    for section, option, cast, default, least, rule in _SCALARS:
        if section == "multistage" and not has_multistage:
            continue
        field = f"{section}.{option}"
        text = parser.get(section, option, fallback=None)
        if text is None:
            if default is None:
                errors.append(f"{field}: required")
            scalars[field] = default
            continue
        scalars[field] = number(field, text, cast)
        if scalars[field] is not None and scalars[field] < least:
            errors.append(f"{field}: {rule}")

    analyses_text = parser.get("analyses", "items", fallback="")
    analyses = tuple(a.strip() for a in analyses_text.split(",") if a.strip())
    for analysis in analyses:
        if analysis not in ANALYSES:
            errors.append(f"analyses.items: unknown analysis {analysis!r}")
        elif model_name not in ANALYSES[analysis]:
            errors.append(f"analyses.items: {analysis} requires "
                          f"{' or '.join(ANALYSES[analysis])}")

    references = []
    if parser.has_section("references"):
        # with a rejected start the rows that run are unknown: keys go unchecked
        components = spec.components if spec else ()
        allowed = None if None in initial_state else {
            key.format(c=c)
            for entry in _enabled(model_name, analyses, has_multistage,
                                  initial_state)
            for key in entry.refs for c in components}
        for key, text in parser.items("references"):
            parts = [p.strip() for p in text.split(",", 3)]
            if len(parts) != 4:
                errors.append(f"references.{key}: expected "
                              "'value, tolerance, abs|rel, source'")
                continue
            value = number(f"references.{key}", parts[0])
            tolerance = number(f"references.{key}", parts[1])
            kind = parts[2]
            if kind not in ("abs", "rel"):
                errors.append(f"references.{key}: kind must be abs or rel")
            elif tolerance is not None and tolerance < 0:
                errors.append(f"references.{key}: tolerance must be non-negative")
            elif allowed is not None and key not in allowed:
                errors.append(f"references.{key}: unknown quantity for this scenario")
            references.append(ReferenceValue(key, value, tolerance, kind, parts[3]))

    if errors:
        return errors
    return ScenarioConfig(
        name=name,
        model_name=model_name,
        params=params,
        initial_state=initial_state,
        t_end=scalars["grid.t_end"],
        samples=scalars["grid.samples"],
        series_order=scalars["series.order"],
        multistage=(MultistageSettings(scalars["multistage.order"],
                                       scalars["multistage.step"])
                    if has_multistage else None),
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


def _endpoint_limit(rho, x):
    """Admissible residual of an epidemic endpoint equation at its root x.

    The root is located to ENDPOINT_TOL relative in x (in s = ln(x/x0)),
    so the residual scales with the slope rho - x of the equation in s,
    with a factor 10 to spare.  Above x = 1 the bound is that of a root
    located to ENDPOINT_TOL absolute in x, the tighter of the two."""
    return max(1e-9, 10 * ENDPOINT_TOL * abs(rho - x) / max(1.0, x))


def _run(compute):
    """A run of the _Runner, computed on its first read and at most once.
    A numerical failure is kept and raised again on every later read, so
    each producer that reads a failed run ends in that failure."""
    def read(runner):
        if compute not in runner.runs:
            try:
                runner.runs[compute] = compute(runner)
            except NUMERICAL_FAILURES as exc:
                runner.runs[compute] = exc
        outcome = runner.runs[compute]
        if isinstance(outcome, NUMERICAL_FAILURES):
            raise outcome
        return outcome

    return property(read, doc=compute.__doc__)


class _Runner:
    def __init__(self, config: ScenarioConfig, tol: float = REFERENCE_TOL):
        self.config = config
        self.tol = tol
        self.model = make_model(config.model_name, config.params,
                                config.initial_state)
        self.names = self.model.spec.components
        self.grid = np.linspace(0.0, config.t_end, config.samples)
        self.refs = {rv.quantity: rv for rv in config.references}
        self.rows: list[ReportRow] = []
        self.runs: dict = {}  # each run's result or numerical failure

    # -- runs, each read by the producers, run_scenario and the figures --

    @_run
    def series_solution(self):
        return generate_taylor_solution(self.model, self.config.series_order)

    @_run
    def series_tr(self):
        return sample_series(self.series_solution, self.grid)

    @_run
    def multistage_tr(self):
        """The piecewise series path, or None without [multistage]."""
        stages = self.config.multistage
        if stages is None:
            return None
        return multistage_taylor(self.model, stages.order, stages.step,
                                 self.config.t_end)

    @_run
    def reference_tr(self):
        return reference_integrate(self.model, self.config.t_end, self.tol,
                                   grid=self.grid)

    @_run
    def orbit(self):
        """The period and one closed orbit of a predator-prey start."""
        return lv_closed_orbit(self.model)

    def guard(self, quantity, producer):
        """Add the producer's rows, or one error row if it fails
        numerically, as it does on reading a failed run; a programming
        error (TypeError, KeyError, ...) is not a result and propagates.
        A row whose quantity has a configured reference is compared with
        it in place of the row's own check; an error row stays as it is."""
        try:
            rows = producer()
        except NUMERICAL_FAILURES as exc:
            rows = [error_row(quantity, exc)]
        for row in rows:
            rv = self.refs.get(row.quantity)
            if rv is not None and row.criterion != ERROR_CRITERION:
                row = compare_row(row.quantity, row.computed, rv.value,
                                  rv.tolerance, rv.kind, rv.source)
            self.rows.append(row)

    @cached_property
    def exact_radius(self):
        # one closed-form radius serves the exact row and the estimate's check
        return riccati_radius(float(self.model.initial_state[0])).radius

    # -- producers, each listed in _TABLE --------------------------------

    def exact_final_rows(self):
        y0 = float(self.model.initial_state[0])
        reference = float(self.reference_tr.states[-1, 0])
        tol_abs = max(1e-8, 1e3 * self.tol * max(1.0, abs(reference)))
        return [compare_row(
            "exact_final_state", riccati_exact(y0, self.config.t_end),
            reference, tol_abs, "abs", "reference integrator end state")]

    def exact_radius_rows(self):
        radius = self.exact_radius
        return [check_row("series_radius_exact", radius, radius > 0,
                          "radius is positive", "closed-form pole location")]

    def estimate_rows(self):
        """The trailing-ratio radius of each component, compared with the
        closed-form radius for the scalar model; a component whose tail
        admits no ratio test becomes its own error row."""
        out = []
        exact = self.exact_radius if self.model.spec is MODELS["riccati"] else None
        est_sol = generate_taylor_solution(self.model, ESTIMATE_ORDER)
        for name, comp in zip(self.names, est_sol.components):
            quantity = f"radius_estimate_{name}"
            try:
                est = estimate_radius(comp).radius
            except NotEstimableError as exc:
                out.append(error_row(quantity, exc))
                continue
            if exact is None:
                out.append(check_row(
                    quantity, est, math.isfinite(est) and est > 0,
                    "estimate is finite and positive",
                    f"trailing-ratio estimate at order {ESTIMATE_ORDER}"))
            else:
                out.append(compare_row(
                    quantity, est, exact, 0.15, "rel",
                    "closed-form radius (ratio test should land nearby)"))
        return out

    def restart_min_rows(self):
        from scipy.optimize import minimize_scalar

        y0 = float(self.model.initial_state[0])
        span = max(10.0, self.config.t_end)
        coarse = riccati_radii(y0, np.linspace(0.0, span, 2001))
        best = minimize_scalar(
            lambda t: riccati_radii(y0, t),
            bounds=(0.0, span), method="bounded", options={"xatol": 1e-12})
        computed = min(float(np.min(coarse)), float(best.fun))
        return [compare_row("multistage_radius_min", computed,
                            MULTISTAGE_RADIUS_FLOOR, 1e-3, "rel",
                            "analytic lower bound sqrt(2)*pi/4")]

    def riccati_multistage_rows(self):
        end = float(self.multistage_tr.states[-1, 0])
        exact_end = riccati_exact(float(self.model.initial_state[0]),
                                  self.config.t_end)
        rows = [threshold_row("multistage_end_error", abs(end - exact_end),
                              1e-4, "piecewise series against the closed form")]
        if "multistage_final_state" in self.refs:
            # reported only to be compared with its reference (see guard)
            rows.append(check_row("multistage_final_state", end,
                                  math.isfinite(end), "end state is finite",
                                  "piecewise series end state"))
        return rows

    def multistage_vs_reference_rows(self):
        stages = self.multistage_tr
        # DOP853's steps do not depend on t_eval: this solve takes the plot
        # grid's steps
        reference = reference_integrate(self.model, self.config.t_end,
                                        self.tol, grid=stages.times)
        err = float(np.max(np.abs(stages.states - reference.states)))
        return [threshold_row(
            "multistage_vs_reference", err, 1e-4,
            "piecewise series against the reference integrator")]

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
            threshold_row("series_population_drift", drift_series, limit,
                          "coefficient sums vanish order by order"),
            threshold_row("reference_population_drift", drift_ref, 1e-8,
                          "total population along the reference trajectory"),
        ]

    def endpoints_rows(self):
        model = self.model
        ends = sir_endpoints(model)
        x0, y0 = (float(v) for v in model.initial_state[:2])
        rho = model.params["gamma"] / model.params["beta"]
        resid = abs(sir_y_of_x(ends.x_limit, model))
        limit = _endpoint_limit(rho, ends.x_limit)
        out = [
            check_row("x_limit", ends.x_limit, resid <= limit,
                      f"|infectives(x_limit)| <= {limit:g}",
                      "root of the die-out equation"),
            bool_row("epidemic_occurs", ends.epidemic_occurs, x0 > rho,
                     "threshold x0 > gamma/beta"),
        ]
        if ends.epidemic_occurs:
            resid_over = abs(sir_y_of_x(ends.x_over, model) - y0)
            limit = _endpoint_limit(rho, ends.x_over)
            xg = np.geomspace(ends.x_limit * 1.001, x0, 4001)
            grid_max = float(np.max(sir_curves(xg, model)[0]))
            out += [
                check_row("x_over", ends.x_over, resid_over <= limit,
                          f"|residual of the return equation| <= {limit:g}",
                          "nontrivial root of the return equation"),
                compare_row("x_peak", ends.x_peak, rho, 0.0, "abs",
                            "peak location gamma/beta"),
                check_row("y_peak", ends.y_peak, grid_max <= ends.y_peak + 1e-9,
                          "no larger infective count on a dense susceptible grid",
                          "infectives evaluated at the peak"),
                bool_row("endpoint_ordering",
                         ends.x_limit < ends.x_over < ends.x_peak < x0, True,
                         "die-out, return, peak and start must be ordered"),
            ]
        return out

    def conserved_rows(self):
        series, reference = self.series_tr, self.reference_tr
        p = self.model.params
        rates = (p["a"], p["b"], p["c"], p["d"])
        # a start on an axis has no first integral: h0 raises.  From any
        # other both populations are solved in w, which the drift reads
        h0 = lv_conserved(*(float(v) for v in self.model.initial_state), *rates)
        drift = max(abs(_lv_integral(*w, *u, *rates) - h0) for w, u in
                    zip(reference.log_states.tolist(), reference.states.tolist()))
        # leaving the positive quadrant is an unbounded violation: the
        # conserved level set never touches the axes
        violation = 0.0
        for t, (x, y) in zip(series.times, series.states):
            if t > min(4.0, self.config.t_end):
                break
            if x <= 0 or y <= 0:
                violation = math.inf
                break
            violation = max(violation, abs(
                lv_conserved(float(x), float(y), *rates) - h0))
        return [
            # c ln x + a ln y - d x - b y, and so its rounding and the solve's
            # error, grow with a and c (d x and b y are c and a at the center)
            threshold_row("conserved_drift_reference", drift,
                          1e-6 * max(1.0, p["a"], p["c"]),
                          "first integral along the reference trajectory"),
            threshold_row("conserved_violation_series", violation, 1.0,
                          "series points abandon the conserved curve", "above"),
            # every finite w = ln u is a positive population, underflowed or not
            bool_row("reference_stays_positive",
                     bool(np.all(np.isfinite(reference.log_states))), True,
                     "true orbits stay in the open positive quadrant"),
        ]

    def phase_plane_rows(self):
        series = self.series_tr
        _, orbit = self.orbit
        return [
            bool_row("series_curve_self_intersects",
                     polyline_self_intersects(series.states), True,
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
            self.guard(entry.quantity, partial(entry.produce, self))
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
    start: Callable | None = None  # further condition on the initial state


def _starts_at_zero(state) -> bool:
    # the row's reference, the floor sqrt(2)*pi/4, is the restart radius's
    # minimum only for starts in (1 - sqrt(2), 1]; zero is such a start
    return len(state) > 0 and float(state[0]) == 0.0


#: every producer, in report-row order
_TABLE = (
    _Analysis(_Runner.exact_final_rows, _ANY_ROWS, ("riccati",),
              "exact_final_state", ("exact_final_state",)),
    _Analysis(_Runner.exact_radius_rows, "radius", ("riccati",),
              "series_radius_exact", ("series_radius_exact",)),
    _Analysis(_Runner.estimate_rows, "radius", ("riccati", "lotka_volterra", "sir"),
              "radius_estimate", ("radius_estimate_{c}",)),
    _Analysis(_Runner.restart_min_rows, "radius", ("riccati",),
              "multistage_radius_min", ("multistage_radius_min",),
              start=_starts_at_zero),
    _Analysis(_Runner.riccati_multistage_rows, _MULTISTAGE, ("riccati",),
              "multistage_end_error",
              ("multistage_end_error", "multistage_final_state")),
    _Analysis(_Runner.multistage_vs_reference_rows, _MULTISTAGE,
              ("lotka_volterra", "sir"), "multistage_vs_reference",
              ("multistage_vs_reference",)),
    _Analysis(_Runner.population_rows, _ANY_ROWS, ("sir",),
              "population_conservation",
              ("series_population_drift", "reference_population_drift")),
    _Analysis(_Runner.endpoints_rows, "endpoints", ("sir",), "endpoints",
              ("x_limit", "x_over", "x_peak", "y_peak")),
    _Analysis(_Runner.conserved_rows, "conserved", ("lotka_volterra",),
              "conserved",
              ("conserved_drift_reference", "conserved_violation_series")),
    _Analysis(_Runner.phase_plane_rows, "phase_plane", ("lotka_volterra",),
              "phase_plane"),
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
                 tol: float = REFERENCE_TOL) -> ComparisonReport:
    """Execute one validated scenario and write its artifacts.

    Creates ``out_dir/<scenario name>/`` containing trajectory CSVs, an
    overview SVG (as ``fmt`` selects, through ``artifact_writer``), and the
    report as text and CSV in every format.  Numeric failures inside any
    analysis become failed report rows; they never abort the run.
    """
    write = artifact_writer(fmt)
    runner = _Runner(config, tol)
    report = runner.run()
    directory = Path(out_dir) / config.name

    def succeeded(run):
        # a failed run is left out: the rows that read it say why it failed
        try:
            return getattr(runner, run)
        except NUMERICAL_FAILURES:
            return None

    series, reference = succeeded("series_tr"), succeeded("reference_tr")
    columns = ["t", *runner.names]
    tables = [(f"{stem}.csv", columns, np.column_stack([tr.times, tr.states]),
               {"scenario": config.name, "model": config.model_name,
                "provenance": tr.provenance, **tr.meta})
              for tr, stem in ((series, "series"), (reference, "reference"),
                               (succeeded("multistage_tr"), "multistage"))
              if tr is not None]
    solution = succeeded("series_solution")
    if solution is not None:
        coeffs = np.vstack([c.coefficients for c in solution.components])
        tables.append((
            "series_coefficients.csv", ["k", *runner.names],
            [(k, *coeffs[:, k]) for k in range(config.series_order + 1)],
            {"scenario": config.name, "model": config.model_name,
             "order": config.series_order}))
    plot = LinePlot(f"Scenario {config.name}", "t", "state")
    for tr, stem, dash in ((reference, "reference", None),
                           (series, "series", "6,3")):
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
    write(directory, tables, ("timeseries.svg", plot))
    report.write(directory)
    return report
