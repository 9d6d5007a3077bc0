"""Time integration: piecewise series stepping and a reference integrator.

Re-expanding the Taylor series about the current state every ``step``
units of time turns the local series into a perfectly good fixed-step
integrator, provided the step stays below the local convergence radius.
The step is deliberately user-chosen, not adaptive: the point of this lab
is to make the radius constraint visible, not to hide it.

Ground truth comes from an embedded adaptive Runge-Kutta pair (DOP853)
with mixed absolute/relative error control.  One such solve, stopped at
two crossings of a level, gives a predator-prey orbit and its period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain

import numpy as np

from .models import MODELS, ModelInstance
from .series import (DIVERGENCE_LIMIT, SeriesSolution, _compile, eval_series,
                     stage_loop)

PROVENANCES = ("series", "multistage", "reference")

#: the largest t_end / step of piecewise series stepping: at 1.6-3.7 us
#: and about 250 bytes a stage below order 9 (32 us at order 20), at most
#: about 0.4 s and 25 MB there, where the presets take 50 stages; and each
#: step stays far above an ulp of t, so every stage advances t
MAX_STAGES = 100_000


class DivergenceError(ArithmeticError):
    """A multistage step produced a non-finite or absurdly large state."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


class IntegrationError(ArithmeticError):
    """The reference integrator could not continue (blow-up, stiffness)."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled states over time with a provenance tag.

    ``states`` has one row per entry of ``times``; ``meta`` records how
    the trajectory was produced (order, step, tolerance, ...).  A solve in
    w = ln u keeps w as ``log_states``, NaN in the columns solved in u.
    """

    times: np.ndarray
    states: np.ndarray
    provenance: str
    meta: dict = field(default_factory=dict)
    log_states: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, np.newaxis]
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if self.log_states is not None:
            log_states = np.asarray(self.log_states, dtype=float)
            log_states.flags.writeable = False
            object.__setattr__(self, "log_states", log_states)
            if log_states.shape != states.shape:
                raise ValueError("log_states must have the shape of states")
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if times.ndim != 1 or times.size < 1:
            raise ValueError("times must be a non-empty 1-D vector")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if states.shape[0] != times.size:
            raise ValueError("states must have one row per sample time")


def multistage_taylor(
    model: ModelInstance, order: int, step: float, t_end: float
) -> Trajectory:
    """Advance by repeated series re-expansion with a fixed step.

    Each stage generates the order-``order`` series about the current
    state and evaluates it at the step (the final stage shrinks to land
    exactly on ``t_end``).  Local error per stage is O(step**(order+1))
    while the step stays inside the local convergence radius; beyond it
    the iteration degrades fast and usually trips the divergence guard.
    The order must be at least 2, the step positive, ``t_end`` positive
    and finite and ``t_end / step`` at most ``MAX_STAGES``; the stages
    run in ``series.stage_loop``.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    if not step > 0:
        raise ValueError("step must be positive")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if t_end / step > MAX_STAGES:
        raise ValueError(f"t_end / step must be at most {MAX_STAGES}")
    plan = model.field.plan
    times, states, failed = stage_loop(plan.shape, order)(
        model.initial_state.tolist(), plan.coefficients, step, t_end)
    if failed is not None:
        t = times[-1]
        raise DivergenceError(
            f"state diverged at stage {failed} (t={t + min(step, t_end - t):.6g}); "
            "the step likely exceeds the local convergence radius",
            step_index=failed,
        )
    dim = model.field.dimension
    return Trajectory(
        np.array(times),
        np.fromiter(chain.from_iterable(states), float,
                    count=dim * len(states)).reshape(-1, dim),
        "multistage",
        meta={"order": order, "step": step, "t_end": t_end},
    )


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on the first reference solve so that
    the series layers load without scipy; a module global, so a caller can
    rebind it to observe every solve the package makes."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@lru_cache(maxsize=None)
def _dop853_method():
    """The ``method`` of every reference solve, built on the first one so
    that the series layers load without scipy: scipy's DOP853 for states of
    a few floats, where numpy's overhead at each stage outweighs the
    arithmetic.  ``_step_impl`` and ``_dense_output_impl`` run ``rk_step``,
    the error norm, the three extra stages and the interpolant rows as
    straight-line float code (``_dop853_kernels``) under scipy's step-size
    rule; ``__init__``, and with it the initial step, is scipy's.  The
    option ``list_fun`` is the right-hand side on lists of floats; ``fun``
    serves only ``__init__``.  Real states, and each tolerance an array of
    one value per component, only."""
    from scipy.integrate import DOP853
    from scipy.integrate._ivp.rk import (MAX_FACTOR, MIN_FACTOR, SAFETY,
                                         Dop853DenseOutput)

    class FloatDOP853(DOP853):
        def __init__(self, fun, t0, y0, t_bound, *, list_fun, **options):
            super().__init__(fun, t0, y0, t_bound, **options)
            self._list_fun = list_fun
            self._step, self._dense = _dop853_kernels(self.n)
            self._tols = self.rtol.tolist(), self.atol.tolist()
            self._y, self._f = self.y.tolist(), self.f.tolist()

        def _step_impl(self):
            t, direction = self.t, float(self.direction)
            min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
            h_abs = min(max(float(self.h_abs), min_step), self.max_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    return False, self.TOO_SMALL_STEP
                t_new = t + h_abs * direction
                if direction * (t_new - self.t_bound) > 0:
                    t_new = self.t_bound
                h = t_new - t
                h_abs = abs(h)
                y_new, f_new, error_norm, stages = self._step(
                    self._list_fun, t, h, self._y, self._f, *self._tols)
                self.nfev += self.n_stages
                if error_norm < 1:
                    factor = MAX_FACTOR if error_norm == 0 else min(
                        MAX_FACTOR, SAFETY * error_norm ** self.error_exponent)
                    h_abs *= min(1, factor) if rejected else factor
                    break
                h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** self.error_exponent)
                rejected = True
            self.h_previous = h
            self.y_old, self._y_old = self.y, self._y
            self.t = t_new
            self.y, self._y = np.array(y_new), y_new
            # scipy's self.f keeps the start's value: only the two methods
            # overridden here read it
            self._f = f_new
            self.h_abs = h_abs
            self._stages = stages
            return True, None

        def _dense_output_impl(self):
            rows = self._dense(self._list_fun, self.t_old, self.h_previous,
                               self._y_old, self._y, self._stages)
            self.nfev += len(self.C_EXTRA)
            return Dop853DenseOutput(self.t_old, self.t, self.y_old, np.array(rows))

    return FloatDOP853


#: the tableau shapes _dop853_source expects: 12 stages, then the
#: derivative at the new state, which weighs only in dense output, 3 extra
#: stages for dense output, and the 4 upper rows of a degree-7 interpolant
_DOP853_SHAPES = {"A": (12, 12), "B": (12,), "C": (12,), "E3": (13,), "E5": (13,),
                  "D": (4, 16), "A_EXTRA": (3, 16), "C_EXTRA": (3,)}


def _dop853_source(n: int, tableau) -> str:
    """Straight-line source of ``kernels = step, dense`` for states of
    ``n`` floats, from the arrays ``tableau`` maps the names of
    _DOP853_SHAPES to.

    ``step(fun, t, h, y, f, rtol, atol)``, each tolerance a list of ``n``
    floats, is scipy's ``rk_step`` and DOP853 error norm: it returns the new
    state, the derivative there, the norm and the 13 stages, flat.
    ``dense(fun, t, h, y, y_new, stages)`` runs the three extra stages and
    returns the 7 rows of scipy's interpolant.  Each stage sum adds the
    nonzero tableau terms in order.
    """
    for name, shape in _DOP853_SHAPES.items():
        if tableau[name].shape != shape:
            raise ValueError(f"DOP853.{name} has shape {tableau[name].shape}, "
                             f"expected {shape}")
    comps = range(n)

    def names(stem):
        return "".join(f"{stem}{i}, " for i in comps)

    def dot(row, i):
        # component i of np.dot(K[:s].T, row), zero terms dropped
        return " + ".join(f"{c!r} * k{s}_{i}" for s, c in enumerate(row.tolist()) if c)

    def stage(s, c, row):
        args = "".join(f"y{i} + ({dot(row[:s], i)}) * h, " for i in comps)
        return f"    {names(f'k{s}_')}= fun(t + {float(c)!r} * h, [{args}])"

    A, C = tableau["A"], tableau["C"]
    every_stage = "".join(names(f"k{s}_") for s in range(13))
    lines = ["def step(fun, t, h, y, f, rtol, atol):",
             f"    {names('y')}= y",
             f"    {names('rt')}= rtol",
             f"    {names('at')}= atol",
             f"    {names('k0_')}= f"]
    lines += [stage(s, C[s], A[s]) for s in range(1, 12)]
    lines += [f"    z{i} = y{i} + h * ({dot(tableau['B'], i)})" for i in comps]
    lines += [f"    {names('k12_')}= fun(t + h, [{names('z')}])",
              "    try:"]
    for i in comps:
        # scale = atol + np.maximum(|y|, |y_new|) * rtol, NaN passing through
        lines += [f"        a = abs(y{i})",
                  f"        b = abs(z{i})",
                  f"        s = at{i} + (a if a >= b else b) * rt{i}",
                  f"        e{i} = ({dot(tableau['E5'], i)}) / s",
                  f"        g{i} = ({dot(tableau['E3'], i)}) / s"]
    lines += [f"        r = sqrt({' + '.join(f'e{i} * e{i}' for i in comps)})",
              "        q5 = r * r",
              f"        r = sqrt({' + '.join(f'g{i} * g{i}' for i in comps)})",
              "        q3 = r * r",
              "        if q5 == 0.0 and q3 == 0.0:",
              "            error_norm = 0.0",
              "        else:",
              f"            error_norm = abs(h) * q5 / sqrt((q5 + 0.01 * q3) * {n})",
              "    except ZeroDivisionError:",
              "        # a zero scale: numpy's inf or NaN, which rejects the step",
              "        error_norm = nan",
              f"    return [{names('z')}], [{names('k12_')}], error_norm, ({every_stage})",
              "",
              "",
              "def dense(fun, t, h, y, y_new, stages):",
              f"    {names('y')}= y",
              f"    {names('z')}= y_new",
              f"    {every_stage}= stages"]
    lines += [stage(s, c, row) for s, c, row in
              zip(range(13, 16), tableau["C_EXTRA"], tableau["A_EXTRA"])]
    lines += [f"    d{i} = z{i} - y{i}" for i in comps]
    rows = [[f"d{i}" for i in comps],
            [f"h * k0_{i} - d{i}" for i in comps],
            [f"2 * d{i} - h * (k12_{i} + k0_{i})" for i in comps]]
    rows += [[f"h * ({dot(row, i)})" for i in comps] for row in tableau["D"]]
    lines += ["    return [" + ", ".join(f"[{', '.join(r)}]" for r in rows) + "]",
              "",
              "",
              "kernels = step, dense"]
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _dop853_kernels(n: int):
    """The compiled ``step`` and ``dense`` of _dop853_source for states of
    ``n`` floats, from scipy's DOP853 tableau."""
    from scipy.integrate import DOP853

    source = _dop853_source(n, {name: getattr(DOP853, name) for name in _DOP853_SHAPES})
    return _compile(source, "kernels", f"DOP853 kernel, dimension {n}", abs=abs,
                    sqrt=math.sqrt, nan=math.nan, ZeroDivisionError=ZeroDivisionError)


#: tolerances of a component solved in w = ln u (see reference_integrate):
#: absolute error in w is relative error in u, so the absolute tolerance,
#: a share of ``tol``, does the work; the relative one only has to stay
#: above scipy's floor of 100 eps
LOG_RTOL = 1e-13
LOG_ATOL_SHARE = 1e-2

#: DIVERGENCE_LIMIT in log coordinates
LOG_DIVERGENCE_LIMIT = math.log(DIVERGENCE_LIMIT)

#: the tolerances reference_integrate accepts
TOL_RANGE = (1e-13, 1e-3)

#: the tolerance of every reference solve that names none: the scenario
#: runner's, the figures' and the closed orbit's, and ``--tol``'s default
REFERENCE_TOL = 1e-10

#: how far in time lv_closed_orbit looks for two upward crossings
ORBIT_SEARCH_TIME = 200.0


def reference_integrate(
    model: ModelInstance,
    t_end: float,
    tol: float = REFERENCE_TOL,
    grid=None,
    atol: float | None = None,
) -> Trajectory:
    """Ground-truth trajectory from an embedded adaptive Runge-Kutta pair.

    Each component that ``ModelInstance.per_capita`` logs (its equation is
    u_i * g_i(u) and it starts positive) is integrated in w_i = ln u_i,
    where absolute error is relative error in u: a count that decays
    through many orders of magnitude stays relatively accurate, can never
    turn negative, and sets no stability bound on the step.  Its tolerances
    are relative ``LOG_RTOL`` and absolute ``tol * LOG_ATOL_SHARE``.

    Every other component is integrated in u, with relative tolerance
    ``tol`` and absolute ``atol``, by default ``tol * 1e-3`` scaled by the
    start.  ``meta`` records the coordinates and the tolerances passed to
    the solver, each one value when the components agree; w stays outside
    it, in ``log_states`` (see Trajectory).  The trajectory is sampled on
    ``grid`` (defaults to 401 uniform points).
    """
    lo, hi = TOL_RANGE
    if not (lo <= tol <= hi):
        raise ValueError(f"tol must lie in [{lo:g}, {hi:g}]")
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if grid is None:
        grid = np.linspace(0.0, t_end, 401)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
            raise ValueError("grid must be 1-D and start at 0")
        if np.any(np.diff(grid) <= 0) or grid[-1] > t_end:
            raise ValueError("grid must increase strictly and stay within t_end")
    sol, meta = _dop853(model, t_end, tol, atol, t_eval=grid)
    if sol.status != 0:  # 1: the blow-up event, -1: a failed step
        last = float(sol.t[-1]) if len(sol.t) else 0.0
        raise IntegrationError(
            f"solution escaped the divergence limit near t={last:.6g}"
            if sol.status == 1 else
            f"integrator stopped at t={last:.6g}: {sol.message}", last_time=last)
    return _from_log(sol.t, sol.y.T, model.per_capita[0], meta)


def _from_log(times, solved, mask, meta: dict) -> Trajectory:
    """The trajectory of a solve with the components ``mask`` marks in
    w = ln u: there u = exp(w) by ``math.exp``, not np.exp, whose last bit
    depends on the SIMD build, and ``log_states`` holds w, or is None when
    no component is logged."""
    logged = [i for i, log in enumerate(mask) if log]
    states = solved.tolist()
    for row in states:
        for i in logged:
            row[i] = math.exp(row[i])
    log_states = np.where(mask, solved, math.nan) if logged else None
    return Trajectory(times, states, "reference", meta, log_states)


def _uniform(values):
    """Per-component ``values`` for ``meta``: one value if all agree."""
    return values[0] if len(set(values)) == 1 else " ".join(map(str, values))


def _dop853(model: ModelInstance, t_end: float, tol: float,
            atol: float | None = None, *, t_eval=None, events=(),
            dense_output: bool = False):
    """scipy's result and the ``meta`` of the DOP853 solve over [0,
    ``t_end``] that reference_integrate describes, with a terminal blow-up
    event ahead of ``events``; the states and ``events`` are in w = ln u at
    the components ``model.per_capita`` logs.  The solve steps with
    _dop853_method, on the right-hand side as a function of lists."""
    # math.exp and math.log on plain floats, not np.exp and np.log, whose
    # last bit depends on the SIMD build
    exp = math.exp
    mask, field = model.per_capita
    logged = [i for i, log in enumerate(mask) if log]
    start = model.initial_state.tolist()
    y0 = np.array([math.log(v) if log else v for v, log in zip(start, mask)])
    if atol is None:
        atol = tol * 1e-3 * max(1.0, max(map(abs, start)))
    rtols = [LOG_RTOL if log else tol for log in mask]
    atols = [tol * LOG_ATOL_SHARE if log else atol for log in mask]
    meta = {"tol": tol}
    if logged:
        meta |= {"coordinates": _uniform(["log" if log else "u" for log in mask]),
                 "rtol": _uniform(rtols)}
    meta |= {"atol": _uniform(atols), "method": "DOP853"}

    def rhs(t, w):
        u = w[:]
        try:
            for i in logged:
                u[i] = exp(u[i])
        except OverflowError:
            # a trial stage far past the blow-up level; NaN rejects it
            return [math.nan] * len(w)
        return field.evaluate(u).tolist()

    def blow_up(t, w):
        return min(LOG_DIVERGENCE_LIMIT - v if log else DIVERGENCE_LIMIT - abs(v)
                   for v, log in zip(w.tolist(), mask))

    blow_up.terminal = True

    # an overflowing field makes inf and NaN inside scipy's step, which end in
    # a rejected step or IntegrationError; numpy's warnings would only escape
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(lambda t, y: rhs(t, y.tolist()), (0.0, float(t_end)), y0,
                        method=_dop853_method(), list_fun=rhs, rtol=np.array(rtols),
                        atol=np.array(atols), t_eval=t_eval, events=[blow_up, *events],
                        dense_output=dense_output)
    return sol, meta


def lv_closed_orbit(model: ModelInstance) -> tuple[float, Trajectory]:
    """The period of a predator-prey solution and its orbit, sampled at
    1200 uniform times over 0.999 of one period (just short of closing).

    One solve of reference_integrate's, in w = ln u at ``REFERENCE_TOL``,
    stops at the second of two upward crossings of the center's predator
    level y = a/b, which every orbit crosses once per period; its dense
    output gives the orbit, with w as its ``log_states``.
    """
    if model.spec is not MODELS["lotka_volterra"]:
        raise ValueError("expected a lotka_volterra model instance")
    params = model.params
    level = params["a"] / params["b"]
    x0, y0 = (float(v) for v in model.initial_state)
    if (x0, y0) == (params["c"] / params["d"], level):
        raise ValueError("start is the stationary center; there is no orbit")
    if x0 == 0.0 or y0 == 0.0:
        raise ValueError("start on an axis; the solution never circles the center")
    log_level = math.log(level)

    def crossing(t, w):
        return w[1] - log_level

    crossing.direction = 1.0
    crossing.terminal = 2
    sol, _ = _dop853(model, ORBIT_SEARCH_TIME, REFERENCE_TOL, events=[crossing],
                     dense_output=True)
    events = sol.t_events[1]
    if len(events) < 2:
        raise RuntimeError("could not detect an orbital period")
    period = float(events[1] - events[0])
    grid = np.linspace(0.0, 0.999 * period, 1200)
    return period, _from_log(grid, sol.sol(grid).T, model.per_capita[0], {})


def sample_series(solution: SeriesSolution, grid) -> Trajectory:
    """Evaluate a series solution on an increasing grid starting at 0."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise ValueError("grid must be 1-D and start at 0")
    # Trajectory rejects a grid that does not increase strictly
    states = np.column_stack(
        [np.atleast_1d(eval_series(comp, grid)) for comp in solution.components]
    )
    return Trajectory(grid, states, "series", meta={"order": solution.order})
