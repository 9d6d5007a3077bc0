"""Time integration: piecewise series stepping and a reference integrator.

Re-expanding the Taylor series about the current state every ``step``
units of time turns the local series into a perfectly good fixed-step
integrator, provided the step stays below the local convergence radius.
The step is deliberately user-chosen, not adaptive: the point of this lab
is to make the radius constraint visible, not to hide it.

Ground truth comes from an embedded adaptive Runge-Kutta pair (DOP853)
with mixed absolute/relative error control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .models import ModelInstance
from .series import DIVERGENCE_LIMIT, SeriesSolution, eval_series, taylor_path

PROVENANCES = ("series", "multistage", "reference", "exact")


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
    the trajectory was produced (order, step, tolerance, ...).
    """

    times: np.ndarray
    states: np.ndarray
    provenance: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, np.newaxis]
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
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
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    times, states, failed = taylor_path(model.field, model.initial_state, order,
                                        step, t_end)
    if failed is not None:
        t = times[-1]
        raise DivergenceError(
            f"state diverged at stage {failed} (t={t + min(step, t_end - t):.6g}); "
            "the step likely exceeds the local convergence radius",
            step_index=failed,
        )
    return Trajectory(
        np.array(times),
        np.array(states),
        "multistage",
        meta={"order": order, "step": step, "t_end": t_end},
    )


def solve_ivp(*args, **kwargs):
    """scipy's ``solve_ivp``, imported on the first reference solve so that
    the series layers load without scipy; a module global, so a caller can
    rebind it to observe every solve ``reference_integrate`` makes."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


#: tolerances of the log-coordinate solve (see reference_integrate):
#: absolute error in w = ln u is relative error in u, so the absolute
#: tolerance, a share of ``tol``, does the work; the relative one only
#: has to stay above scipy's floor of 100 eps
LOG_RTOL = 1e-13
LOG_ATOL_SHARE = 1e-2

#: DIVERGENCE_LIMIT in log coordinates
LOG_DIVERGENCE_LIMIT = math.log(DIVERGENCE_LIMIT)

#: the tolerances reference_integrate accepts
TOL_RANGE = (1e-13, 1e-3)


def reference_integrate(
    model: ModelInstance,
    t_end: float,
    tol: float = 1e-10,
    grid=None,
    atol: float | None = None,
) -> Trajectory:
    """Ground-truth trajectory from an embedded adaptive Runge-Kutta pair.

    A field in Kolmogorov form (each u_i' = u_i * g_i(u), as in the
    predator-prey model) started with every component positive is
    integrated in w = ln u.  There absolute error is relative error in u,
    so a population that decays through many orders of magnitude stays
    relatively accurate and can never turn negative.  The tolerances then
    apply to w: relative ``LOG_RTOL`` and absolute ``tol * LOG_ATOL_SHARE``;
    ``atol`` is not used.

    Every other field or start is integrated in u.  ``tol`` is the relative
    tolerance; the absolute floor defaults to three orders below it, scaled
    by the initial state.  Pass an explicit tiny ``atol`` when a component
    decays through many orders of magnitude and must stay relatively
    accurate all the way down.

    ``meta`` records the coordinates and the tolerances passed to the
    solver.  The trajectory is sampled on ``grid`` (defaults to 401
    uniform points).
    """
    lo, hi = TOL_RANGE
    if not (lo <= tol <= hi):
        raise ValueError(f"tol must lie in [{lo:g}, {hi:g}]")
    if not t_end > 0:
        raise ValueError("t_end must be positive")
    u0 = np.asarray(model.initial_state, dtype=float)
    if grid is None:
        grid = np.linspace(0.0, t_end, 401)
    else:
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
            raise ValueError("grid must be 1-D and start at 0")
        if np.any(np.diff(grid) <= 0) or grid[-1] > t_end:
            raise ValueError("grid must increase strictly and stay within t_end")
    # math.exp and math.log on plain floats, not np.exp and np.log, whose
    # last bit depends on the SIMD build
    exp = math.exp
    rates = model.field.per_capita
    start = u0.tolist()
    in_logs = rates is not None and min(start) > 0.0
    if in_logs:
        def rhs(t, w):
            try:
                u = [exp(v) for v in w.tolist()]
            except OverflowError:
                # a trial stage far past the blow-up level; NaN rejects it
                return np.full(w.shape, math.nan)
            return rates.evaluate(u)

        def blow_up(t, w):
            return LOG_DIVERGENCE_LIMIT - max(w.tolist())

        y0 = np.array([math.log(v) for v in start])
        rtol, atol = LOG_RTOL, tol * LOG_ATOL_SHARE
        meta = {"tol": tol, "coordinates": "log", "rtol": rtol, "atol": atol,
                "method": "DOP853"}
    else:
        def rhs(t, u):
            return model.field.evaluate(u)

        def blow_up(t, u):
            return DIVERGENCE_LIMIT - np.max(np.abs(u))

        y0 = u0
        if atol is None:
            atol = tol * 1e-3 * max(1.0, float(np.max(np.abs(u0))))
        rtol = tol
        meta = {"tol": tol, "atol": atol, "method": "DOP853"}

    blow_up.terminal = True

    # an overflowing field makes inf and NaN inside scipy's step, which end in
    # a rejected step or IntegrationError; numpy's warnings would only escape
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(rhs, (0.0, float(t_end)), y0, method="DOP853", rtol=rtol,
                        atol=atol, t_eval=grid, events=blow_up)
    if sol.status == 1:
        last = float(sol.t[-1]) if len(sol.t) else 0.0
        raise IntegrationError(
            f"solution escaped the divergence limit near t={last:.6g}", last_time=last
        )
    if not sol.success:
        last = float(sol.t[-1]) if len(sol.t) else 0.0
        raise IntegrationError(
            f"integrator stopped at t={last:.6g}: {sol.message}", last_time=last
        )
    states = sol.y.T
    if in_logs:
        states = [[exp(v) for v in row] for row in states.tolist()]
    return Trajectory(sol.t, states, "reference", meta=meta)


def sample_series(solution: SeriesSolution, grid) -> Trajectory:
    """Evaluate a series solution on an increasing grid starting at 0."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise ValueError("grid must be 1-D and start at 0")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    states = np.column_stack(
        [np.atleast_1d(eval_series(comp, grid)) for comp in solution.components]
    )
    return Trajectory(grid, states, "series", meta={"order": solution.order})
