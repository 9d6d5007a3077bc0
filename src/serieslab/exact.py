"""Closed-form solutions, conserved quantities, and epidemic endpoint
analysis for the three benchmark models.

The scalar quadratic model is solved in closed form for any initial
value.  The predator-prey system has no closed form in time but conserves
a logarithmic first integral along every orbit.  The epidemic system can
be solved exactly for the infective and removed counts as functions of
the susceptible count, which turns questions about how an epidemic peaks
and ends into scalar root-finding problems; recovering time itself needs
one numerical quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convergence import _stationary_gaps, _start_log_z
from .models import (SQRT2, RICCATI_STATIONARY, RICCATI_STATIONARY_ERROR,
                     ModelInstance)


class BlowUpError(ArithmeticError):
    """Evaluation past a real-time pole of the exact solution."""

    def __init__(self, message: str, pole_time: float):
        super().__init__(message)
        self.pole_time = pole_time


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class NearSingularError(ValueError):
    """Requested point is too close to the integrable singularity."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature failed to reach the requested accuracy."""


def riccati_exact(y0: float, t: float) -> float:
    """Exact solution of dY/dt = 1 + 2Y - Y^2 with Y(0) = y0.

    Solutions started below the repelling state 1 - sqrt(2) reach a real
    pole in finite forward time, and solutions started above the
    attracting state 1 + sqrt(2) have one in finite backward time;
    evaluation at or past a pole raises BlowUpError carrying its location.
    """
    y0 = float(y0)
    t = float(t)
    if not (math.isfinite(y0) and math.isfinite(t)):
        raise ValueError("y0 and t must be finite")
    # the ratio of distances to the two stationary states evolves as a pure
    # exponential, which puts the poles on a lattice; one of them is real
    # when the ratio is positive.  The float states are constant solutions
    log_z = _start_log_z(y0)
    if log_z is not None:
        re, im = log_z
        if im == 0.0:
            pole = re / (2.0 * SQRT2)
            if (pole > 0.0 and t >= pole) or (pole < 0.0 and t <= pole):
                raise BlowUpError(
                    f"solution from y0={y0:.6g} has a real pole at t={pole:.6g}",
                    pole_time=pole,
                )
    if t == 0.0 or log_z is None:
        return y0
    # the distance from 1 - sqrt(2), which keeps its digits next to it: a
    # start a few ulps below the true state is on its way to a pole
    num0 = _stationary_gaps(y0)[1]
    if t > 0.0:
        # divide through by exp(2*sqrt(2)*t) so large times cannot overflow
        decay = math.exp(-2.0 * SQRT2 * t)
        num = (SQRT2 + 1.0) * num0 + (y0 * (SQRT2 - 1.0) - 1.0) * decay
        den = num0 + (SQRT2 + 1.0 - y0) * decay
    else:
        # backward in time what is left of y0 is its distance to 1 + sqrt(2)
        # times sqrt(2) - 1, the distance of 1 - sqrt(2) from 0.  Both take
        # the rounding of the float 1 + sqrt(2) back in, so a start next to
        # it keeps its digits and a start between the states falls to the
        # correctly rounded 1 - sqrt(2)
        grow = math.exp(2.0 * SQRT2 * t)
        above = (y0 - RICCATI_STATIONARY) + RICCATI_STATIONARY_ERROR
        silver = (RICCATI_STATIONARY - 2.0) - RICCATI_STATIONARY_ERROR
        num = (SQRT2 + 1.0) * num0 * grow + silver * above
        den = num0 * grow - above
    return num / den


def lv_conserved(x: float, y: float, a: float, b: float, c: float, d: float) -> float:
    """First integral c*ln(x) + a*ln(y) - d*x - b*y of the predator-prey
    system; constant along every true orbit in the open positive quadrant."""
    if not (x > 0 and y > 0):
        raise ValueError("conserved quantity is defined for positive populations only")
    return c * math.log(x) + a * math.log(y) - d * x - b * y


def _sir_data(model: ModelInstance):
    if model.label != "sir" or set(model.params) != {"beta", "gamma"}:
        raise ValueError("expected an sir model instance")
    x0, y0, z0 = (float(v) for v in model.initial_state)
    return model.params["beta"], model.params["gamma"], x0, y0, z0


def _sir_yz(x: float, x0: float, y0: float, z0: float, rho: float):
    """Infectives and removed at susceptible count x: the model's one
    statement of the exact relations, with rho = gamma/beta."""
    removed = rho * math.log(x / x0)
    return y0 + x0 - x + removed, z0 - removed


def sir_y_of_x(x: float, model: ModelInstance) -> float:
    """Infectives as a function of susceptibles:
    y = y0 + x0 - x + (gamma/beta) * ln(x/x0)."""
    beta, gamma, x0, y0, z0 = _sir_data(model)
    if x <= 0:
        raise ValueError("x must be positive")
    return _sir_yz(x, x0, y0, z0, gamma / beta)[0]


def sir_z_of_x(x: float, model: ModelInstance) -> float:
    """Removed as a function of susceptibles:
    z = z0 - (gamma/beta) * ln(x/x0)."""
    beta, gamma, x0, y0, z0 = _sir_data(model)
    if x <= 0:
        raise ValueError("x must be positive")
    return _sir_yz(x, x0, y0, z0, gamma / beta)[1]


def sir_curves(x, model: ModelInstance) -> tuple[np.ndarray, np.ndarray]:
    """``sir_y_of_x`` and ``sir_z_of_x`` at every susceptible count in x,
    with the model checked once.

    Each point goes through math.log, not np.log, whose last bit differs
    from it for a few inputs, so the curves keep their bytes.
    """
    beta, gamma, x0, y0, z0 = _sir_data(model)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("x must be positive")
    rho = gamma / beta
    values = np.array([_sir_yz(v, x0, y0, z0, rho) for v in x.ravel().tolist()],
                      dtype=float).reshape(-1, 2)
    return values[:, 0].reshape(x.shape), values[:, 1].reshape(x.shape)


@dataclass(frozen=True)
class SirEndpoints:
    """Landmark susceptible counts of an epidemic.

    x_limit is where the infectives die out (t -> infinity), x_over where
    they have fallen back to their initial count, and (x_peak, y_peak) the
    epidemic maximum at x = gamma/beta.  The peak and x_over fields are
    populated only when an epidemic actually occurs (x0 > gamma/beta);
    otherwise the infective count just decreases and neither is defined.
    """

    x_limit: float
    x_over: float | None
    x_peak: float | None
    y_peak: float | None
    epidemic_occurs: bool


def find_root_bracketed(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Root of f on [lo, hi] given a sign change, to within roughly
    tol * max(1, |root|) of bracket width.

    Thin wrapper over Brent's method (bisection with inverse-quadratic /
    secant acceleration); the bracket is checked up front so that a
    missing sign change raises BracketError instead of leaking through.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return float(lo)
    if fhi == 0.0:
        return float(hi)
    if (flo > 0) == (fhi > 0):
        raise BracketError(
            f"no sign change on [{lo:.6g}, {hi:.6g}]: f(lo)={flo:.6g}, f(hi)={fhi:.6g}"
        )
    from scipy.optimize import brentq

    return float(
        brentq(f, lo, hi, xtol=tol, rtol=4.0 * np.finfo(float).eps, maxiter=200)
    )


def sir_endpoints(model: ModelInstance, tol: float = 1e-12) -> SirEndpoints:
    """Solve the endpoint equations of the epidemic.

    x_limit is the unique root of y(x) = 0 below the peak; x_over the
    nontrivial root of y(x) = y0 (x = x0 always satisfies it), between
    x_limit and the peak.  Both are solved in s = ln(x/x0), where they read

        die-out:  y0 - x0*expm1(s) + rho*s = 0,
        return:        -x0*expm1(s) + rho*s = 0,

    with rho = gamma/beta.  ``tol`` bounds the root in s, so it is a
    relative tolerance in x: a root far below 1 keeps its digits.  A
    die-out point below the smallest float raises ArithmeticError.
    """
    beta, gamma, x0, y0, z0 = _sir_data(model)
    if not (x0 > 0 and y0 > 0):
        raise ValueError("need positive initial susceptibles and infectives")
    rho = gamma / beta
    epidemic = x0 > rho
    # the peak, where both equations take their largest value
    s_peak = math.log(rho / x0) if epidemic else 0.0

    def infectives(s):
        return y0 - x0 * math.expm1(s) + rho * s

    # infectives(lo) = -x0*exp(lo) < 0 in exact arithmetic; should
    # rounding spoil the sign, step further down
    lo = -(y0 + x0) / rho
    tries = 0
    while infectives(lo) >= 0.0 and tries < 80:
        lo *= 2.0
        tries += 1
    s_limit = find_root_bracketed(infectives, lo, s_peak, tol)
    x_limit = x0 * math.exp(s_limit)
    if x_limit == 0.0:
        raise ArithmeticError(
            f"die-out point x0*exp({s_limit:.6g}) lies below the smallest float")

    if not epidemic:
        return SirEndpoints(x_limit, None, None, None, False)

    def excess(s):
        return rho * s - x0 * math.expm1(s)

    # excess(s_limit) = -y0 < 0 and excess(s_peak) > 0
    s_over = find_root_bracketed(excess, s_limit, s_peak, tol)
    return SirEndpoints(x_limit, x0 * math.exp(s_over), rho,
                        sir_y_of_x(rho, model), True)


def sir_t_of_x(x: float, model: ModelInstance, tol: float = 1e-9) -> float:
    """Time at which the susceptible count first reaches x, by adaptive
    quadrature of 1 / (beta * x' * y(x')) from x up to x0.

    The integrand has an integrable singularity at x_limit (the epidemic
    takes infinite time to die out completely), so requests closer than a
    small relative guard above x_limit are refused.
    """
    beta, gamma, x0, y0, z0 = _sir_data(model)
    x = float(x)
    if x > x0:
        raise ValueError("x must not exceed the initial susceptible count")
    guard = sir_endpoints(model).x_limit * (1.0 + 1e-3)
    if x <= guard:
        raise NearSingularError(
            f"x={x:.6g} is at or below the near-singular guard {guard:.6g}"
        )
    if x == x0:
        return 0.0
    rho = gamma / beta

    def integrand(u):
        return 1.0 / (beta * u * _sir_yz(u, x0, y0, z0, rho)[0])

    from scipy.integrate import quad

    value, abserr = quad(integrand, x, x0, epsabs=tol, epsrel=1e-11, limit=400)
    if abserr > max(10.0 * tol, 1e-7 * abs(value)):
        raise QuadratureError(
            f"quadrature error estimate {abserr:.3g} exceeds the requested {tol:.3g}"
        )
    return float(value)
