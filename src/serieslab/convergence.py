"""Radii of convergence of the time-power series.

The scalar quadratic model admits closed forms: the nearest complex-time
pole of the exact solution is known for any initial value, and so is the
pole seen by a series re-expanded about a later time along the solution
started at zero.  For the other models there is no closed form, so a
ratio-test estimator on the generated coefficients is provided instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import SQRT2
from .series import TruncatedSeries

#: log of the silver ratio 1 + sqrt(2), the attracting state; appears in every radius formula
_LOG_SILVER = math.log(SQRT2 + 1.0)

#: infimum of the re-expansion radius along the solution started at zero
MULTISTAGE_RADIUS_FLOOR = SQRT2 * math.pi / 4.0


class RadiusMethod(str, Enum):
    EXACT_RICCATI = "exact_riccati"
    EXACT_MULTISTAGE = "exact_multistage"
    RATIO_ESTIMATE = "ratio_estimate"


class NotEstimableError(ValueError):
    """Raised when a coefficient tail is too degenerate for a ratio test."""


@dataclass(frozen=True)
class RadiusReport:
    """A convergence radius, how it was obtained, and a short note."""

    radius: float
    method: RadiusMethod
    detail: str = ""

    def __post_init__(self):
        if math.isnan(self.radius) or self.radius <= 0:
            raise ValueError("radius must be positive (may be inf)")


def riccati_radius(y0: float) -> RadiusReport:
    """Convergence radius of the series for dY/dt = 1 + 2Y - Y^2, Y(0) = y0.

    The radius is sqrt(2)/4 times the modulus of the principal complex
    logarithm of (y0 - sqrt(2) - 1) / (y0 + sqrt(2) - 1); taking the
    modulus keeps the value real when the argument of the log is negative,
    which happens whenever y0 lies between the two stationary states.
    Starting exactly on a stationary state gives a constant solution and
    an infinite radius.
    """
    y0 = float(y0)
    if not math.isfinite(y0):
        raise ValueError("y0 must be finite")
    num = y0 - SQRT2 - 1.0
    den = y0 + SQRT2 - 1.0
    # a few ulps of slack so that the rounded stationary values, e.g.
    # 1 + math.sqrt(2), still land on the constant-solution branch
    snap = 4.0 * np.finfo(float).eps * max(1.0, abs(y0))
    if abs(num) <= snap or abs(den) <= snap:
        return RadiusReport(
            math.inf,
            RadiusMethod.EXACT_RICCATI,
            "constant solution at a stationary state; the series terminates",
        )
    ratio = num / den
    if 0.5 < ratio < 2.0:
        # num = den - 2 sqrt(2): near 1 the ratio's own rounding would
        # swamp the log, so take log1p of the exact difference instead
        modulus = abs(math.log1p(-2.0 * SQRT2 / den))
    elif ratio > 0:
        modulus = abs(math.log(ratio))
    else:
        modulus = math.hypot(math.log(-ratio), math.pi)
    return RadiusReport(
        SQRT2 / 4.0 * modulus,
        RadiusMethod.EXACT_RICCATI,
        f"nearest complex-time pole for y0={y0:.6g}",
    )


def riccati_multistage_radius(t: float) -> RadiusReport:
    """Radius of the series re-expanded about time t along the solution
    started at zero.

    Always exceeds sqrt(2)*pi/4 (about 1.11), the value approached at
    t = sqrt(2)/2 * log(1 + sqrt(2)); restart steps must stay well below
    that floor for piecewise stepping to converge.  Only the zero initial
    condition is covered; no closed form is exposed for other starts.
    """
    t = float(t)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and non-negative")
    return RadiusReport(
        float(_restart_radius(t)),
        RadiusMethod.EXACT_MULTISTAGE,
        f"re-expansion about t={t:.6g} of the solution started at zero",
    )


def riccati_multistage_radii(times) -> np.ndarray:
    """``riccati_multistage_radius(t).radius`` for every t of an array, as
    one array expression; each value has the bits of the scalar call."""
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and non-negative")
    return _restart_radius(times)


def _restart_radius(t):
    """The restart radius at a float or an array of times.  Both run the
    same operations in the same order, and +, -, * and sqrt round
    correctly in numpy as in Python, so an array element equals the float
    result."""
    radicand = (
        4.0 * _LOG_SILVER**2
        - 8.0 * SQRT2 * _LOG_SILVER * t
        + 8.0 * t * t
        + math.pi**2
    )
    return SQRT2 / 4.0 * np.sqrt(radicand)


def estimate_radius(s: TruncatedSeries, window: int = 8) -> RadiusReport:
    """Ratio-test radius estimate from the trailing coefficients.

    Candidate samples are the spaced ratios |c_k / c_{k+s}|**(1/s) over the
    last ``window`` pairs, for spacings s in {1, 2, 3}; the spacing whose
    log-ratios scatter least wins and its median is returned.  A single real
    pole makes every spacing agree (and the estimate near-exact), while a
    complex-conjugate pole pair makes adjacent ratios oscillate strongly; a
    spacing close to the oscillation period damps that almost entirely.
    Expect a few percent accuracy at order 30 in the complex-pair case.
    """
    if window < 4:
        raise ValueError("window must be at least 4")
    if s.order < window:
        raise ValueError("series order must be at least the window size")
    coeffs = s.coefficients
    n = s.order
    best = None
    for spacing in (1, 2, 3):
        lead = n - spacing - window + 1
        if lead < 0:
            continue
        a = coeffs[lead:lead + window]
        b = coeffs[lead + spacing:lead + spacing + window]
        if not (a.all() and b.all()):
            continue
        ratios = np.abs(a / b) ** (1.0 / spacing)
        spread = float(np.log(ratios).std())
        if best is None or spread < best[0]:
            best = (spread, spacing, ratios)
    if best is None:
        raise NotEstimableError(
            f"need {window} trailing nonzero coefficient pairs for a ratio test"
        )
    spread, spacing, ratios = best
    r = sorted(ratios.tolist())
    # np.median's value: the middle sample, or the mean of the middle two
    h = window // 2
    median = r[h] if window % 2 else (r[h - 1] + r[h]) / 2
    return RadiusReport(
        median,
        RadiusMethod.RATIO_ESTIMATE,
        f"median spaced ratio, window={window}, spacing={spacing}, "
        f"ratio spread [{r[0]:.4g}, {r[-1]:.4g}]",
    )
