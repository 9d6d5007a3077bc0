"""Radii of convergence of the time-power series.

The scalar quadratic model admits a closed form: the complex-time poles
of its exact solution lie on one lattice, known for any initial value, so
the radius about the start and about any later restart time is the
distance to the nearest lattice point.  For the other models there is no
closed form, so a ratio-test estimator on the generated coefficients is
provided instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import (RICCATI_STATIONARY, RICCATI_STATIONARY_ERROR, RICCATI_UNSTABLE,
                     SQRT2, SQRT2_ERROR)
from .series import TruncatedSeries

#: infimum of the re-expansion radius along the solution started at zero
MULTISTAGE_RADIUS_FLOOR = SQRT2 * math.pi / 4.0

#: distance from a stationary state within which _stationary_gaps takes
#: the rounding of the float state out
NEAR_STATIONARY = 1.0 / 16.0

#: trailing coefficient pairs the ratio test reads, so the least order
RATIO_WINDOW = 8


class NotEstimableError(ValueError):
    """Raised when a coefficient tail is too degenerate for a ratio test."""


@dataclass(frozen=True)
class RadiusReport:
    """A convergence radius and a short note on how it was obtained."""

    radius: float
    detail: str = ""

    def __post_init__(self):
        if math.isnan(self.radius) or self.radius <= 0:
            raise ValueError("radius must be positive (may be inf)")


def _stationary_gaps(y0: float) -> tuple[float, float]:
    """y0 - (1 + sqrt(2)) and y0 - (1 - sqrt(2)).

    Within NEAR_STATIONARY of a state the difference from the float state
    is exact (Sterbenz) and has cancelled down to where the rounding of the
    float state shows, so that rounding is taken back out.  Farther away it
    is at most 7 eps of the difference, and the plain sums stand.
    """
    above = y0 - SQRT2 - 1.0
    below = y0 + SQRT2 - 1.0
    if abs(above) < NEAR_STATIONARY:
        above = (y0 - RICCATI_STATIONARY) + RICCATI_STATIONARY_ERROR
    elif abs(below) < NEAR_STATIONARY:
        below = (y0 - RICCATI_UNSTABLE) - SQRT2_ERROR
    return above, below


def _start_log_z(y0: float) -> tuple[float, float] | None:
    """Real and imaginary parts of Log z, z = (y0 - 1 - sqrt(2)) /
    (y0 + sqrt(2) - 1), for a finite start, or None on a float stationary
    state, whose solution is constant; a start an ulp away has its poles.

    The solution from y0 has its poles on the lattice
    t_k = (Log z + 2 pi i k) / (2 sqrt(2)).  z < 0 whenever y0 lies
    between the two stationary states, and then no pole is real.
    """
    if not math.isfinite(y0):
        raise ValueError("y0 must be finite")
    if y0 in (RICCATI_STATIONARY, RICCATI_UNSTABLE):
        return None
    num, den = _stationary_gaps(y0)
    ratio = num / den
    if 0.5 < ratio < 2.0:
        # num = den - 2 sqrt(2): near 1 the ratio's own rounding would
        # swamp the log, so take log1p of the exact difference instead
        re = math.log1p(-2.0 * SQRT2 / den)
    else:
        re = math.log(abs(ratio))
    return re, (math.pi if ratio < 0 else 0.0)


def riccati_radius(y0: float) -> RadiusReport:
    """Convergence radius of the series for dY/dt = 1 + 2Y - Y^2, Y(0) = y0.

    The radius is ``riccati_radii`` at t = 0, the distance from 0 to the
    nearest pole of the lattice.  Starting exactly on a stationary state
    gives a constant solution and an infinite radius.
    """
    y0 = float(y0)
    radius = float(riccati_radii(y0, 0.0))
    if radius == math.inf:
        return RadiusReport(
            radius, "constant solution at a stationary state; the series terminates")
    return RadiusReport(radius, f"nearest complex-time pole for y0={y0:.6g}")


def riccati_radii(y0: float, times) -> np.ndarray:
    """Radius of the series re-expanded about each time t of ``times`` (a
    float or an array), along the solution started at y0: the distance
    from t to the nearest pole of the lattice, as one array expression.

    From y0 = 0 it always exceeds sqrt(2)*pi/4 (about 1.11), the value
    reached at t = sqrt(2)/2 * log(1 + sqrt(2)); restart steps must stay
    well below that floor for piecewise stepping to converge.
    """
    log_z = _start_log_z(float(y0))
    times = np.asarray(times, dtype=float)
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and non-negative")
    if log_z is None:
        return np.full(times.shape, math.inf)
    re, im = log_z
    return SQRT2 / 4.0 * np.hypot(re - 2.0 * SQRT2 * times, im)


def estimate_radius(s: TruncatedSeries) -> RadiusReport:
    """Ratio-test radius estimate from the trailing coefficients.

    Candidate samples are the spaced ratios |c_k / c_{k+s}|**(1/s) over the
    last RATIO_WINDOW pairs, for spacings s in {1, 2, 3}; the spacing whose
    log-ratios scatter least wins and its median is returned.  A single real
    pole makes every spacing agree (and the estimate near-exact), while a
    complex-conjugate pole pair makes adjacent ratios oscillate strongly; a
    spacing close to the oscillation period damps that almost entirely.
    Expect a few percent accuracy at the radius rows' order
    (``scenario.ESTIMATE_ORDER``) in the complex-pair case.
    """
    window = RATIO_WINDOW
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
        f"median spaced ratio, window={window}, spacing={spacing}, "
        f"ratio spread [{r[0]:.4g}, {r[-1]:.4g}]",
    )
