import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serieslab.convergence import (
    MULTISTAGE_RADIUS_FLOOR,
    NotEstimableError,
    RadiusMethod,
    RadiusReport,
    estimate_radius,
    riccati_multistage_radius,
    riccati_radius,
)
from serieslab.exact import riccati_exact
from serieslab.models import (
    RICCATI_STATIONARY,
    RICCATI_UNSTABLE,
    SQRT2,
    build_riccati,
    make_model,
)
from serieslab.series import TruncatedSeries, eval_series, generate_taylor_solution

# frozen against a 40-digit evaluation of the closed forms
RADIUS_ZERO_START = 1.273620920872462
RADIUS_FIVE_START = 0.2612752286902399


def test_radius_zero_start():
    report = riccati_radius(0.0)
    assert report.method is RadiusMethod.EXACT_RICCATI
    assert abs(report.radius - RADIUS_ZERO_START) < 1e-12
    assert abs(report.radius - 1.274) < 1e-3


def test_radius_start_at_five():
    report = riccati_radius(5.0)
    assert abs(report.radius - RADIUS_FIVE_START) < 1e-12
    assert abs(report.radius - 0.261) < 1e-3


def test_radius_stationary_starts_are_infinite():
    assert riccati_radius(RICCATI_STATIONARY).radius == math.inf
    assert riccati_radius(1.0 + math.sqrt(2.0)).radius == math.inf
    report = riccati_radius(RICCATI_UNSTABLE)
    assert report.radius == math.inf
    assert "constant" in report.detail


def test_radius_rejects_non_finite():
    with pytest.raises(ValueError):
        riccati_radius(float("nan"))


def test_radius_decreases_above_stationary_state():
    starts = np.linspace(RICCATI_STATIONARY + 0.25, RICCATI_STATIONARY + 40.0, 80)
    radii = [riccati_radius(v).radius for v in starts]
    assert all(r2 < r1 for r1, r2 in zip(radii, radii[1:]))


def test_radius_matches_nearest_pole_modulus():
    # independent check: the pole set of the closed-form solution
    for y0 in (0.0, -0.3, 2.0, 5.0, 12.0):
        z = (y0 - SQRT2 - 1.0) / (y0 + SQRT2 - 1.0)
        poles = [
            abs((cmath.log(abs(z)) + 1j * ((2 * k + 1) * math.pi if z < 0 else 2 * k * math.pi))
                / (2.0 * SQRT2))
            for k in range(-3, 4)
        ]
        nearest = min(p for p in poles if p > 0)
        assert abs(riccati_radius(y0).radius - nearest) < 1e-12


def test_multistage_radius_at_zero_matches_plain_radius():
    assert abs(riccati_multistage_radius(0.0).radius - RADIUS_ZERO_START) < 1e-12


def test_multistage_radius_floor():
    ts = np.linspace(0.0, 100.0, 5001)
    values = np.array([riccati_multistage_radius(t).radius for t in ts])
    assert np.all(values >= MULTISTAGE_RADIUS_FLOOR - 1e-12)
    t_star = SQRT2 / 2.0 * math.log(SQRT2 + 1.0)
    assert abs(riccati_multistage_radius(t_star).radius - MULTISTAGE_RADIUS_FLOOR) < 1e-12
    # the floor is approached only near t_star
    away = values[np.abs(ts - t_star) > 0.5]
    assert np.all(away > MULTISTAGE_RADIUS_FLOOR + 1e-3)


def test_multistage_radius_at_ten_matches_pole_oracle():
    # oracle: restart the closed form at t=10 and locate its nearest pole
    y10 = riccati_exact(0.0, 10.0)
    z = (y10 - SQRT2 - 1.0) / (y10 + SQRT2 - 1.0)
    nearest = min(
        abs(complex(math.log(abs(z)), (2 * k + 1) * math.pi)) / (2.0 * SQRT2)
        for k in range(-2, 3)
    )
    got = riccati_multistage_radius(10.0).radius
    assert abs(got - 9.442330509322336) < 1e-9
    assert abs(got - nearest) / nearest < 1e-4


def test_multistage_radius_rejects_negative_time():
    with pytest.raises(ValueError):
        riccati_multistage_radius(-1.0)


def test_estimate_geometric_series_is_exact():
    coeffs = [2.0 ** (-k) for k in range(21)]
    report = estimate_radius(TruncatedSeries(coeffs))
    assert report.radius == 2.0
    assert report.method is RadiusMethod.RATIO_ESTIMATE


def test_estimate_complex_pair_within_ten_percent():
    sol = generate_taylor_solution(build_riccati(0.0), 30)
    est = estimate_radius(sol.components[0]).radius
    assert abs(est - RADIUS_ZERO_START) / RADIUS_ZERO_START < 0.10


def test_estimate_real_pole_within_five_percent():
    sol = generate_taylor_solution(build_riccati(5.0), 30)
    est = estimate_radius(sol.components[0]).radius
    assert abs(est - RADIUS_FIVE_START) / RADIUS_FIVE_START < 0.05


def test_estimate_rejects_degenerate_tails():
    constant = TruncatedSeries([2.0] + [0.0] * 20)
    with pytest.raises(NotEstimableError):
        estimate_radius(constant)
    short = TruncatedSeries([1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        estimate_radius(short)
    with pytest.raises(ValueError):
        estimate_radius(TruncatedSeries(np.ones(21)), window=3)


def test_radius_report_validation():
    with pytest.raises(ValueError):
        RadiusReport(0.0, RadiusMethod.EXACT_RICCATI)
    with pytest.raises(ValueError):
        RadiusReport(float("nan"), RadiusMethod.EXACT_RICCATI)
    assert RadiusReport(math.inf, RadiusMethod.EXACT_RICCATI).radius == math.inf


def test_series_useless_beyond_radius():
    # error at a point beyond the radius grows without bound in the order
    t = 1.5
    exact = riccati_exact(0.0, t)
    errs = {}
    for order in (10, 30):
        sol = generate_taylor_solution(build_riccati(0.0), order)
        errs[order] = abs(eval_series(sol.components[0], t) - exact)
    assert errs[30] > errs[10]
    assert errs[30] > 100.0


# -- large starts against a multiprecision oracle -----------------------------

def mp_riccati_radius(y0):
    """sqrt(2)/4 |log(num/den)| in 60-digit arithmetic, through log1p of
    the exact difference -2 sqrt(2)/den: at 60 digits the ratio itself
    rounds to 1 from about |y0| = 1e60 on."""
    with mpmath.workdps(60):
        root2 = mpmath.sqrt(2)
        den = mpmath.mpf(y0) + root2 - 1
        return float(root2 / 4 * abs(mpmath.log1p(-2 * root2 / den)))


@pytest.mark.parametrize("y0", [1e15, -1e15, 1e17, -1e17, 1e200, -1e200])
def test_radius_of_huge_starts_matches_multiprecision(y0):
    radius = riccati_radius(y0).radius
    assert math.isfinite(radius) and radius > 0
    assert radius == pytest.approx(mp_riccati_radius(y0), rel=4 * np.finfo(float).eps, abs=0)


def test_radius_keeps_the_log_form_outside_the_log1p_switch():
    # the presets' starts 0 and 5 (ratios -5.83 and 0.478) keep their bits
    for y0 in (0.0, 5.0, -0.3, 2.0, 4.0, 5.2, -3.2):
        ratio = (y0 - SQRT2 - 1.0) / (y0 + SQRT2 - 1.0)
        assert not 0.5 < ratio < 2.0
        modulus = (abs(math.log(ratio)) if ratio > 0
                   else math.hypot(math.log(-ratio), math.pi))
        assert riccati_radius(y0).radius == SQRT2 / 4.0 * modulus


def test_radius_near_the_log1p_switch_matches_multiprecision():
    # log1p takes over where num/den lies in (0.5, 2): y0 > 5.24 or y0 < -3.24;
    # measured worst here 2.1 eps, while log(num/den) reaches 7.6 eps near
    # ratio 0.9 (y0 about 27)
    rng = np.random.default_rng(0)
    starts = (*np.geomspace(5.0, 1e17, 300), *-np.geomspace(3.0, 1e17, 300),
              *rng.uniform(5.25, 40.0, 2000), *-rng.uniform(3.25, 40.0, 2000))
    for y0 in starts:
        radius = riccati_radius(float(y0)).radius
        assert radius == pytest.approx(mp_riccati_radius(float(y0)),
                                       rel=4 * np.finfo(float).eps, abs=0)


# -- the ratio test against the array version ---------------------------------

def array_ratio_test(s, window=8):
    """``estimate_radius`` as it ran before: index arrays for the windows,
    np.any for the zero test, np.std and np.median.  Kept as the oracle."""
    if window < 4:
        raise ValueError("window must be at least 4")
    if s.order < window:
        raise ValueError("series order must be at least the window size")
    coeffs = s.coefficients
    n = s.order
    best = None
    for spacing in (1, 2, 3):
        lead = np.arange(n - spacing - window + 1, n - spacing + 1)
        if lead[0] < 0:
            continue
        a = coeffs[lead]
        b = coeffs[lead + spacing]
        if np.any(a == 0.0) or np.any(b == 0.0):
            continue
        ratios = np.abs(a / b) ** (1.0 / spacing)
        spread = float(np.std(np.log(ratios)))
        if best is None or spread < best[0]:
            best = (spread, spacing, ratios)
    if best is None:
        raise NotEstimableError(
            f"need {window} trailing nonzero coefficient pairs for a ratio test"
        )
    spread, spacing, ratios = best
    return RadiusReport(
        float(np.median(ratios)),
        RadiusMethod.RATIO_ESTIMATE,
        f"median spaced ratio, window={window}, spacing={spacing}, "
        f"ratio spread [{ratios.min():.4g}, {ratios.max():.4g}]",
    )


def outcome(estimator, s, window):
    try:
        report = estimator(s, window)
    except ValueError as exc:
        return type(exc), str(exc)
    return report, report.radius.hex()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(st.lists(st.one_of(st.floats(-1e30, 1e30), st.sampled_from([0.0, -0.0, 1e-300])),
                min_size=4, max_size=40),
       st.integers(3, 12))
@settings(max_examples=300, deadline=None)
def test_ratio_test_matches_array_version(coefficients, window):
    s = TruncatedSeries(coefficients)
    assert outcome(estimate_radius, s, window) == outcome(array_ratio_test, s, window)


@pytest.mark.parametrize("window", range(4, 13))
def test_ratio_test_matches_array_version_on_model_series(window):
    models = [build_riccati(y0) for y0 in (0.0, 0.3, 5.0, -0.25, 2.0)] + [
        make_model("lotka_volterra", dict(a=3.0, b=2.0, c=1.5, d=0.7), [1.0, 2.5]),
        make_model("sir", dict(beta=0.5, gamma=0.2), [5.0, 1.0, 0.0]),
    ]
    for model in models:
        for order in (window, window + 1, window + 3, 30, 61):
            for s in generate_taylor_solution(model, order).components:
                assert (outcome(estimate_radius, s, window)
                        == outcome(array_ratio_test, s, window))
    # a degenerate tail fails with the same text
    for s in (TruncatedSeries([2.0] + [0.0] * 20),
              TruncatedSeries([1.0, -0.0] * 12)):
        assert outcome(estimate_radius, s, window) == outcome(array_ratio_test, s, window)
        assert outcome(estimate_radius, s, window)[0] is NotEstimableError
