import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import serieslab.convergence
from serieslab.convergence import (
    MULTISTAGE_RADIUS_FLOOR,
    NotEstimableError,
    RadiusMethod,
    RadiusReport,
    estimate_radius,
    riccati_radii,
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
    assert abs(riccati_radii(0.0, 0.0) - RADIUS_ZERO_START) < 1e-12


def test_multistage_radius_floor():
    ts = np.linspace(0.0, 100.0, 5001)
    values = riccati_radii(0.0, ts)
    assert np.all(values >= MULTISTAGE_RADIUS_FLOOR - 1e-12)
    t_star = SQRT2 / 2.0 * math.log(SQRT2 + 1.0)
    assert abs(riccati_radii(0.0, t_star) - MULTISTAGE_RADIUS_FLOOR) < 1e-12
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
    got = riccati_radii(0.0, 10.0)
    assert abs(got - 9.442330509322336) < 1e-9
    assert abs(got - nearest) / nearest < 1e-4


def test_multistage_radius_rejects_negative_time():
    with pytest.raises(ValueError):
        riccati_radii(0.0, -1.0)


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_multistage_radii_reject_what_the_scalar_rejects(bad):
    # an array of times is rejected for any element a single time would be
    with pytest.raises(ValueError):
        riccati_radii(0.0, bad)
    with pytest.raises(ValueError):
        riccati_radii(0.0, [0.0, bad])


def test_radii_of_stationary_and_non_finite_starts():
    for y0 in (RICCATI_STATIONARY, 1.0 + math.sqrt(2.0), RICCATI_UNSTABLE):
        assert np.all(riccati_radii(y0, [0.0, 1.0, 50.0]) == math.inf)
    with pytest.raises(ValueError):
        riccati_radii(math.nan, [0.0])


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


# -- the pole lattice about later times ---------------------------------------

LATTICE_STARTS = (0.0, -0.3, 0.9, 2.0, 5.0, -2.0, 40.0, -1e6)


def mp_lattice_radii(y0, times):
    """min_k |t_k - t| over the poles t_k = (Log z + 2 pi i k) / (2 sqrt(2))
    in 60-digit arithmetic; k in {-1, 0, 1} holds the nearest pole."""
    with mpmath.workdps(60):
        root2 = mpmath.sqrt(2)
        y = mpmath.mpf(y0)
        log_z = mpmath.log(mpmath.mpc((y - 1 - root2) / (y + root2 - 1)))
        poles = [(log_z + 2j * mpmath.pi * k) / (2 * root2) for k in (-1, 0, 1)]
        return np.array([float(min(abs(p - mpmath.mpf(t)) for p in poles))
                         for t in times])


def test_radii_at_zero_within_one_ulp_of_the_radius():
    # np.hypot and math.hypot may round the same pair differently in the
    # last bit, so the two functions agree to 1 ulp rather than bit for bit
    rng = np.random.default_rng(0)
    starts = (*LATTICE_STARTS, *rng.uniform(-50.0, 50.0, 2000),
              1e15, -1e17, 1e200, -1e200)
    for y0 in starts:
        radius = riccati_radius(float(y0)).radius
        assert abs(riccati_radii(float(y0), [0.0])[0] - radius) <= np.spacing(radius)


@pytest.mark.parametrize("y0", LATTICE_STARTS)
def test_radii_match_the_multiprecision_lattice(y0):
    # measured worst 2.1 eps; the grid's step of 0.5 keeps clear of the
    # real pole of y0 = -2 at t = 0.362, near which re - 2 sqrt(2) t cancels
    # and no float formula keeps a relative accuracy
    grid = np.linspace(0.0, 1000.0, 2001)
    got = riccati_radii(y0, grid)
    want = mp_lattice_radii(y0, grid)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)


@pytest.mark.parametrize("y0", [0.0, -0.3, 0.9, 2.0, 5.0, 40.0])
def test_radii_equal_the_radius_of_the_state_reached(y0):
    # the model is autonomous: the radius about t is the radius of a fresh
    # start at Y(t).  Measured worst 2.5e-13, from the cancellation in
    # Y(t) - (1 + sqrt(2)) as Y(t) nears the attracting state
    ts = np.linspace(0.0, 3.0, 301)
    fresh = np.array([riccati_radius(riccati_exact(y0, float(t))).radius
                      for t in ts])
    assert np.all(np.abs(riccati_radii(y0, ts) - fresh) <= 1e-12 * fresh)


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


def ratio_test_at(s, window):
    """``estimate_radius`` with its window set to ``window``."""
    with mock.patch.object(serieslab.convergence, "RATIO_WINDOW", window):
        return estimate_radius(s)


def outcome(estimator, s, window):
    try:
        report = estimator(s, window)
    except ValueError as exc:
        return type(exc), str(exc)
    return report, report.radius.hex()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(st.lists(st.one_of(st.floats(-1e30, 1e30), st.sampled_from([0.0, -0.0, 1e-300])),
                min_size=4, max_size=40),
       st.integers(4, 12))
@settings(max_examples=300, deadline=None)
def test_ratio_test_matches_array_version(coefficients, window):
    s = TruncatedSeries(coefficients)
    assert outcome(ratio_test_at, s, window) == outcome(array_ratio_test, s, window)


@pytest.mark.parametrize("window", range(4, 13))
def test_ratio_test_matches_array_version_on_model_series(window):
    models = [build_riccati(y0) for y0 in (0.0, 0.3, 5.0, -0.25, 2.0)] + [
        make_model("lotka_volterra", dict(a=3.0, b=2.0, c=1.5, d=0.7), [1.0, 2.5]),
        make_model("sir", dict(beta=0.5, gamma=0.2), [5.0, 1.0, 0.0]),
    ]
    for model in models:
        for order in (window, window + 1, window + 3, 30, 61):
            for s in generate_taylor_solution(model, order).components:
                assert (outcome(ratio_test_at, s, window)
                        == outcome(array_ratio_test, s, window))
    # a degenerate tail fails with the same text
    for s in (TruncatedSeries([2.0] + [0.0] * 20),
              TruncatedSeries([1.0, -0.0] * 12)):
        assert outcome(ratio_test_at, s, window) == outcome(array_ratio_test, s, window)
        assert outcome(ratio_test_at, s, window)[0] is NotEstimableError
