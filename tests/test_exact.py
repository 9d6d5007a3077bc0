import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from serieslab.convergence import riccati_radius
from serieslab.exact import (
    BlowUpError,
    BracketError,
    NearSingularError,
    find_root_bracketed,
    lv_conserved,
    riccati_exact,
    sir_endpoints,
    sir_t_of_x,
    sir_y_of_x,
    sir_z_of_x,
)
from serieslab.integrators import reference_integrate
from serieslab.models import (
    RICCATI_STATIONARY,
    RICCATI_STATIONARY_ERROR,
    RICCATI_UNSTABLE,
    SQRT2,
    SQRT2_ERROR,
    build_riccati,
    make_model,
)


def sir_slow():
    return make_model("sir", dict(beta=0.01, gamma=0.02), [20.0, 15.0, 10.0])


# -- closed-form scalar solution ----------------------------------------------

def test_riccati_exact_initial_condition():
    for y0 in (-0.3, 0.0, 1.0, 5.0, 17.2):
        assert riccati_exact(y0, 0.0) == pytest.approx(y0, abs=1e-14)


def test_riccati_exact_reaches_stationary_state():
    assert abs(riccati_exact(0.0, 20.0) - RICCATI_STATIONARY) < 1e-10
    assert abs(riccati_exact(0.0, 2000.0) - RICCATI_STATIONARY) < 1e-14


def test_riccati_exact_at_one():
    # frozen against a 40-digit evaluation of the closed form
    assert abs(riccati_exact(0.0, 1.0) - 1.6894983915943830) < 1e-14
    ref = reference_integrate(build_riccati(0.0), 1.0, 1e-12,
                              grid=np.array([0.0, 1.0]))
    assert abs(riccati_exact(0.0, 1.0) - ref.states[-1, 0]) < 1e-10


def test_riccati_exact_satisfies_ode_pointwise():
    h = 1e-5
    for t in np.linspace(0.05, 5.0, 100):
        y = riccati_exact(0.0, float(t))
        dy = (riccati_exact(0.0, float(t) + h) - riccati_exact(0.0, float(t) - h)) / (2 * h)
        assert abs(dy - (2 * y - y * y + 1)) < 1e-8


def test_riccati_exact_blows_up_below_unstable_state():
    with pytest.raises(BlowUpError) as info:
        riccati_exact(-2.0, 5.0)
    pole = info.value.pole_time
    assert 0 < pole < 5
    # just before the pole the solution is huge but defined
    assert riccati_exact(-2.0, pole * 0.999) < -50.0
    with pytest.raises(BlowUpError):
        riccati_exact(-2.0, pole)


def test_riccati_exact_backward_pole_above_stationary_state():
    # started above the attracting state, the solution blew up in the past
    with pytest.raises(BlowUpError) as info:
        riccati_exact(5.0, -10.0)
    assert info.value.pole_time < 0
    # forward evaluation is fine
    assert riccati_exact(5.0, 10.0) == pytest.approx(RICCATI_STATIONARY, abs=1e-6)


@pytest.mark.parametrize("y0, t", [(-2.0, 5.0), (-5.0, 5.0), (-1e6, 5.0),
                                   (5.0, -10.0), (40.0, -10.0)])
def test_riccati_exact_pole_time_matches_multiprecision(y0, t):
    with pytest.raises(BlowUpError) as info:
        riccati_exact(y0, t)
    with mpmath.workdps(60):
        root2 = mpmath.sqrt(2)
        y = mpmath.mpf(y0)
        pole = float(mpmath.log((y - 1 - root2) / (y + root2 - 1)) / (2 * root2))
    assert info.value.pole_time == pytest.approx(pole, rel=4 * np.finfo(float).eps, abs=0)


def test_riccati_exact_blows_up_next_to_the_stationary_states():
    # only an exactly stationary start is constant: just outside the two
    # states a real pole lies far out in time, and it is the nearest pole,
    # so its distance is the series radius
    below = RICCATI_UNSTABLE - 5e-16
    above = math.nextafter(RICCATI_STATIONARY, math.inf)
    for y0, t in ((below, 100.0), (above, -100.0)):
        with pytest.raises(BlowUpError) as info:
            riccati_exact(y0, t)
        assert 0 < info.value.pole_time / t < 1
        assert riccati_radius(y0).radius == pytest.approx(
            abs(info.value.pole_time), rel=2 * np.finfo(float).eps, abs=0)
    assert riccati_exact(RICCATI_STATIONARY, 100.0) == RICCATI_STATIONARY
    assert riccati_exact(RICCATI_STATIONARY, -100.0) == RICCATI_STATIONARY


def mp_real_pole(y0):
    """The real pole time of the start y0 in 50 digits, or None for a
    start between the two stationary states."""
    with mpmath.workdps(50):
        root2 = mpmath.sqrt(2)
        y = mpmath.mpf(y0)
        z = (y - 1 - root2) / (y + root2 - 1)
        return float(mpmath.log(z) / (2 * root2)) if z > 0 else None


def test_sqrt2_error_is_the_rounding_of_root_two():
    with mpmath.workdps(50):
        error = mpmath.mpf(SQRT2) - mpmath.sqrt(2)
        assert SQRT2_ERROR == float(error)
        # 1 - SQRT2 is exact, so the float unstable state is off by -SQRT2_ERROR
        assert mpmath.mpf(RICCATI_UNSTABLE) == 1 - mpmath.mpf(SQRT2)


def test_pole_of_a_start_one_ulp_above_the_attracting_state():
    # the float 1 + sqrt(2) is 1.3e-16 below the true state, as far as the
    # start is above it, so the plain difference y0 - sqrt(2) - 1 read the
    # pole as -13.111
    y0 = math.nextafter(RICCATI_STATIONARY, math.inf)
    with pytest.raises(BlowUpError) as info:
        riccati_exact(y0, -20.0)
    assert round(info.value.pole_time, 3) == round(mp_real_pole(y0), 3) == -12.983
    assert info.value.pole_time == pytest.approx(mp_real_pole(y0), rel=1e-14, abs=0)


def test_start_one_ulp_above_the_float_unstable_state_blows_up():
    # -0.4142135623730951 lies 4.1e-17 below the true 1 - sqrt(2), so its
    # solution leaves the state and reaches a pole near t = 13.7; the plain
    # sum y0 + sqrt(2) - 1 rounded its distance to 0 and kept it there
    y0 = -0.4142135623730951
    assert y0 == math.nextafter(RICCATI_UNSTABLE, 0.0)
    with pytest.raises(BlowUpError) as info:
        riccati_exact(y0, 30.0)
    assert info.value.pole_time == pytest.approx(mp_real_pole(y0), rel=1e-14, abs=0)
    for t in (5.0, 10.0, 13.0):
        want = riccati_50_digits(y0, t)
        assert abs(riccati_exact(y0, t) - want) <= 1e-13 * max(1, abs(want))


@pytest.mark.parametrize("state", [RICCATI_STATIONARY, RICCATI_UNSTABLE])
@pytest.mark.parametrize("ulps", [-1000, -30, -2, -1, 1, 2, 30, 1000])
def test_starts_ulps_from_a_stationary_state_match_multiprecision(state, ulps):
    y0 = state + ulps * math.ulp(state)
    pole = mp_real_pole(y0)
    for t in (-20.0, -3.0, 3.0, 20.0):
        if pole is not None and (0 < pole <= t or t <= pole < 0):
            with pytest.raises(BlowUpError) as info:
                riccati_exact(y0, t)
            assert info.value.pole_time == pytest.approx(pole, rel=1e-14, abs=0)
        else:
            want = riccati_50_digits(y0, t)
            assert abs(riccati_exact(y0, t) - want) <= 1e-13 * max(1, abs(want))


def riccati_50_digits(y0, t):
    """The closed form (Y - a)/(Y - b) = z0 exp(-2 sqrt(2) t), with a and b
    the two stationary states, solved for Y in 50 digits."""
    with mpmath.workdps(50):
        root2 = mpmath.sqrt(2)
        a, b = 1 + root2, 1 - root2
        y = mpmath.mpf(y0)
        z = (y - a) / (y - b) * mpmath.exp(-2 * root2 * mpmath.mpf(t))
        return (a - b * z) / (1 - z)


def test_riccati_stationary_error_is_the_rounding_of_one_plus_root_two():
    with mpmath.workdps(50):
        error = mpmath.mpf(RICCATI_STATIONARY) - (1 + mpmath.sqrt(2))
        assert RICCATI_STATIONARY_ERROR == float(error)
        assert abs(error - RICCATI_STATIONARY_ERROR) < mpmath.mpf(10) ** -30


def test_riccati_exact_backward_between_the_stationary_states():
    # backward in time every start in (1 - sqrt(2), 1 + sqrt(2)) falls to the
    # repelling state; starts within a few ulps of 1 + sqrt(2) leave it only
    # through a distance of the order of the float's rounding.  Error is
    # taken relative to max(1, |Y|): where Y crosses zero the closed form
    # subtracts two terms of the same size and keeps only absolute digits
    below = math.nextafter(RICCATI_STATIONARY, 0.0)
    assert riccati_exact(below, -100.0) == pytest.approx(RICCATI_UNSTABLE, rel=1e-15)
    rng = np.random.default_rng(2000)
    gaps = (RICCATI_STATIONARY - RICCATI_UNSTABLE) * 10.0 ** rng.uniform(-16.0, 0.0, 2000)
    times = -rng.uniform(0.0, 100.0, 2000)
    for gap, t in zip(gaps.tolist(), times.tolist()):
        y0 = RICCATI_STATIONARY - gap
        if not y0 > RICCATI_UNSTABLE:
            continue
        want = riccati_50_digits(y0, t)
        assert abs(riccati_exact(y0, t) - want) <= 1e-13 * max(1, abs(want))


def test_riccati_exact_between_fixed_points_is_global():
    for t in (-30.0, -1.0, 8.0, 50.0):
        value = riccati_exact(0.5, t)
        assert math.isfinite(value)
        assert RICCATI_UNSTABLE < value < RICCATI_STATIONARY + 1e-9


# -- predator-prey first integral ---------------------------------------------

def test_conserved_values():
    assert abs(lv_conserved(3, 2, 1, 1, 1, 1) - (math.log(6) - 5)) < 1e-14
    assert abs(lv_conserved(3, 2, 1, 1, 1, 1) - (-3.2082405307719450)) < 1e-14
    assert abs(lv_conserved(14, 18, 1, 1, 0.1, 1) - (-28.845722509142309)) < 1e-12


def test_conserved_constant_along_reference_trajectory():
    model = make_model("lotka_volterra", dict(a=1, b=1, c=1, d=1), [3.0, 2.0])
    tr = reference_integrate(model, 20.0, 1e-10, grid=np.linspace(0.0, 20.0, 801))
    h0 = lv_conserved(3.0, 2.0, 1, 1, 1, 1)
    drift = max(abs(lv_conserved(x, y, 1, 1, 1, 1) - h0) for x, y in tr.states)
    assert drift < 1e-6


def test_conserved_constant_through_deep_population_crash():
    # prey collapse through dozens of decades needs pure relative control
    model = make_model("lotka_volterra", dict(a=1, b=1, c=0.1, d=1), [14.0, 18.0])
    tr = reference_integrate(model, 20.0, 1e-11,
                             grid=np.linspace(0.0, 20.0, 401), atol=1e-140)
    assert np.all(tr.states > 0)
    h0 = lv_conserved(14.0, 18.0, 1, 1, 0.1, 1)
    drift = max(abs(lv_conserved(x, y, 1, 1, 0.1, 1) - h0) for x, y in tr.states)
    assert drift < 1e-6


def test_conserved_domain_errors():
    with pytest.raises(ValueError):
        lv_conserved(0.0, 1.0, 1, 1, 1, 1)
    with pytest.raises(ValueError):
        lv_conserved(1.0, -1.0, 1, 1, 1, 1)


# -- epidemic curves ------------------------------------------------------------

def test_sir_curves_at_initial_point():
    model = sir_slow()
    assert sir_y_of_x(20.0, model) == 15.0
    assert sir_z_of_x(20.0, model) == 10.0


def test_sir_curves_at_peak():
    model = sir_slow()
    assert abs(sir_y_of_x(2.0, model) - 28.394829814011909) < 1e-12
    assert abs(sir_z_of_x(2.0, model) - 14.605170185988091) < 1e-12


def test_sir_curves_conserve_population():
    model = sir_slow()
    for x in np.geomspace(1e-6, 20.0, 50):
        total = x + sir_y_of_x(float(x), model) + sir_z_of_x(float(x), model)
        assert abs(total - 45.0) < 1e-12


def test_sir_curves_domain_error():
    model = sir_slow()
    with pytest.raises(ValueError):
        sir_y_of_x(0.0, model)
    with pytest.raises(ValueError):
        sir_z_of_x(-1.0, model)
    with pytest.raises(ValueError):
        sir_y_of_x(1.0, build_riccati(0.0))


# -- endpoints -------------------------------------------------------------------

def test_endpoints_slow_epidemic():
    ends = sir_endpoints(sir_slow())
    assert ends.epidemic_occurs
    assert abs(ends.x_limit - 5.02e-7) / 5.02e-7 < 0.01
    assert abs(ends.x_over - 9.08e-4) / 9.08e-4 < 0.01
    assert ends.x_peak == 2.0
    assert abs(ends.y_peak - 28.39) < 0.01
    assert 0 < ends.x_limit < ends.x_over < ends.x_peak < 20.0


def test_endpoints_definitions_hold():
    model = sir_slow()
    ends = sir_endpoints(model)
    # roots are located to 1e-12 relative in x, in s = ln(x/x0); the
    # residual scales with the slope rho - x in s
    assert abs(sir_y_of_x(ends.x_limit, model)) < 10e-12 * abs(2.0 - ends.x_limit)
    # the return point has the infectives back at their initial count
    assert abs(sir_y_of_x(ends.x_over, model) - 15.0) < 10e-12 * abs(2.0 - ends.x_over)
    # the peak really is the maximum: the slope -1 + (gamma/beta)/x vanishes
    assert abs(-1.0 + 2.0 / ends.x_peak) == 0.0
    xg = np.geomspace(ends.x_limit * 1.001, 20.0, 4001)
    assert max(sir_y_of_x(float(x), model) for x in xg) <= ends.y_peak + 1e-9


def bisect_45_digits(f, lo, hi):
    """The root of f, increasing on [lo, hi] from f(lo) < 0 to f(hi) > 0,
    by bisection to 45 digits: slow, but it cannot miss, even where the
    root nearly doubles up with the peak."""
    while hi - lo > mpmath.mpf(10) ** -45 * max(abs(lo), abs(hi)):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def sir_roots_50_digits(beta, gamma, x0, y0):
    """x_limit and, with an epidemic, x_over: 50-digit roots of the
    endpoint equations in s = ln(x/x0), bracketed below the peak, where
    both equations increase."""
    with mpmath.workdps(50):
        beta, gamma, x0, y0 = (mpmath.mpf(v) for v in (beta, gamma, x0, y0))
        rho = gamma / beta
        peak = mpmath.log(rho / x0) if x0 > rho else mpmath.mpf(0)
        s_limit = bisect_45_digits(lambda s: y0 - x0 * mpmath.expm1(s) + rho * s,
                                   -2 * (x0 + y0) / rho, peak)
        roots = [x0 * mpmath.exp(s_limit)]
        if x0 > rho:
            s_over = bisect_45_digits(lambda s: rho * s - x0 * mpmath.expm1(s),
                                      s_limit, peak)
            roots.append(x0 * mpmath.exp(s_over))
        # each root solves its equation as first stated in x
        for root, target in zip(roots, (0, y0)):
            y = y0 + x0 - root + rho * mpmath.log(root / x0)
            assert abs(y - target) < mpmath.mpf(10) ** -40
        return roots


def endpoint_tol_bound(root, x0):
    """The relative error in x that sir_endpoints promises for a root:
    ``tol`` = 1e-12 in s = ln(x/x0), plus the rounding of s in x =
    x0*exp(s), up to |s|*eps, with room to spare."""
    s = abs(float(mpmath.log(root / x0)))
    return 1e-12 + 4 * np.finfo(float).eps * (s + 1)


#: largest relative error against sir_roots_50_digits, measured at 1.2e-15
#: (sir-slow x_limit); x = x0*exp(s) carries the rounding of s, up to
#: |s|*eps, which is 1.1e-14 for the roots near 1e-21
ENDPOINT_ERROR_BOUND = 1e-14


@pytest.mark.parametrize("beta, gamma, start", [
    (1.0, 0.5, [20.0, 4.0, 0.0]),       # roots near 1e-20 and 1e-16
    (0.01, 0.02, [20.0, 15.0, 10.0]),   # sir-slow
    (1.0, 1.0, [20.0, 4.0, 10.0]),      # sir-fast
    (0.01, 0.5, [20.0, 4.0, 10.0]),     # no epidemic
], ids=["tiny-roots", "sir-slow", "sir-fast", "no-epidemic"])
def test_endpoints_match_a_50_digit_oracle(beta, gamma, start):
    ends = sir_endpoints(make_model("sir", dict(beta=beta, gamma=gamma), start))
    exact = sir_roots_50_digits(beta, gamma, *start[:2])
    got = [ends.x_limit] + ([ends.x_over] if ends.epidemic_occurs else [])
    assert len(got) == len(exact)
    for value, root in zip(got, exact):
        assert float(abs(value - root) / root) < ENDPOINT_ERROR_BOUND


@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(-2.0, 3.0),
       st.floats(-2.0, 3.0))
@example(-2.0, -0.3, 1.3, 0.6)      # no epidemic: x0 = 20 <= rho = 50
@example(4.0, -4.0, 3.0, 3.0)       # rho = 1e-8: the die-out point underflows
@settings(max_examples=200, deadline=None)
def test_endpoints_sweep_matches_a_50_digit_oracle(log_beta, log_gamma, log_x0, log_y0):
    # rates from 1e-4 to 1e4, starts with and without an epidemic
    # (x0 <= gamma/beta), die-out points from x0 down to below the smallest
    # float.  A root is found to ``tol`` = 1e-12 in s = ln(x/x0), and x =
    # x0*exp(s) adds the rounding of s, |s|*eps
    beta, gamma, x0, y0 = (10.0 ** v for v in (log_beta, log_gamma, log_x0, log_y0))
    model = make_model("sir", dict(beta=beta, gamma=gamma), [x0, y0, 0.0])
    exact = sir_roots_50_digits(beta, gamma, x0, y0)
    if float(exact[0]) == 0.0:
        with pytest.raises(ArithmeticError, match="below the smallest float"):
            sir_endpoints(model)
        return
    if exact[0] < 1e-300:
        # subnormal die-out points keep only absolute digits; they may
        # round to 0, which raises, but never read 0 or NaN
        try:
            assert 0.0 < sir_endpoints(model).x_limit < 1e-299
        except ArithmeticError:
            pass
        return
    ends = sir_endpoints(model)
    assert ends.epidemic_occurs == (x0 > gamma / beta)
    got = [ends.x_limit] + ([ends.x_over] if ends.epidemic_occurs else [])
    assert len(got) == len(exact)
    for value, root in zip(got, exact):
        assert float(abs(value - root) / root) < endpoint_tol_bound(root, x0)


def test_endpoints_below_the_smallest_float_raise():
    # rho = 1e-8: the die-out point is about 5*exp(-6e8)
    model = make_model("sir", dict(beta=1e4, gamma=1e-4), [5.0, 1.0, 0.0])
    with pytest.raises(ArithmeticError, match="below the smallest float"):
        sir_endpoints(model)


def test_endpoints_without_epidemic():
    model = make_model("sir", dict(beta=0.01, gamma=0.5), [20.0, 4.0, 10.0])
    ends = sir_endpoints(model)
    assert not ends.epidemic_occurs
    assert ends.x_over is None and ends.x_peak is None and ends.y_peak is None
    assert 0 < ends.x_limit < 20.0
    assert abs(sir_y_of_x(ends.x_limit, model)) < 1e-9
    # infectives only decrease: the slope of y(x) is positive on (0, x0]
    xs = np.linspace(1e-3, 20.0, 200)
    ys = [sir_y_of_x(float(x), model) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


def test_endpoints_require_positive_start():
    model = make_model("sir", dict(beta=0.01, gamma=0.02), [20.0, 0.0, 10.0])
    with pytest.raises(ValueError):
        sir_endpoints(model)


# -- time from the susceptible count ----------------------------------------------

def test_time_of_x_at_start_is_zero():
    assert sir_t_of_x(20.0, sir_slow()) == 0.0


def test_time_of_x_matches_reference_integrator():
    model = sir_slow()
    t10 = sir_t_of_x(10.0, model)
    tr = reference_integrate(model, 2 * t10, 1e-12,
                             grid=np.linspace(0.0, 2 * t10, 4001))
    xs = tr.states[:, 0]
    crossing = float(np.interp(10.0, xs[::-1], tr.times[::-1]))
    assert abs(t10 - crossing) < 1e-5


def test_time_of_x_monotone():
    model = sir_slow()
    xs = np.geomspace(1e-5, 20.0, 40)
    ts = [sir_t_of_x(float(x), model) for x in xs]
    assert all(t1 > t2 for t1, t2 in zip(ts, ts[1:]))


def test_time_of_x_guards():
    model = sir_slow()
    ends = sir_endpoints(model)
    with pytest.raises(NearSingularError):
        sir_t_of_x(ends.x_limit * 1.0005, model)
    with pytest.raises(ValueError):
        sir_t_of_x(25.0, model)


# -- bracketed root finding --------------------------------------------------------

def test_root_sqrt_two():
    root = find_root_bracketed(lambda x: x * x - 2.0, 1.0, 2.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) < 1e-12


def test_root_of_die_out_equation():
    f = lambda x: 15.0 + 20.0 - x + 2.0 * math.log(x / 20.0)
    root = find_root_bracketed(f, 1e-12, 2.0, 1e-12)
    assert abs(root - 5.02e-7) / 5.02e-7 < 0.01


def test_root_identity_function():
    assert abs(find_root_bracketed(lambda x: x, -1.0, 1.0, 1e-12)) < 1e-12


def test_root_bracket_errors():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x, 1.0, -1.0, 1e-12)
    with pytest.raises(ValueError):
        find_root_bracketed(lambda x: x, -1.0, 1.0, -1e-12)


def test_root_endpoint_hits():
    assert find_root_bracketed(lambda x: x, 0.0, 1.0, 1e-12) == 0.0
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 1.0, 1e-12) == 1.0
