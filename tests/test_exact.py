import math

import mpmath
import numpy as np
import pytest

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
from serieslab.models import RICCATI_STATIONARY, RICCATI_UNSTABLE, build_riccati, make_model


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


def sir_roots_50_digits(beta, gamma, x0, y0):
    """x_limit and, with an epidemic, x_over: 50-digit roots of the
    endpoint equations in s = ln(x/x0), bracketed below the peak."""
    with mpmath.workdps(50):
        beta, gamma, x0, y0 = (mpmath.mpf(v) for v in (beta, gamma, x0, y0))
        rho = gamma / beta
        peak = mpmath.log(rho / x0) if x0 > rho else mpmath.mpf(0)
        s_limit = mpmath.findroot(
            lambda s: y0 - x0 * mpmath.expm1(s) + rho * s,
            (-2 * (x0 + y0) / rho, peak), solver="anderson")
        roots = [x0 * mpmath.exp(s_limit)]
        if x0 > rho:
            s_over = mpmath.findroot(lambda s: rho * s - x0 * mpmath.expm1(s),
                                     (s_limit, peak), solver="anderson")
            roots.append(x0 * mpmath.exp(s_over))
        # each root solves its equation as first stated in x
        for root, target in zip(roots, (0, y0)):
            y = y0 + x0 - root + rho * mpmath.log(root / x0)
            assert abs(y - target) < mpmath.mpf(10) ** -40
        return roots


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
