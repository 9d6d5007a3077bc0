import math
import re

import numpy as np
import pytest

from serieslab.exact import lv_conserved, riccati_exact, sir_endpoints
from serieslab.integrators import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    IntegrationError,
    Trajectory,
    multistage_taylor,
    reference_integrate,
    sample_series,
)
from serieslab.models import (
    ModelInstance,
    Monomial,
    PolynomialVectorField,
    build_riccati,
    make_model,
)
from serieslab.series import (
    KERNEL_MAX_ORDER,
    _path_source,
    eval_series,
    generate_taylor_solution,
    straight_line_path,
    taylor_coefficients,
    taylor_path,
)


def lv_case_v():
    return make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0])


def sir_slow():
    return make_model("sir", dict(beta=0.01, gamma=0.02), [20.0, 15.0, 10.0])


# -- trajectory container ------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), "series")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), "series")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), "guesswork")
    tr = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)), "reference")
    assert tr.states.shape == (2, 3)
    with pytest.raises(ValueError):
        tr.times[0] = 5.0


# -- piecewise series stepping ---------------------------------------------------

def test_multistage_reaches_stationary_state():
    tr = multistage_taylor(build_riccati(0.0), 5, 0.2, 5.0)
    assert abs(tr.states[-1, 0] - riccati_exact(0.0, 5.0)) < 1e-6
    assert tr.provenance == "multistage"
    assert tr.meta["order"] == 5
    assert tr.times[0] == 0.0 and tr.times[-1] == 5.0


def test_single_stage_equals_series_evaluation():
    model = build_riccati(0.0)
    tr = multistage_taylor(model, 6, 10.0, 0.7)
    sol = generate_taylor_solution(model, 6)
    assert tr.times.size == 2
    assert tr.states[-1, 0] == eval_series(sol.components[0], 0.7)


def test_multistage_step_beyond_radius_diverges():
    with pytest.raises(DivergenceError) as info:
        multistage_taylor(build_riccati(0.0), 5, 2.0, 10.0)
    assert info.value.step_index >= 0


def test_multistage_argument_validation():
    model = build_riccati(0.0)
    with pytest.raises(ValueError):
        multistage_taylor(model, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        multistage_taylor(model, 5, 0.0, 1.0)
    with pytest.raises(ValueError):
        multistage_taylor(model, 5, 0.1, -1.0)


def test_multistage_order_convergence_under_step_halving():
    exact = riccati_exact(0.0, 2.0)
    for order in (3, 4, 5):
        errs = []
        for step in (0.5, 0.25):
            tr = multistage_taylor(build_riccati(0.0), order, step, 2.0)
            errs.append(abs(tr.states[-1, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 2 ** (order - 1) <= ratio <= 2 ** (order + 1)


def test_multistage_tracks_reference_closely():
    tr = multistage_taylor(build_riccati(0.0), 8, 0.1, 10.0)
    ref = reference_integrate(build_riccati(0.0), 10.0, 1e-12, grid=tr.times)
    assert float(np.max(np.abs(tr.states - ref.states))) < 1e-8


# -- reference integrator ----------------------------------------------------------

def test_reference_riccati_value():
    tr = reference_integrate(build_riccati(0.0), 1.0, 1e-10,
                             grid=np.array([0.0, 1.0]))
    assert abs(tr.states[-1, 0] - 1.6894983915943830) < 1e-9


def test_reference_conserves_lv_invariant():
    tr = reference_integrate(lv_case_v(), 20.0, 1e-10,
                             grid=np.linspace(0.0, 20.0, 801))
    h0 = lv_conserved(3.0, 2.0, 1, 1, 1, 1)
    drift = max(abs(lv_conserved(x, y, 1, 1, 1, 1) - h0) for x, y in tr.states)
    assert drift < 1e-6


def test_reference_sir_long_time_asymptotics():
    model = sir_slow()
    ends = sir_endpoints(model)
    tr = reference_integrate(model, 2000.0, 1e-12, grid=np.array([0.0, 2000.0]))
    x_end, y_end, _ = tr.states[-1]
    assert abs(x_end - ends.x_limit) < 1e-9
    assert abs(y_end) < 1e-12


def test_reference_tolerance_bounds():
    model = build_riccati(0.0)
    with pytest.raises(ValueError):
        reference_integrate(model, 1.0, 1e-14)
    with pytest.raises(ValueError):
        reference_integrate(model, 1.0, 1e-2)
    with pytest.raises(ValueError):
        reference_integrate(model, -1.0, 1e-10)


def test_reference_grid_validation():
    model = build_riccati(0.0)
    with pytest.raises(ValueError):
        reference_integrate(model, 1.0, 1e-10, grid=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        reference_integrate(model, 1.0, 1e-10, grid=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        reference_integrate(model, 1.0, 1e-10, grid=np.array([0.0, 2.0]))


def test_reference_blow_up_raises_with_last_time():
    with pytest.raises(IntegrationError) as info:
        reference_integrate(build_riccati(-2.0), 5.0, 1e-10)
    assert 0.0 <= info.value.last_time < 5.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("y0", [1e200, -1e200])
def test_reference_failure_before_any_step_raises_integration_error(y0):
    # DOP853 stops before its first step, when solve_ivp's times are still
    # a plain list
    with pytest.raises(IntegrationError, match="integrator stopped at t=0") as info:
        reference_integrate(build_riccati(y0), 1.0, 1e-10)
    assert info.value.last_time == 0.0


def test_reference_tightening_tolerance_is_stable():
    for model, t_end in ((build_riccati(0.0), 10.0), (lv_case_v(), 20.0),
                         (sir_slow(), 100.0)):
        grid = np.array([0.0, t_end])
        loose = reference_integrate(model, t_end, 1e-6, grid=grid).states[-1]
        tight = reference_integrate(model, t_end, 1e-9, grid=grid).states[-1]
        assert float(np.max(np.abs(loose - tight))) < 10.0 * 1e-6


# -- series sampling -----------------------------------------------------------------

def test_sample_series_at_origin():
    sol = generate_taylor_solution(sir_slow(), 5)
    tr = sample_series(sol, np.array([0.0]))
    assert np.array_equal(tr.states[0], [20.0, 15.0, 10.0])
    assert tr.provenance == "series"


def test_sample_series_grid_validation():
    sol = generate_taylor_solution(build_riccati(0.0), 5)
    with pytest.raises(ValueError):
        sample_series(sol, np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        sample_series(sol, np.array([0.0, 0.2, 0.2]))


def test_series_accuracy_window():
    # inside half the radius the order-5 series is excellent, far beyond the
    # radius it is nonsense
    model = build_riccati(0.0)
    sol = generate_taylor_solution(model, 5)
    grid = np.linspace(0.0, 3.0, 301)
    tr = sample_series(sol, grid)
    exact = np.array([riccati_exact(0.0, float(t)) for t in grid])
    rel = np.abs(tr.states[:, 0] - exact) / np.maximum(np.abs(exact), 1e-30)
    early = grid[(grid > 0.01) & (grid < 0.6)]
    assert np.max(rel[(grid > 0.01) & (grid < 0.6)]) < 0.01
    assert early.size > 0
    assert np.min(rel[grid > 2.0]) > 1.0


def test_series_violates_lv_invariant_quickly():
    model = lv_case_v()
    sol = generate_taylor_solution(model, 5)
    grid = np.linspace(0.0, 4.0, 401)
    tr = sample_series(sol, grid)
    h0 = lv_conserved(3.0, 2.0, 1, 1, 1, 1)
    worst = 0.0
    for (x, y) in tr.states:
        if x > 0 and y > 0:
            worst = max(worst, abs(lv_conserved(float(x), float(y), 1, 1, 1, 1) - h0))
    assert worst > 1.0


# -- population conservation across provenances ----------------------------------------

def test_sir_population_constant_all_provenances():
    model = sir_slow()
    total = 45.0
    sol = generate_taylor_solution(model, 8)
    grid = np.linspace(0.0, 50.0, 201)
    series_tr = sample_series(sol, grid)
    # series: conservation is a per-order coefficient identity, so the
    # sampled total is constant to evaluation rounding; far beyond the
    # radius the evaluated magnitudes (and hence the rounding) explode
    magnitude = np.abs(series_tr.states).sum(axis=1)
    slack = 64 * np.finfo(float).eps * np.maximum(magnitude, total)
    assert np.all(np.abs(series_tr.states.sum(axis=1) - total) <= slack)
    ref_tr = reference_integrate(model, 100.0, 1e-10,
                                 grid=np.linspace(0.0, 100.0, 401))
    assert np.max(np.abs(ref_tr.states.sum(axis=1) - total)) < 1e-8
    multi_tr = multistage_taylor(model, 5, 0.5, 100.0)
    n_steps = multi_tr.times.size - 1
    drift = np.max(np.abs(multi_tr.states.sum(axis=1) - total))
    assert drift < 1e-9 * n_steps


# -- the float stage loop against the array stage loop ---------------------------

def reference_stages(model, order, step, t_end):
    """The stage loop as it ran on numpy arrays before the float Horner
    step: the oracle.  Returns (times, states, None), or (times, states,
    (step_index, state)) where the guard would have raised."""
    times = [0.0]
    states = [np.array(model.initial_state, dtype=float)]
    t = 0.0
    state = states[0]
    index = 0
    while t < t_end:
        dt = min(step, t_end - t)
        coef = taylor_coefficients(model.field, state, order)
        nxt = np.zeros(model.field.dimension)
        for k in range(order, -1, -1):
            nxt = nxt * dt + coef[:, k]
        if not np.all(np.isfinite(nxt)) or np.max(np.abs(nxt)) > DIVERGENCE_LIMIT:
            return np.array(times), np.vstack(states), (index, nxt)
        t = t + dt
        state = nxt
        times.append(t)
        states.append(state)
        index += 1
    return np.array(times), np.vstack(states), None


def cubic_model(start=(0.3, -0.2)):
    """Constant terms, cubic chains and a zero coefficient (0.0 * x*y adds
    -0.0 whenever x*y < 0)."""
    field = PolynomialVectorField(2, (
        (Monomial(0.5, (0, 0)), Monomial(-0.2, (3, 0)), Monomial(0.0, (1, 1)),
         Monomial(0.3, (0, 1))),
        (Monomial(-0.4, (0, 0)), Monomial(0.7, (1, 2)), Monomial(-1.1, (0, 1))),
    ))
    return ModelInstance(field, {}, np.array(start), "cubic")


# orders 2-13: the compiled stage loop up to KERNEL_MAX_ORDER, the loop over
# taylor_coefficients above it
@pytest.mark.parametrize("order", range(2, KERNEL_MAX_ORDER + 3))
@pytest.mark.parametrize("model_fn, step, t_end", [
    (lambda: build_riccati(0.0), 0.2, 6.0),
    (lambda: build_riccati(3.7), 0.05, 2.0),
    (lv_case_v, 0.1, 8.0),
    (lambda: make_model("lotka_volterra", dict(a=2.0, b=0.5, c=0.3, d=1.7),
                        [0.1, 1.0]), 0.07, 5.0),
    (sir_slow, 0.25, 9.0),
    (lambda: make_model("sir", dict(beta=1.0, gamma=1.0), [20.0, 4.0, 10.0]),
     0.01, 1.0),
    (cubic_model, 0.07, 2.0),
], ids=["riccati0", "riccati3.7", "lv_case_v", "lv_skewed", "sir_slow", "sir_fast",
        "cubic"])
def test_stages_are_bit_identical_to_the_array_loop(model_fn, step, t_end, order):
    model = model_fn()
    tr = multistage_taylor(model, order, step, t_end)
    times, states, failure = reference_stages(model, order, step, t_end)
    assert failure is None
    assert tr.times.tobytes() == times.tobytes()
    assert tr.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("order", [6, KERNEL_MAX_ORDER + 1])
def test_shortened_last_stage_lands_on_t_end(order):
    # 0.07 does not divide 2.0: the last stage is min(step, t_end - t)
    tr = multistage_taylor(cubic_model((-0.0, 0.4)), order, 0.07, 2.0)
    times, states, failure = reference_stages(cubic_model((-0.0, 0.4)), order,
                                              0.07, 2.0)
    assert failure is None
    assert tr.times[-1] == 2.0
    assert 0.0 < tr.times[-1] - tr.times[-2] < 0.07
    assert tr.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("order", [KERNEL_MAX_ORDER + 1, KERNEL_MAX_ORDER + 2])
def test_path_above_the_cut_off_rounds_as_the_array_loop(order):
    # steps near the local radius weigh the top coefficients, where a sum
    # of 12 or more terms added one by one rounds unlike np.correlate's
    model = make_model("lotka_volterra", dict(a=0.84, b=0.72, c=3.0, d=0.23), [3.5, 4.4])
    times, states, failed = taylor_path(model.field, model.initial_state, order,
                                        0.4, 10.0)
    want_times, want_states, failure = reference_stages(model, order, 0.4, 10.0)
    assert np.array(times).tobytes() == want_times.tobytes()
    assert np.array(states).tobytes() == want_states.tobytes()
    assert failed == (failure[0] if failure else None)


def test_one_compiled_path_serves_a_family():
    slow = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0])
    fast = make_model("lotka_volterra", dict(a=2.5, b=0.3, c=1.7, d=0.9), [1.0, 4.0])
    straight_line_path.cache_clear()
    paths = [multistage_taylor(model, 7, 0.05, 2.0) for model in (slow, fast)]
    info = straight_line_path.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert not np.array_equal(paths[0].states, paths[1].states)
    for model, tr in zip((slow, fast), paths):
        _, states, _ = reference_stages(model, 7, 0.05, 2.0)
        assert tr.states.tobytes() == states.tobytes()


@pytest.mark.parametrize("model", [
    make_model("lotka_volterra", dict(a=2.5, b=0.3, c=1.7, d=0.9), [1.0, 4.0]),
    make_model("sir", dict(beta=0.0123, gamma=0.0456), [20.0, 15.0, 10.0]),
    cubic_model(),
], ids=["lotka_volterra", "sir", "cubic"])
def test_path_source_holds_no_model_coefficient(model):
    plan = model.field.plan
    for order in (2, 7, KERNEL_MAX_ORDER):
        source = _path_source(plan.shape, order)
        # the only float literals: sums' 0.0 start, the constant 1.0, the
        # divisors k+1 and the divergence limit
        allowed = {repr(float(k)) for k in range(order + 1)} | {repr(DIVERGENCE_LIMIT)}
        assert set(re.findall(r"\d+\.\d+(?:e[-+]?\d+)?", source)) <= allowed
        for c in plan.coefficients:
            if c not in (0.0, 1.0):
                assert repr(c) not in source


def test_stage_from_a_negative_zero_state():
    # -0.0 stays in the start row; Horner from 0.0 makes every later state
    # +0.0, as the array loop did
    model = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [2.0, -0.0])
    tr = multistage_taylor(model, 5, 0.1, 1.0)
    times, states, failure = reference_stages(model, 5, 0.1, 1.0)
    assert failure is None
    assert tr.states.tobytes() == states.tobytes()
    assert np.signbit(tr.states[0, 1]) and not np.any(np.signbit(tr.states[1:, 1]))


def scaled_quadratic(start, cubic):
    """u' = 1e30 u^2 (- 1e20 u^3): from start 2.8e-26 the first stage
    lands near 1e10, and the second overflows."""
    monos = [Monomial(1e30, (2,))] + ([Monomial(-1e20, (3,))] if cubic else [])
    return ModelInstance(PolynomialVectorField(1, (tuple(monos),)), {},
                         np.array([start]), "scaled")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model, order, step, kind", [
    (build_riccati(-1.0), 5, 0.1, "over the limit"),
    (scaled_quadratic(2.8e-26, cubic=False), 8, 1.0, "inf"),
    (scaled_quadratic(2.8e-26, cubic=True), 8, 1.0, "nan"),
    (build_riccati(1e100), 5, 0.1, "nan"),
    (build_riccati(-1.0), KERNEL_MAX_ORDER + 1, 0.1, "over the limit"),
    (build_riccati(1e100), KERNEL_MAX_ORDER + 1, 0.1, "nan"),
], ids=["over_limit", "inf", "nan", "nan_first_stage", "over_limit_loop",
        "nan_first_stage_loop"])
def test_divergence_guard_stops_where_the_array_loop_did(model, order, step, kind):
    _, _, failure = reference_stages(model, order, step, 10.0)
    index, state = failure
    value = float(state[0])
    assert {"over the limit": math.isfinite(value) and abs(value) > DIVERGENCE_LIMIT,
            "inf": math.isinf(value), "nan": math.isnan(value)}[kind]
    with pytest.raises(DivergenceError) as info:
        multistage_taylor(model, order, step, 10.0)
    assert info.value.step_index == index
