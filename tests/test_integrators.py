import math
import re
import warnings

import numpy as np
import pytest
import scipy.integrate

import serieslab.integrators
from serieslab.exact import lv_conserved, riccati_exact, sir_endpoints
from serieslab.integrators import (
    DIVERGENCE_LIMIT,
    DivergenceError,
    IntegrationError,
    Trajectory,
    lv_closed_orbit,
    multistage_taylor,
    reference_integrate,
    sample_series,
)
from serieslab.models import (
    ModelInstance,
    ModelSpec,
    PolynomialVectorField,
    build_riccati,
    make_model,
)
from serieslab.scenario import load_preset, preset_names, run_scenario
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


def rate_free_model(name, equations, start):
    """A model of an unregistered family whose monomials, given as
    (coefficient, exponents) pairs, carry no rate."""
    spec = ModelSpec(name, (), tuple(f"u{i}" for i in range(len(equations))), False,
                     tuple(tuple((c, None, e) for c, e in eq) for eq in equations))
    return ModelInstance(spec, {}, start)


# -- trajectory container ------------------------------------------------------

def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)), "series")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)), "series")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), "guesswork")
    with pytest.raises(ValueError, match="log_states must have the shape of states"):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), "reference", {},
                   np.zeros((2, 1)))
    tr = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 3)), "reference")
    assert tr.states.shape == (2, 3)
    assert tr.log_states is None
    with pytest.raises(ValueError):
        tr.times[0] = 5.0


def test_trajectory_provenance_names_a_producer():
    # a trajectory comes from a series, a multistage path or a reference
    # solve; closed forms are evaluated where they are compared
    with pytest.raises(ValueError, match="unknown provenance 'exact'"):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 1)), "exact")


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


def test_reference_solves_through_the_module_global(monkeypatch):
    # integrators.solve_ivp is the one place a reference solve reaches
    # scipy, so wrapping that global sees every solve
    calls = []
    forward = serieslab.integrators.solve_ivp

    def counted(*args, **kwargs):
        calls.append(kwargs["method"])
        return forward(*args, **kwargs)

    monkeypatch.setattr(serieslab.integrators, "solve_ivp", counted)
    for model, t_end in ((build_riccati(0.0), 1.0), (lv_case_v(), 2.0)):
        before = len(calls)
        reference_integrate(model, t_end, 1e-10)
        assert len(calls) == before + 1
    # the float kernel behind scipy's DOP853, passed to scipy's driver
    method = serieslab.integrators._dop853_method()
    assert calls == [method, method]
    assert issubclass(method, scipy.integrate.DOP853)


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


# -- the log-coordinate path ---------------------------------------------------------

def x_space_oracle(model, grid):
    """An independent DOP853 solve in u itself, with relative error
    control all the way down."""
    from scipy.integrate import solve_ivp

    sol = solve_ivp(lambda t, u: model.field.evaluate(u), (0.0, grid[-1]),
                    model.initial_state, method="DOP853", rtol=1e-13,
                    atol=1e-300, t_eval=grid)
    assert sol.success
    return sol.y.T


def seeded_lv(seed):
    """Rates and start log-uniform in [0.1, 10]."""
    rng = np.random.default_rng([seed, 11])
    rates = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 6)).tolist()
    return make_model("lotka_volterra", dict(zip("abcd", rates)), rates[4:])


def lv_accuracy_cases():
    crash = load_preset("lv-crash")
    orbit = load_preset("lv-orbit")
    crash_model, orbit_model = (make_model(c.model_name, c.params, c.initial_state)
                                for c in (crash, orbit))
    period = lv_closed_orbit(orbit_model)[0]
    cases = [
        pytest.param(crash_model, np.linspace(0.0, crash.t_end, crash.samples),
                     id="lv-crash"),
        pytest.param(orbit_model, np.linspace(0.0, orbit.t_end, orbit.samples),
                     id="lv-orbit"),
        pytest.param(crash_model, np.linspace(0.0, 5.0, 501), id="fig1"),
        pytest.param(orbit_model, np.linspace(0.0, 0.999 * period, 1200), id="fig2"),
    ]
    return cases + [pytest.param(seeded_lv(seed), np.linspace(0.0, 5.0, 401),
                                 id=f"seed{seed}") for seed in range(10)]


#: largest relative error of the log path at tol = 1e-10 over
#: lv_accuracy_cases, measured at 1.06e-10 (lv-orbit), with a factor 2 of
#: slack; a solve in u with an absolute floor of 1e-140 measured 1.4e-9
LOG_PATH_ERROR_BOUND = 2e-10


@pytest.mark.parametrize("model, grid", lv_accuracy_cases())
def test_log_path_matches_an_independent_x_space_solve(model, grid):
    tr = reference_integrate(model, grid[-1], 1e-10, grid=grid)
    assert tr.meta["coordinates"] == "log"
    exact = x_space_oracle(model, grid)
    err = float(np.max(np.abs(tr.states - exact) / np.abs(exact)))
    assert err < LOG_PATH_ERROR_BOUND


def test_log_path_meta_records_the_tolerances_passed(monkeypatch):
    passed = []
    forward = serieslab.integrators.solve_ivp

    def spy(*args, **kwargs):
        passed.append((kwargs["rtol"].tolist(), kwargs["atol"].tolist()))
        return forward(*args, **kwargs)

    monkeypatch.setattr(serieslab.integrators, "solve_ivp", spy)
    tr = reference_integrate(lv_case_v(), 1.0, 1e-10, atol=1e-140)
    assert passed == [([1e-13, 1e-13], [1e-12, 1e-12])]
    assert tr.meta == {"tol": 1e-10, "coordinates": "log", "rtol": 1e-13,
                       "atol": 1e-12, "method": "DOP853"}
    # each component solved in u has rtol = tol and the absolute floor
    # ``atol``, by default 1e-3 tol scaled by the start
    on_axis = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0),
                         [0.0, 2.0])
    tr = reference_integrate(on_axis, 1.0, 1e-10, atol=1e-140)
    assert passed[-1] == ([1e-10, 1e-13], [1e-140, 1e-12])
    assert tr.meta == {"tol": 1e-10, "coordinates": "u log", "rtol": "1e-10 1e-13",
                       "atol": "1e-140 1e-12", "method": "DOP853"}
    floor = 1e-10 * 1e-3 * 20.0
    tr = reference_integrate(sir_slow(), 1.0, 1e-10)
    assert passed[-1] == ([1e-13, 1e-13, 1e-10], [1e-12, 1e-12, floor])
    assert tr.meta["coordinates"] == "log log u"
    assert tr.meta["atol"] == f"1e-12 1e-12 {floor}"
    tr = reference_integrate(build_riccati(0.0), 1.0, 1e-10)
    assert passed[-1] == ([1e-10], [1e-13])
    assert tr.meta == {"tol": 1e-10, "atol": 1e-13, "method": "DOP853"}


def test_on_axis_start_keeps_its_zero_component_in_u():
    # the prey's equation is in Kolmogorov form, so from 0 it stays exactly
    # 0 and needs no absolute floor; the predator, y = 2 exp(-t), is in w
    on_axis = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0),
                         [0.0, 2.0])
    tr = reference_integrate(on_axis, 30.0, 1e-10)
    assert tr.meta["coordinates"] == "u log"
    assert np.all(tr.states[:, 0] == 0.0)
    exact = 2.0 * np.exp(-tr.times)
    assert np.max(np.abs(tr.states[:, 1] / exact - 1.0)) < 1e-9


def test_log_path_keeps_a_deep_decay_non_negative():
    # the prey falls like exp(-300 t); in u the solve returned prey counts
    # of -9.6e-10 (default atol) and -2.9e-139 (atol 1e-140).  From
    # about t = 2.5 the true count lies below the smallest float, so it
    # rounds to 0
    model = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=0.01, d=1.0),
                       [1.0, 300.0])
    tr = reference_integrate(model, 5.0, 1e-10)
    assert not np.any(np.isnan(tr.states))
    assert np.all(tr.states >= 0.0)
    assert np.all(tr.states[tr.times <= 2.0] > 0.0)


def test_log_path_keeps_the_w_its_states_came_from():
    # math.exp of each w is the state bit for bit; the prey's w stays
    # finite where its count underflows to 0, and stays out of meta
    model = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=0.01, d=1.0),
                       [1.0, 300.0])
    tr = reference_integrate(model, 5.0, 1e-10)
    _, orbit = lv_closed_orbit(lv_case_v())
    for traj in (tr, orbit):
        assert traj.log_states.shape == traj.states.shape
        assert ([[math.exp(w) for w in row] for row in traj.log_states.tolist()]
                == traj.states.tolist())
        with pytest.raises(ValueError):
            traj.log_states[0, 0] = 0.0
    assert tr.states[-1, 0] == 0.0
    assert np.all(np.isfinite(tr.log_states))
    assert "log_states" not in tr.meta


def sir_y_of_x_error(tr, model):
    """Largest miss of the reference's infectives from y = x0 + y0 - x +
    (gamma/beta) ln(x/x0), with ln x read from the solve's own w, over x0."""
    p = model.params
    x0, y0, _ = model.initial_state.tolist()
    w = tr.log_states[:, 0]
    exact = x0 + y0 - np.exp(w) + p["gamma"] / p["beta"] * (w - math.log(x0))
    return float(np.max(np.abs(tr.states[:, 1] - exact))) / x0


def test_sir_deep_decay_stays_positive_and_on_its_curve():
    # the susceptibles fall to 2e-105 by t = 5; in u the solve sent 169 of
    # the 401 samples negative from t = 0.79 on, and missed y(x) by 4.3e-2
    # of x0.  In ln x the miss measured 1.0e-12 of x0
    model = make_model("sir", dict(beta=1.0, gamma=0.01), [50.0, 1.0, 0.0])
    tr = reference_integrate(model, 5.0)
    assert np.all(tr.states[:, 0] > 0.0)
    assert sir_y_of_x_error(tr, model) < 1e-9


#: field evaluations allowed to the stiff SIR solve below, which made 767;
#: in u, where the susceptibles' decay rate of about 1e8 bounds DOP853's
#: step, it made 27.2 million and took 164 s
STIFF_SIR_BUDGET = 5000


def test_stiff_sir_solve_stays_within_its_evaluation_budget(monkeypatch):
    evaluate = PolynomialVectorField.evaluate
    calls = []

    def counted(self, state):
        calls.append(1)
        if len(calls) > STIFF_SIR_BUDGET:
            raise RuntimeError(f"more than {STIFF_SIR_BUDGET} field evaluations")
        return evaluate(self, state)

    monkeypatch.setattr(PolynomialVectorField, "evaluate", counted)
    start = [69607.0, 22521.0, 9.3]
    model = make_model("sir", dict(beta=1617.0, gamma=2.07), start)
    tr = reference_integrate(model, 0.108)
    # x underflows to 0 while ln x stays finite; the miss from y(x) and
    # the population drift measured 1.5e-13 and 1.1e-13
    assert tr.states[-1, 0] == 0.0
    assert sir_y_of_x_error(tr, model) < 1e-9
    assert float(np.max(np.abs(tr.states.sum(axis=1) - sum(start)))) < 1e-9 * sum(start)


@pytest.mark.parametrize("model, logged", [
    (build_riccati(0.0), (False,)),
    (sir_slow(), (True, True, False)),
    (make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [0.0, 2.0]),
     (False, True)),
], ids=["riccati", "sir", "lv-on-an-axis"])
def test_a_solve_in_u_keeps_no_log_states(model, logged):
    # log_states is None when no component is in w = ln u, and else NaN at
    # each component solved in u
    tr = reference_integrate(model, 1.0)
    if not any(logged):
        assert tr.log_states is None
        return
    logged = list(logged)
    assert np.array_equal(np.isnan(tr.log_states).all(axis=0), np.logical_not(logged))
    assert ([[math.exp(w) for w in row] for row in tr.log_states[:, logged].tolist()]
            == tr.states[:, logged].tolist())


def test_log_path_blow_up_raises_integration_error():
    # u' = u^2 from 1 is in Kolmogorov form (w' = e^w) and has its pole at t = 1
    model = rate_free_model("test", (((1.0, (2,)),),), [1.0])
    with pytest.raises(IntegrationError, match="escaped the divergence limit") as info:
        reference_integrate(model, 2.0, 1e-10)
    assert 0.99 < info.value.last_time <= 1.0


def test_log_path_overflowing_trial_stage_is_rejected(monkeypatch):
    # with the pole at t = 1e-8, a trial stage lands past w = 709, where
    # exp overflows; that stage is rejected, and the solve still ends at
    # the divergence limit
    overflows = []
    exp = math.exp

    def counted(v):
        try:
            return exp(v)
        except OverflowError:
            overflows.append(v)
            raise

    monkeypatch.setattr(math, "exp", counted)
    model = rate_free_model("test", (((1e8, (2,)),),), [1.0])
    with pytest.raises(IntegrationError, match="escaped the divergence limit"):
        reference_integrate(model, 2e-8, 1e-10)
    assert overflows


@pytest.mark.parametrize("terms, in_logs", [
    (((1e5, (9,)),), True),                     # u' = 1e5 u^9
    (((1.0, (0,)), (1e5, (9,))), False),        # u' = 1 + 1e5 u^9
], ids=["log-path", "u-path"])
def test_overflowing_field_raises_integration_error_and_no_warning(terms, in_logs):
    # the field overflows to inf inside scipy's step; numpy's warnings about
    # the inf and NaN that follow stay inside the solve
    model = rate_free_model("test", (terms,), [1.0])
    assert model.per_capita[0] == (in_logs,)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError):
            reference_integrate(model, 2e-5, 1e-10)
    assert np.geterr() == before


# -- the float kernel behind scipy's DOP853 -------------------------------------------

def solves_under(method, run, monkeypatch):
    """Every solve_ivp result of ``run()``, stepped by the float kernel
    (``method`` None) or by scipy's own ``"DOP853"``, each paired with a
    second solve of the same call with dense output at every step, whose
    interpolant's breakpoints are the accepted steps."""
    forward = serieslab.integrators.solve_ivp
    results = []

    def spy(*args, **kwargs):
        if method is not None:
            kwargs["method"] = method
            del kwargs["list_fun"]
        sol = forward(*args, **kwargs)
        dense = forward(*args, **{**kwargs, "dense_output": True})
        results.append((sol, dense.sol.ts, kwargs["rtol"], kwargs["atol"]))
        return sol

    with monkeypatch.context() as patch:
        patch.setattr(serieslab.integrators, "solve_ivp", spy)
        run()
    return results


def seeded_starts(seed):
    """(name, model, t_end, atol) of seeded Riccati, predator-prey and
    epidemic models: Riccati in u; predator-prey in w = ln u, and from a
    start on an axis its zero prey in u; SIR's susceptibles and infectives
    in w and its removed count in u."""
    rng = np.random.default_rng([seed, 17])
    sir_rates = np.exp(rng.uniform(math.log(0.005), math.log(0.5), 2)).tolist()
    on_axis = make_model("lotka_volterra", dict(zip("abcd", rng.uniform(0.2, 2.0, 4))),
                         [0.0, float(rng.uniform(0.5, 5.0))])
    return [
        ("riccati", build_riccati(float(rng.uniform(-0.4, 6.0))), 5.0, None),
        ("lv-in-w", seeded_lv(seed), 5.0, None),
        ("lv-in-u", on_axis, 5.0, 1e-140),
        ("sir", make_model("sir", dict(beta=sir_rates[0], gamma=sir_rates[1]),
                           rng.uniform(1.0, 50.0, 3).tolist()), 40.0, None),
    ]


def kernel_cases():
    presets = [pytest.param(lambda tmp, name=name: run_scenario(load_preset(name), tmp,
                                                                fmt="csv"),
                            id=name) for name in preset_names()]
    orbit = load_preset("lv-orbit")
    orbit_model = make_model(orbit.model_name, orbit.params, orbit.initial_state)
    seeded = [pytest.param(lambda tmp, m=model, t=t_end, a=atol:
                           reference_integrate(m, t, 1e-10, atol=a), id=f"seed{seed}-{name}")
              for seed in range(4) for name, model, t_end, atol in seeded_starts(seed)]
    return presets + [pytest.param(lambda tmp: lv_closed_orbit(orbit_model),
                                   id="orbit")] + seeded


#: largest state difference between the float kernel and scipy's DOP853
#: over kernel_cases, in units of the solver's error scale (see
#: kernel_state_error): measured at 0.144 (riccati-zero, 1.44e-11
#: relative), with a factor 3.5 of slack.  The two take the same steps at
#: times about 1e-7 apart, so each carries a truncation error of its own
KERNEL_STATE_BOUND = 0.5


def kernel_state_error(sol, want, rtol, atol):
    """Largest difference of two solves' states in units of the solver's
    error scale, atol + rtol |y|, each tolerance a scalar or one value per
    component: at t_eval, or on a common grid of their dense output, where
    the steps themselves land on different times."""
    if want.sol is None:
        got, ref = sol.y, want.y
    else:
        grid = np.linspace(0.0, min(sol.t[-1], want.t[-1]), 1001)
        got, ref = sol.sol(grid), want.sol(grid)
    rtol, atol = (np.reshape(tol, (-1, 1)) for tol in (rtol, atol))
    return float(np.max(np.abs(got - ref) / (atol + rtol * np.abs(ref))))


@pytest.mark.parametrize("run", kernel_cases())
def test_float_kernel_takes_scipys_steps(run, tmp_path, monkeypatch):
    # the error estimate is a difference of stages that cancels to the
    # tolerance, so its last bits, which numpy's dot products round
    # differently, move the step sizes by about 1e-7 relative; the count
    # of steps and of field evaluations stays scipy's
    ours = solves_under(None, lambda: run(tmp_path / "float"), monkeypatch)
    theirs = solves_under("DOP853", lambda: run(tmp_path / "scipy"), monkeypatch)
    assert len(ours) == len(theirs) >= 1
    for (sol, steps, rtol, atol), (want, want_steps, _, _) in zip(ours, theirs):
        assert (sol.status, sol.nfev, sol.t.size) == (want.status, want.nfev, want.t.size)
        assert len(steps) == len(want_steps)
        assert kernel_state_error(sol, want, rtol, atol) < KERNEL_STATE_BOUND
        for got, ref in zip(sol.t_events, want.t_events):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("y0, status", [(-2.0, 1), (1e200, -1)])
def test_float_kernel_stops_where_scipy_stops(y0, status, monkeypatch):
    # a blow-up event, and a failed step before the first one
    def run():
        with pytest.raises(IntegrationError):
            reference_integrate(build_riccati(y0), 5.0, 1e-10)

    ours = solves_under(None, run, monkeypatch)
    theirs = solves_under("DOP853", run, monkeypatch)
    sol, want = ours[0][0], theirs[0][0]
    assert (sol.status, sol.nfev, sol.message) == (status, want.nfev, want.message)
    np.testing.assert_allclose(sol.t, want.t, rtol=1e-12, atol=0)


def test_scipys_own_driver_runs_the_same_kernel(monkeypatch):
    # the benchmark's tracer rebinds integrators.solve_ivp to scipy's
    # solve_ivp itself; the solves must not change
    models = [(build_riccati(0.0), 10.0), (lv_case_v(), 20.0), (sir_slow(), 100.0)]
    orbit = lv_closed_orbit(lv_case_v())[0]
    plain = [reference_integrate(m, t, 1e-10).states for m, t in models]
    monkeypatch.setattr(serieslab.integrators, "solve_ivp", scipy.integrate.solve_ivp)
    assert lv_closed_orbit(lv_case_v())[0] == orbit
    for (model, t_end), states in zip(models, plain):
        assert np.array_equal(reference_integrate(model, t_end, 1e-10).states, states)


def test_dop853_tableau_has_the_shapes_the_kernel_expects():
    tableau = {name: getattr(scipy.integrate.DOP853, name)
               for name in serieslab.integrators._DOP853_SHAPES}
    assert {name: a.shape for name, a in tableau.items()} == \
        serieslab.integrators._DOP853_SHAPES
    # the derivative at the new state, stage 12, weighs only in dense output
    assert tableau["E3"][12] == tableau["E5"][12] == 0.0
    tableau["D"] = tableau["D"][:, :15]
    with pytest.raises(ValueError, match="DOP853.D has shape"):
        serieslab.integrators._dop853_source(2, tableau)


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
    with pytest.raises(ValueError, match="times must be strictly increasing"):
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
    return rate_free_model("cubic", (
        ((0.5, (0, 0)), (-0.2, (3, 0)), (0.0, (1, 1)), (0.3, (0, 1))),
        ((-0.4, (0, 0)), (0.7, (1, 2)), (-1.1, (0, 1))),
    ), np.array(start))


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


def test_stage_path_at_order_200_tracks_its_oracle():
    # at order 200 and above the Horner form of _path_source nests more
    # parentheses than CPython's parser accepts, so this order can only run
    # the loop over taylor_coefficients
    riccati = multistage_taylor(build_riccati(0.0), 200, 0.5, 3.0)
    exact = [riccati_exact(0.0, t) for t in riccati.times]
    assert np.max(np.abs(riccati.states[:, 0] - exact)) < 1e-15
    lv = multistage_taylor(lv_case_v(), 200, 0.25, 3.0)
    reference = reference_integrate(lv_case_v(), 3.0, 1e-13, grid=lv.times)
    assert np.max(np.abs(lv.states / reference.states - 1.0)) < 1e-11


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
    monos = ((1e30, (2,)),) + (((-1e20, (3,)),) if cubic else ())
    return rate_free_model("scaled", (monos,), np.array([start]))


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
