import math

import mpmath
import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from serieslab.convergence import estimate_radius
from serieslab.exact import riccati_exact
from serieslab.integrators import reference_integrate
from serieslab.models import (MODELS, Monomial, PolynomialVectorField, build_riccati,
                              make_model)
from serieslab.scenario import load_preset, preset_names
from serieslab.series import (
    KERNEL_MAX_ORDER,
    TruncatedSeries,
    eval_series,
    generate_taylor_solution,
    recursion_loop,
    taylor_coefficients,
)


def lv_case_v():
    return make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0])


def lv_case_i():
    return make_model("lotka_volterra", dict(a=1.0, b=1.0, c=0.1, d=1.0), [14.0, 18.0])


def sir_slow():
    return make_model("sir", dict(beta=0.01, gamma=0.02), [20.0, 15.0, 10.0])


def sir_fast():
    return make_model("sir", dict(beta=1.0, gamma=1.0), [20.0, 4.0, 10.0])


# -- validation and evaluation ------------------------------------------------

def test_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, float("nan")])


finite_lists = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=9
)


@given(finite_lists)
@settings(max_examples=60, deadline=None)
def test_eval_at_zero_is_the_constant_term(xs):
    assert eval_series(TruncatedSeries(xs), 0.0) == xs[0]


def test_eval_series_horner():
    assert eval_series(TruncatedSeries([1.0, 2.0, 3.0]), 2.0) == 17.0
    grid = np.array([0.0, 1.0, 2.0])
    out = eval_series(TruncatedSeries([1.0, 2.0, 3.0]), grid)
    assert np.array_equal(out, [1.0, 6.0, 17.0])
    with pytest.raises(ValueError):
        eval_series(TruncatedSeries([1.0]), float("inf"))


# -- the Taylor recursion ----------------------------------------------------

def test_riccati_series_low_order_coefficients():
    sol = generate_taylor_solution(build_riccati(0.0), 4)
    assert np.allclose(
        sol.components[0].coefficients,
        [0.0, 1.0, 1.0, 1.0 / 3.0, -1.0 / 3.0],
        rtol=0, atol=1e-15,
    )


def test_riccati_series_partial_sum_near_exact():
    sol = generate_taylor_solution(build_riccati(0.0), 4)
    approx = eval_series(sol.components[0], 0.1)
    assert abs(approx - 0.1103) < 1e-15
    # agreement with the closed form is limited by the first dropped term
    assert abs(approx - riccati_exact(0.0, 0.1)) < 1e-5


def test_lv_first_order_coefficients_match_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(20):
        # dyadic rationals make every product and sum exact in binary, so
        # the recursion and the closed form must agree bitwise
        a, b, c, d = (float(v) / 8.0 for v in rng.integers(1, 33, size=4))
        x0, y0 = (float(v) / 16.0 for v in rng.integers(1, 257, size=2))
        model = make_model("lotka_volterra", dict(a=a, b=b, c=c, d=d), [x0, y0])
        sol = generate_taylor_solution(model, 1)
        assert sol.components[0].coefficients[1] == x0 * (a - b * y0)
        assert sol.components[1].coefficients[1] == y0 * (d * x0 - c)


def test_sir_first_order_coefficients():
    model = sir_slow()
    sol = generate_taylor_solution(model, 1)
    beta, gamma = 0.01, 0.02
    x0, y0, z0 = 20.0, 15.0, 10.0
    assert sol.components[0].coefficients[1] == -(beta * (x0 * y0))
    assert sol.components[1].coefficients[1] == beta * (x0 * y0) - gamma * y0
    assert sol.components[2].coefficients[1] == gamma * y0
    assert sol.components[0].coefficients[0] == x0


def test_generate_requires_positive_order():
    with pytest.raises(ValueError):
        generate_taylor_solution(build_riccati(0.0), 0)


def _sympy_taylor(field, state, order):
    """Independent oracle: iterated symbolic differentiation of the ODE."""
    syms = sp.symbols(f"u0:{field.dimension}")
    exprs = []
    for eq in field.equations:
        total = sp.Integer(0)
        for mono in eq:
            term = sp.nsimplify(mono.coefficient, rational=True)
            for s, e in zip(syms, mono.exponents):
                term *= s**e
            total += term
        exprs.append(sp.expand(total))
    rhs = sp.Matrix(exprs)
    derivs = [rhs]
    for _ in range(order - 1):
        derivs.append(sp.expand(derivs[-1].jacobian(syms) * rhs))
    subs = {s: sp.nsimplify(v, rational=True) for s, v in zip(syms, state)}
    coeffs = [sp.Matrix([sp.nsimplify(v, rational=True) for v in state])]
    for n, deriv in enumerate(derivs, start=1):
        coeffs.append(deriv.subs(subs) / sp.factorial(n))
    return np.array(
        [[float(coeffs[k][j]) for k in range(order + 1)]
         for j in range(field.dimension)]
    )


@pytest.mark.parametrize("model_fn", [
    lambda: build_riccati(0.0),
    lambda: build_riccati(5.0),
    lv_case_v,
    lv_case_i,
    sir_slow,
    sir_fast,
], ids=["riccati0", "riccati5", "lv_case_v", "lv_case_i", "sir_slow", "sir_fast"])
def test_coefficients_match_symbolic_oracle(model_fn):
    model = model_fn()
    order = 10
    sol = generate_taylor_solution(model, order)
    oracle = _sympy_taylor(model.field, model.initial_state, order)
    for j, comp in enumerate(sol.components):
        scale = np.maximum(np.abs(oracle[j]), 1e-30)
        assert np.max(np.abs(comp.coefficients - oracle[j]) / scale) < 1e-8


@pytest.mark.parametrize("model_fn", [
    lambda: build_riccati(0.0), lv_case_v, sir_slow,
], ids=["riccati0", "lv_case_v", "sir_slow"])
def test_series_satisfies_ode_order_by_order(model_fn):
    model = model_fn()
    order = 8
    coef = taylor_coefficients(model.field, model.initial_state, order)
    # derivative series: shift and scale
    deriv = coef[:, 1:] * np.arange(1, order + 1)
    # right-hand side series via direct convolution, independent of the
    # recursion's internal loop
    rhs = np.zeros_like(coef)
    for i, eq in enumerate(model.field.equations):
        for mono in eq:
            prod = np.zeros(order + 1)
            prod[0] = 1.0
            for j, e in enumerate(mono.exponents):
                for _ in range(e):
                    prod = np.convolve(prod, coef[j])[: order + 1]
            rhs[i] += mono.coefficient * prod
    scale = np.maximum(np.abs(rhs[:, :order]), 1.0)
    assert np.max(np.abs(deriv - rhs[:, :order]) / scale) < 1e-12


@pytest.mark.parametrize("model_fn, t_factor", [
    (lambda: build_riccati(0.0), 0.25),
    (lv_case_v, 0.3),
    (sir_slow, 0.3),
], ids=["riccati0", "lv_case_v", "sir_slow"])
def test_error_decreases_with_order_inside_radius(model_fn, t_factor):
    model = model_fn()
    big = generate_taylor_solution(model, 30)
    radius = min(estimate_radius(comp).radius for comp in big.components)
    t = t_factor * radius
    ref = reference_integrate(model, t, 1e-12, grid=np.array([0.0, t]))
    target = ref.states[-1]
    errs = []
    for order in range(2, 11):
        sol = generate_taylor_solution(model, order)
        vals = np.array([eval_series(comp, t) for comp in sol.components])
        errs.append(float(np.max(np.abs(vals - target))))
    # coefficients come in sign-alternating pairs, so compare two orders
    # apart; the improvement is monotone up to the rounding floor
    for lo in range(len(errs) - 2):
        assert errs[lo + 2] <= errs[lo] + 1e-14
    assert errs[-1] < 1e-2 * errs[0]


def test_sir_series_conserves_population_per_order():
    sol = generate_taylor_solution(sir_slow(), 10)
    coeffs = np.vstack([comp.coefficients for comp in sol.components])
    sums = coeffs[:, 1:].sum(axis=0)
    assert np.max(np.abs(sums)) < 1e-12


# -- the float recursion against a 50-digit one -------------------------------

def mpmath_taylor_coefficients(spec, params, state, order):
    """The Taylor recursion at 50 digits, read straight from the family's
    ``equations``: each monomial's factors multiplied left to right as
    series, every product series grown by one coefficient per order."""
    with mpmath.workdps(50):
        coef = [[mpmath.mpf(float(v))] for v in state]
        equations = []
        for eq in spec.equations:
            monomials = []
            for factor, rate, exponents in eq:
                value = mpmath.mpf(factor)
                if rate is not None:
                    value *= mpmath.mpf(params[rate])
                factors = [j for j, e in enumerate(exponents) for _ in range(e)]
                # the series of each partial product factors[:n + 2]
                monomials.append((value, factors, [[] for _ in factors[1:]]))
            equations.append(monomials)
        for k in range(order):
            step = []
            for monomials in equations:
                acc = mpmath.mpf(0)
                for value, factors, partial in monomials:
                    if not factors:
                        acc += value if k == 0 else 0
                        continue
                    left = coef[factors[0]]
                    for product, j in zip(partial, factors[1:]):
                        product.append(mpmath.fsum(left[i] * coef[j][k - i]
                                                   for i in range(k + 1)))
                        left = product
                    acc += value * left[k]
                step.append(acc / (k + 1))
            for row, value in zip(coef, step):
                row.append(value)
        return coef


@pytest.mark.parametrize("preset", preset_names())
def test_coefficients_match_the_mpmath_recursion_to_order_120(preset):
    # measured: the worst relative error of one coefficient is 2.8e-12
    # (lv-crash), and no error exceeds 2.3e-15 of its component's largest
    # coefficient (sir-fast at order 120)
    config = load_preset(preset)
    exact = mpmath_taylor_coefficients(MODELS[config.model_name], config.params,
                                       config.initial_state, 120)
    model = make_model(config.model_name, config.params, config.initial_state)
    for order in (60, 120):
        got = taylor_coefficients(model.field, model.initial_state, order)
        for row, want in zip(got.tolist(), exact):
            want = want[:order + 1]
            largest = max(abs(w) for w in want)
            for value, w in zip(row, want):
                error = abs(mpmath.mpf(value) - w)
                assert error <= 1e-14 * largest
                assert error <= 1e-11 * abs(w)


# -- the product plan against the nested-loop recursion ----------------------

def reference_taylor_coefficients(field, state, order):
    """The recursion as it ran before the product plan: every monomial's
    exponent tuple walked at every order, one full np.convolve per extra
    factor.  Kept as the oracle for the plan."""
    state = np.asarray(state, dtype=float)
    coef = np.zeros((field.dimension, order + 1))
    coef[:, 0] = state
    for k in range(order):
        for i, equation in enumerate(field.equations):
            acc = 0.0
            for mono in equation:
                prod = None
                for j, e in enumerate(mono.exponents):
                    for _ in range(e):
                        if prod is None:
                            prod = coef[j, : k + 1]
                        else:
                            prod = np.convolve(prod, coef[j, : k + 1])[: k + 1]
                if prod is None:
                    acc += mono.coefficient if k == 0 else 0.0
                else:
                    acc += mono.coefficient * prod[k]
            coef[i, k + 1] = acc / (k + 1)
    return coef


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def seeded_model(family, seed):
    """Rates and starts drawn as the benchmark draws them: Riccati starts
    in [-0.3, 4], predator-prey rates log-uniform in [0.1, 10] with starts
    within a factor of the center, epidemic rates log-uniform in [0.01, 1]
    with a basic reproduction number in [0.5, 4]."""
    rng = np.random.default_rng(seed)
    if family == "riccati":
        return build_riccati(float(rng.uniform(-0.3, 4.0)))
    if family == "lotka_volterra":
        a, b, c, d = (_log_uniform(rng, 0.1, 10.0) for _ in range(4))
        start = [c / d * float(rng.uniform(0.3, 2.5)), a / b * float(rng.uniform(0.3, 2.5))]
        return make_model(family, dict(a=a, b=b, c=c, d=d), start)
    beta = _log_uniform(rng, 0.01, 1.0)
    gamma = _log_uniform(rng, 0.01, 1.0)
    x0 = gamma / beta * float(rng.uniform(0.5, 4.0))
    start = [x0, x0 * float(rng.uniform(0.05, 0.5)), x0 * float(rng.uniform(0.0, 0.5))]
    return make_model(family, dict(beta=beta, gamma=gamma), start)


@given(st.sampled_from(["riccati", "lotka_volterra", "sir"]),
       st.integers(0, 2**32 - 1), st.integers(1, 120))
@settings(max_examples=80, deadline=None)
def test_plan_recursion_is_bit_identical_to_nested_loops(family, seed, order):
    model = seeded_model(family, seed)
    got = taylor_coefficients(model.field, model.initial_state, order)
    want = reference_taylor_coefficients(model.field, model.initial_state, order)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def cubic_field():
    """Constant terms and cubic monomials whose chains share prefixes:
    x^3 and x^2*y share x*x, and x*y^2 shares x*y with x*y."""
    return PolynomialVectorField(2, (
        (Monomial(0.5, (0, 0)), Monomial(1.0, (3, 0)),
         Monomial(-2.0, (2, 1)), Monomial(0.3, (0, 1))),
        (Monomial(-1.5, (0, 0)), Monomial(0.7, (1, 2)),
         Monomial(-0.4, (1, 1)), Monomial(1.1, (0, 3))),
    ))


def test_cubic_plan_shares_prefixes():
    plan = cubic_field().plan
    # operands: x=0, y=1, the constant 1 = 2, then the rows from 3 on
    assert plan.rows == ((0, 0), (3, 0), (3, 1), (0, 1), (6, 1), (1, 1), (8, 1))
    assert plan.terms == (
        ((0.5, 2), (1.0, 4), (-2.0, 5), (0.3, 1)),
        ((-1.5, 2), (0.7, 7), (-0.4, 6), (1.1, 9)),
    )


def test_cubic_field_with_constants_matches_both_oracles():
    field = cubic_field()
    state = [0.3, -0.2]
    order = 8
    got = taylor_coefficients(field, state, order)
    # chained rows reuse a prefix computed at earlier orders instead of
    # convolving it afresh, so rounding may differ by a few ulps
    want = reference_taylor_coefficients(field, state, order)
    eps = np.finfo(float).eps
    for k in range(order + 1):
        assert np.all(np.abs(got[:, k] - want[:, k]) <= 8 * eps * np.max(np.abs(want[:, k])))
    # symbolic differentiation of a cubic field grows fast with the order
    oracle = _sympy_taylor(field, state, 6)
    scale = np.maximum(np.abs(oracle), 1e-30)
    assert np.max(np.abs(got[:, :7] - oracle) / scale) < 1e-8


@pytest.mark.parametrize("model_fn", [lv_case_v, sir_slow, lambda: build_riccati(0.0)],
                         ids=["lotka_volterra", "sir", "riccati"])
def test_builtin_plans_hold_one_product_row(model_fn):
    # x*y appears in both predator-prey equations and in two epidemic
    # equations, and is computed once; the Riccati row is y*y
    assert len(model_fn().field.plan.rows) == 1


# -- the compiled recursion against the plan loop ---------------------------

def plan_loop_taylor_coefficients(field, state, order):
    """The plan recursion as a loop over orders and rows, one np.correlate
    per product coefficient: what every order ran before the compiled
    recursion.  Kept as its oracle."""
    plan = field.plan
    dim = field.dimension
    w = np.zeros((dim + 1 + len(plan.rows), order + 1))
    w[:dim, 0] = np.asarray(state, dtype=float)
    w[dim, 0] = 1.0
    for k in range(order):
        for row, (left, right) in enumerate(plan.rows, start=dim + 1):
            w[row, k] = np.correlate(w[left, : k + 1], w[right, k::-1])[0]
        w[:dim, k + 1] = [acc / (k + 1) for acc in plan.combine(w[:, k].tolist())]
    return w[:dim]


def constant_zero_cubic_field():
    """The cubic field plus a term with a zero coefficient, which adds
    c * v = -0.0 whenever v < 0."""
    field = cubic_field()
    first, second = field.equations
    return PolynomialVectorField(2, (first + (Monomial(0.0, (1, 1)),), second))


def signed_zero_start(model):
    """The same model started with its first component at -0.0."""
    state = model.initial_state.copy()
    state[0] = -0.0
    if model.label == "riccati":
        return build_riccati(-0.0)
    return make_model(model.label, model.params, state)


@pytest.mark.parametrize("family", ["riccati", "lotka_volterra", "sir"])
def test_kernel_is_byte_identical_to_plan_loop(family):
    # every order the compiled stage loop runs, for twelve seeded fields
    assert KERNEL_MAX_ORDER == 11
    for seed in range(12):
        model = seeded_model(family, seed)
        if seed % 3 == 0:
            model = signed_zero_start(model)
        for order in range(1, KERNEL_MAX_ORDER + 1):
            got = taylor_coefficients(model.field, model.initial_state, order)
            want = plan_loop_taylor_coefficients(model.field, model.initial_state, order)
            assert got.shape == want.shape
            # tobytes, not array_equal: -0.0 and 0.0 must not pass for each other
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("state", [[0.3, -0.2], [-0.0, 0.5], [-0.0, -0.0], [-1.3, 0.8]])
def test_kernel_handles_constants_zero_coefficients_and_chains(state):
    field = constant_zero_cubic_field()
    for order in range(1, KERNEL_MAX_ORDER + 1):
        got = taylor_coefficients(field, state, order)
        want = plan_loop_taylor_coefficients(field, state, order)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["riccati", "lotka_volterra", "sir"])
@pytest.mark.parametrize("order", [KERNEL_MAX_ORDER, KERNEL_MAX_ORDER + 1])
def test_kernel_boundary_matches_nested_loops(family, order):
    for seed in range(20):
        model = seeded_model(family, 1000 + seed)
        got = taylor_coefficients(model.field, model.initial_state, order)
        want = reference_taylor_coefficients(model.field, model.initial_state, order)
        assert np.array_equal(got, want)


@given(st.sampled_from(["riccati", "lotka_volterra", "sir"]),
       st.integers(0, 2**32 - 1), st.integers(1, 120), st.booleans())
@settings(max_examples=150, deadline=None)
def test_compiled_loop_is_byte_identical_to_plan_loop(family, seed, order, signed_zero):
    model = seeded_model(family, seed)
    if signed_zero:
        model = signed_zero_start(model)
    got = taylor_coefficients(model.field, model.initial_state, order)
    want = plan_loop_taylor_coefficients(model.field, model.initial_state, order)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("state", [[0.3, -0.2], [-0.0, 0.5], [-0.0, -0.0], [-1.3, 0.8]])
def test_compiled_loop_handles_constants_zero_coefficients_and_chains(state):
    # chained rows (x*x)*x read a product row back from the work array
    field = constant_zero_cubic_field()
    for order in (*range(1, 25), 40, 60, 120):
        got = taylor_coefficients(field, state, order)
        want = plan_loop_taylor_coefficients(field, state, order)
        assert got.tobytes() == want.tobytes()


def test_one_compiled_loop_serves_a_family_at_every_order():
    slow = make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0])
    fast = make_model("lotka_volterra", dict(a=2.5, b=0.3, c=1.7, d=0.9), [1.0, 4.0])
    assert slow.field.plan.shape == fast.field.plan.shape
    # the shape holds indices only; the rates never reach the compiled source
    def leaves(node):
        return [x for n in node for x in leaves(n)] if isinstance(node, tuple) else [node]

    assert all(type(leaf) is int for leaf in leaves(slow.field.plan.shape))
    recursion_loop.cache_clear()
    for model, order in ((slow, 5), (fast, 12), (slow, 90), (fast, 1)):
        got = taylor_coefficients(model.field, model.initial_state, order)
        want = plan_loop_taylor_coefficients(model.field, model.initial_state, order)
        assert got.tobytes() == want.tobytes()
    info = recursion_loop.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    got_slow = taylor_coefficients(slow.field, slow.initial_state, KERNEL_MAX_ORDER)
    got_fast = taylor_coefficients(fast.field, fast.initial_state, KERNEL_MAX_ORDER)
    assert recursion_loop.cache_info().hits == 5
    assert not np.array_equal(got_slow, got_fast)


# -- Horner evaluation against the array loop --------------------------------

def array_horner(s, t):
    """``eval_series`` as it ran before evaluating in place: a new array
    per step, over the coefficients as numpy scalars.  Kept as the
    oracle."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("evaluation point must be finite")
    result = np.zeros_like(t)
    for c in s.coefficients[::-1]:
        result = result * t + c
    if result.ndim == 0:
        return float(result)
    return result


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=121),
       st.one_of(st.floats(-3.0, 3.0),
                 st.lists(st.floats(-3.0, 3.0), min_size=0, max_size=40)))
@settings(max_examples=200, deadline=None)
def test_horner_is_byte_identical_to_array_loop(coefficients, t):
    s = TruncatedSeries(coefficients)
    got = eval_series(s, t)
    want = array_horner(s, t)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_horner_keeps_signed_zeros_and_grid_shapes():
    s = TruncatedSeries([-0.0, 2.0, -0.5])
    for t in (-0.0, 0.0, -1.5, np.array([[-2.0, -0.0], [0.5, 1e-300]]),
              np.linspace(-1.0, 1.0, 601)):
        got = eval_series(s, t)
        want = array_horner(s, t)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
