import dataclasses
import math

import numpy as np
import pytest

from serieslab.models import (
    MODELS,
    RICCATI_STATIONARY,
    ModelInstance,
    ModelSpec,
    Monomial,
    PolynomialVectorField,
    build_riccati,
    make_model,
)


def lv_field(a, b, c, d):
    return make_model("lotka_volterra", dict(a=a, b=b, c=c, d=d), [1.0, 1.0]).field


def sir_field(beta, gamma):
    return make_model("sir", dict(beta=beta, gamma=gamma), [1.0, 1.0, 1.0]).field


def test_riccati_field_monomials():
    model = build_riccati(0.0)
    eq = model.field.equations[0]
    assert [(m.coefficient, m.exponents) for m in eq] == [
        (1.0, (0,)),
        (2.0, (1,)),
        (-1.0, (2,)),
    ]
    assert model.initial_state[0] == 0.0


def test_riccati_field_at_zero():
    model = build_riccati(0.0)
    assert np.array_equal(model.field.evaluate([0.0]), [1.0])


def test_riccati_stationary_point_annihilates_field():
    model = build_riccati(RICCATI_STATIONARY)
    assert abs(model.field.evaluate(model.initial_state)[0]) < 1e-14


def test_riccati_direct_substitution():
    model = build_riccati(5.0)
    assert model.field.evaluate([5.0])[0] == 2 * 5 - 25 + 1


def test_riccati_evaluate_is_the_sequential_float_sum():
    # y**2 is y*y, not a platform pow that may be an ulp off
    field = build_riccati(0.0).field
    rng = np.random.default_rng(11)
    for y in rng.uniform(-50.0, 50.0, 10_000).tolist():
        assert field.evaluate([y])[0] == ((0.0 + 1.0) + 2.0 * y) + (-1.0 * (y * y))


def test_riccati_rejects_non_finite():
    with pytest.raises(ValueError):
        build_riccati(float("nan"))
    with pytest.raises(ValueError):
        build_riccati(float("inf"))


def test_lv_field_case_one_values():
    field = lv_field(1, 1, 0.1, 1)
    out = field.evaluate([14.0, 18.0])
    assert np.allclose(out, [14 * (1 - 18), -18 * (0.1 - 14)], rtol=0, atol=1e-12)


def test_lv_center_and_saddle_annihilate_field():
    a, b, c, d = 1.0, 1.0, 0.1, 1.0
    field = lv_field(a, b, c, d)
    # the saddle at the origin and the center at (c/d, a/b)
    for p in ((0.0, 0.0), (c / d, a / b)):
        assert np.max(np.abs(field.evaluate(p))) < 1e-12


def test_lv_case_five_evaluation():
    field = lv_field(1, 1, 1, 1)
    assert np.allclose(field.evaluate([3.0, 2.0]), [-3.0, 4.0], atol=1e-14)
    assert np.array_equal(field.evaluate([1.0, 1.0]), [0.0, 0.0])


def test_lv_rejects_non_positive_parameters():
    for bad in ((0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        with pytest.raises(ValueError):
            lv_field(*bad)


def test_sir_field_values():
    field = sir_field(0.01, 0.02)
    out = field.evaluate([20.0, 15.0, 10.0])
    assert np.allclose(out, [-3.0, 3.0 - 0.3, 0.3], atol=1e-12)
    unit = sir_field(1.0, 1.0)
    assert np.allclose(unit.evaluate([20.0, 4.0, 10.0]), [-80.0, 76.0, 4.0], atol=1e-12)


def test_sir_no_infectives_means_no_motion():
    field = sir_field(0.7, 0.3)
    assert np.all(field.evaluate([42.0, 0.0, 3.0]) == 0.0)


def test_sir_derivatives_sum_to_zero_bitwise():
    rng = np.random.default_rng(42)
    field = sir_field(0.01, 0.02)
    for _ in range(200):
        x, y, z = rng.uniform(0.0, 100.0, size=3)
        out = field.evaluate([x, y, z])
        total = out[0] + (out[1] + out[2])
        expected = (-0.01 * (x * y)) + ((0.01 * (x * y) - 0.02 * y) + (0.02 * y))
        assert total == expected
        assert abs(total) < 1e-12


def test_sir_rejects_non_positive_parameters():
    with pytest.raises(ValueError):
        sir_field(0.0, 1.0)
    with pytest.raises(ValueError):
        sir_field(1.0, -1.0)


def test_evaluate_dimension_mismatch():
    field = sir_field(1.0, 1.0)
    with pytest.raises(ValueError):
        field.evaluate([1.0, 2.0])


def test_evaluate_against_nested_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        dim = int(rng.integers(1, 4))
        n_eqs = []
        for _ in range(dim):
            monos = []
            for _ in range(int(rng.integers(1, 5))):
                coeff = float(rng.normal())
                expo = tuple(int(e) for e in rng.integers(0, 3, size=dim))
                monos.append(Monomial(coeff, expo))
            n_eqs.append(tuple(monos))
        field = PolynomialVectorField(dim, tuple(n_eqs))
        state = rng.uniform(-2.0, 2.0, size=dim)
        got = field.evaluate(state)
        # plain nested loops, no vectorisation
        want = []
        for eq in field.equations:
            acc = 0.0
            for mono in eq:
                term = mono.coefficient
                for j, e in enumerate(mono.exponents):
                    for _ in range(e):
                        term *= state[j]
                acc += term
            want.append(acc)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - np.asarray(want))) / scale < 1e-14


def test_field_shape_validation():
    with pytest.raises(ValueError):
        PolynomialVectorField(0, ())
    with pytest.raises(ValueError):
        PolynomialVectorField(2, ((Monomial(1.0, (1,)),),))
    with pytest.raises(ValueError):
        PolynomialVectorField(1, ((Monomial(1.0, (1, 2)),),))
    with pytest.raises(ValueError):
        Monomial(1.0, (-1,))
    with pytest.raises(ValueError):
        Monomial(float("inf"), (1,))


def test_model_instance_validation():
    spec = MODELS["sir"]
    with pytest.raises(ValueError):
        ModelInstance(spec, {"beta": 1.0, "gamma": 1.0}, [1.0, 2.0])
    with pytest.raises(ValueError):
        ModelInstance(spec, {"beta": 1.0, "gamma": 1.0}, [-1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        ModelInstance(spec, {"beta": 0.0, "gamma": 1.0}, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="length must equal the field dimension"):
        ModelInstance(spec, {"beta": 1.0, "gamma": 1.0}, [[1.0, 2.0, 3.0]])
    with pytest.raises(ValueError, match="must be finite"):
        ModelInstance(spec, {"beta": 1.0, "gamma": 1.0}, [1.0, math.nan, 3.0])
    model = ModelInstance(spec, {"beta": 1.0, "gamma": 1.0}, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        model.initial_state[0] = 9.0


def test_model_instance_takes_no_field():
    # the field is built from the family's row at the rates, so no argument
    # can hand it one that disagrees with the rates other code reads
    assert [f.name for f in dataclasses.fields(ModelInstance)] == [
        "spec", "params", "initial_state"]
    rates = {"beta": 2.0, "gamma": 5.0}
    with pytest.raises(TypeError):
        ModelInstance(sir_field(1.0, 1.0), rates, [20.0, 4.0, 10.0], "sir")
    model = ModelInstance(MODELS["sir"], rates, [20.0, 4.0, 10.0])
    assert model.label == "sir" and model.spec is MODELS["sir"]
    assert model.field == handwritten_field("sir", rates)
    with pytest.raises(AttributeError):
        model.label = "lotka_volterra"


def test_make_model_checks_the_rules_once(monkeypatch):
    calls = []
    problems = ModelSpec.problems

    def counted(spec, params, state):
        calls.append(spec.name)
        return problems(spec, params, state)

    monkeypatch.setattr(ModelSpec, "problems", counted)
    for name, spec in MODELS.items():
        make_model(name, {p: 1.0 for p in spec.params}, [1.0] * len(spec.components))
    assert calls == list(MODELS)


def test_model_instance_copies_its_start():
    # freezing the caller's own array froze it for the caller
    start = np.array([3.0, 2.0])
    model = make_model("lotka_volterra", {"a": 1, "b": 2, "c": 3, "d": 4}, start)
    assert start.flags.writeable
    assert model.initial_state is not start
    assert not model.initial_state.flags.writeable
    start[0] = 9.0
    assert model.initial_state.tolist() == [3.0, 2.0]


def test_model_instance_compares_and_hashes_by_identity():
    # value equality compared the start arrays, which raised ValueError, and
    # hashing the params dict raised TypeError
    model = make_model("lotka_volterra", {"a": 1, "b": 2, "c": 3, "d": 4}, [1.0, 1.0])
    twin = make_model("lotka_volterra", {"a": 1, "b": 2, "c": 3, "d": 4}, [1.0, 1.0])
    assert model == model and model != twin
    assert hash(model) == hash(model)
    assert len({model, twin, model}) == 2


def test_make_model_round_trips():
    model = make_model("lotka_volterra", {"a": 1, "b": 2, "c": 3, "d": 4}, [1.0, 1.0])
    assert model.label == "lotka_volterra"
    assert model.field.dimension == 2
    with pytest.raises(ValueError):
        make_model("seir", {}, [1.0])
    with pytest.raises(ValueError):
        make_model("riccati", {"a": 1.0}, [0.0])
    with pytest.raises(ValueError):
        make_model("lotka_volterra", {"a": 1, "b": 2}, [1.0, 1.0])
    with pytest.raises(ValueError):
        make_model("sir", {"beta": 1.0}, [1.0, 1.0, 1.0])


def test_model_specs_drive_make_model():
    assert list(MODELS) == ["riccati", "lotka_volterra", "sir"]
    for name, spec in MODELS.items():
        params = {p: 1.0 + i for i, p in enumerate(spec.params)}
        start = [1.0] * len(spec.components)
        model = make_model(name, params, start)
        assert model.label == name
        assert model.field.dimension == len(spec.components)
        assert model.spec is spec
        assert model.field == handwritten_field(name, params)
        negative = [-1.0] + start[1:]
        if spec.populations:
            with pytest.raises(ValueError, match="non-negative"):
                make_model(name, params, negative)
        else:
            assert make_model(name, params, negative).initial_state[0] == -1.0
    riccati = build_riccati(0.5)
    assert riccati.field == handwritten_field("riccati", {})
    assert (riccati.label, riccati.params, riccati.initial_state.tolist()) == (
        "riccati", {}, [0.5])


def handwritten_field(name, rates):
    """Each family's field with its monomials written out by hand."""
    if name == "riccati":
        equations = ((Monomial(1.0, (0,)), Monomial(2.0, (1,)), Monomial(-1.0, (2,))),)
    elif name == "lotka_volterra":
        a, b, c, d = (rates[k] for k in "abcd")
        equations = ((Monomial(a, (1, 0)), Monomial(-b, (1, 1))),
                     (Monomial(-c, (0, 1)), Monomial(d, (1, 1))))
    else:
        beta, gamma = rates["beta"], rates["gamma"]
        equations = ((Monomial(-beta, (1, 1, 0)),),
                     (Monomial(beta, (1, 1, 0)), Monomial(-gamma, (0, 1, 0))),
                     (Monomial(gamma, (0, 1, 0)),))
    return PolynomialVectorField(len(equations), equations)


def coefficient_bits(field):
    return [[(m.coefficient.hex(), m.exponents) for m in eq] for eq in field.equations]


@pytest.mark.parametrize("seed", range(4))
def test_each_family_field_is_its_handwritten_monomials(seed):
    # integer rates too, 2**53 + 1 among them, which no float holds: the
    # coefficient is the rate's float, or its negation, bit for bit
    rng = np.random.default_rng(seed)
    for name, spec in MODELS.items():
        start = [1.0] * len(spec.components)
        for _ in range(40):
            choices = [float(rng.lognormal(0.0, 20.0)), int(rng.integers(1, 10**6)),
                       2**53 + 1, 10**300, 1e-300, 1e300]
            rates = {k: choices[int(rng.integers(len(choices)))] for k in spec.params}
            want = handwritten_field(name, rates)
            field = make_model(name, rates, start).field
            assert field == want
            assert coefficient_bits(field) == coefficient_bits(want)


@pytest.mark.parametrize("bad", [0, -1.0, math.inf, math.nan, "missing", "unknown"])
def test_every_field_builder_raises_the_problems_text(bad):
    for name, spec in MODELS.items():
        rates = {p: 1.0 + i for i, p in enumerate(spec.params)}
        if bad == "unknown":
            rates["k"] = 1.0
        elif not spec.params:
            continue  # riccati has no rate to miss or break
        elif bad == "missing":
            del rates[spec.params[0]]
        else:
            rates[spec.params[-1]] = bad
        start = [1.0] * len(spec.components)
        text = "; ".join(spec.problems(rates, start))
        assert text.startswith("params.")
        for call in (lambda: make_model(name, rates, start),
                     lambda: ModelInstance(spec, rates, start)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == text


def test_per_capita_field_of_the_kolmogorov_form():
    field = lv_field(1.0, 2.0, 3.0, 4.0)
    rates = field.per_capita
    assert rates == PolynomialVectorField(2, (
        (Monomial(1.0, (0, 0)), Monomial(-2.0, (0, 1))),
        (Monomial(-3.0, (0, 0)), Monomial(4.0, (1, 0))),
    ))
    assert field.per_capita is rates
    u = [0.7, 1.9]
    assert np.allclose(field.evaluate(u), np.multiply(u, rates.evaluate(u)),
                       rtol=0.0, atol=1e-14)
    # a constant term, or dz/dt = gamma*y with no factor z, breaks the form
    assert build_riccati(0.0).field.per_capita is None
    assert sir_field(1.0, 1.0).per_capita is None
    cubic = PolynomialVectorField(1, ((Monomial(2.0, (3,)),),))
    assert cubic.per_capita == PolynomialVectorField(1, ((Monomial(2.0, (2,)),),))
