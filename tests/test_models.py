import numpy as np
import pytest

from serieslab.models import (
    MODELS,
    RICCATI_STATIONARY,
    ModelInstance,
    Monomial,
    PolynomialVectorField,
    build_lotka_volterra,
    build_riccati,
    build_sir,
    make_model,
)


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
    field = build_lotka_volterra(1, 1, 0.1, 1)
    out = field.evaluate([14.0, 18.0])
    assert np.allclose(out, [14 * (1 - 18), -18 * (0.1 - 14)], rtol=0, atol=1e-12)


def test_lv_center_and_saddle_annihilate_field():
    a, b, c, d = 1.0, 1.0, 0.1, 1.0
    field = build_lotka_volterra(a, b, c, d)
    # the saddle at the origin and the center at (c/d, a/b)
    for p in ((0.0, 0.0), (c / d, a / b)):
        assert np.max(np.abs(field.evaluate(p))) < 1e-12


def test_lv_case_five_evaluation():
    field = build_lotka_volterra(1, 1, 1, 1)
    assert np.allclose(field.evaluate([3.0, 2.0]), [-3.0, 4.0], atol=1e-14)
    assert np.array_equal(field.evaluate([1.0, 1.0]), [0.0, 0.0])


def test_lv_rejects_non_positive_parameters():
    for bad in ((0, 1, 1, 1), (1, -2, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        with pytest.raises(ValueError):
            build_lotka_volterra(*bad)


def test_sir_field_values():
    field = build_sir(0.01, 0.02)
    out = field.evaluate([20.0, 15.0, 10.0])
    assert np.allclose(out, [-3.0, 3.0 - 0.3, 0.3], atol=1e-12)
    unit = build_sir(1.0, 1.0)
    assert np.allclose(unit.evaluate([20.0, 4.0, 10.0]), [-80.0, 76.0, 4.0], atol=1e-12)


def test_sir_no_infectives_means_no_motion():
    field = build_sir(0.7, 0.3)
    assert np.all(field.evaluate([42.0, 0.0, 3.0]) == 0.0)


def test_sir_derivatives_sum_to_zero_bitwise():
    rng = np.random.default_rng(42)
    field = build_sir(0.01, 0.02)
    for _ in range(200):
        x, y, z = rng.uniform(0.0, 100.0, size=3)
        out = field.evaluate([x, y, z])
        total = out[0] + (out[1] + out[2])
        expected = (-0.01 * (x * y)) + ((0.01 * (x * y) - 0.02 * y) + (0.02 * y))
        assert total == expected
        assert abs(total) < 1e-12


def test_sir_rejects_non_positive_parameters():
    with pytest.raises(ValueError):
        build_sir(0.0, 1.0)
    with pytest.raises(ValueError):
        build_sir(1.0, -1.0)


def test_evaluate_dimension_mismatch():
    field = build_sir(1.0, 1.0)
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
    field = build_sir(1.0, 1.0)
    with pytest.raises(ValueError):
        ModelInstance(field, {"beta": 1.0, "gamma": 1.0}, [1.0, 2.0], "sir")
    with pytest.raises(ValueError):
        ModelInstance(field, {"beta": 1.0, "gamma": 1.0}, [-1.0, 2.0, 3.0], "sir")
    with pytest.raises(ValueError):
        ModelInstance(field, {"beta": 0.0, "gamma": 1.0}, [1.0, 2.0, 3.0], "sir")
    model = ModelInstance(field, {"beta": 1.0, "gamma": 1.0}, [1.0, 2.0, 3.0], "sir")
    with pytest.raises(ValueError):
        model.initial_state[0] = 9.0


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
        assert model.field == spec.builder(*params.values())
        negative = [-1.0] + start[1:]
        if spec.populations:
            with pytest.raises(ValueError, match="non-negative"):
                make_model(name, params, negative)
        else:
            assert make_model(name, params, negative).initial_state[0] == -1.0
    riccati = build_riccati(0.5)
    assert riccati.field == MODELS["riccati"].builder()
    assert (riccati.label, riccati.params, riccati.initial_state.tolist()) == (
        "riccati", {}, [0.5])
