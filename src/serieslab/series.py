"""Truncated power series in time and the Taylor recursion for
polynomial ODE systems.

For a polynomial field u' = P(u) the Taylor coefficients of the solution
about t = 0 satisfy

    (k+1) * c[k+1] = k-th coefficient of P(series state),

which closes because products of truncated series need only coefficients
already known.  The coefficients produced here are the true Taylor
coefficients of the solution, not an approximation: this is the series
that perturbation-style iteration schemes reproduce term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ModelInstance, PolynomialVectorField


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Coefficients c_0..c_N of a series in t, truncated at order N."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ValueError("coefficients must be a non-empty 1-D vector")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1


def series_add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum of two series of equal order."""
    if a.order != b.order:
        raise ValueError("series orders differ")
    return TruncatedSeries(a.coefficients + b.coefficients)


def series_mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated back to the common order."""
    if a.order != b.order:
        raise ValueError("series orders differ")
    full = np.convolve(a.coefficients, b.coefficients)
    return TruncatedSeries(full[: a.order + 1])


def eval_series(s: TruncatedSeries, t):
    """Evaluate the series at t (scalar or array) in Horner form."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("evaluation point must be finite")
    result = np.zeros_like(t)
    for c in s.coefficients[::-1]:
        result = result * t + c
    if result.ndim == 0:
        return float(result)
    return result


@dataclass(frozen=True, eq=False)
class SeriesSolution:
    """Per-component series solution of a model, all of the same order."""

    components: tuple[TruncatedSeries, ...]
    model: ModelInstance

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if len(self.components) != self.model.field.dimension:
            raise ValueError("need one component series per dimension")
        orders = {comp.order for comp in self.components}
        if len(orders) != 1:
            raise ValueError("component series must share one order")
        for comp, u0 in zip(self.components, self.model.initial_state):
            if comp.coefficients[0] != u0:
                raise ValueError("constant term must equal the initial condition")

    @property
    def order(self) -> int:
        return self.components[0].order


def taylor_coefficients(field: PolynomialVectorField, state, order: int) -> np.ndarray:
    """Taylor coefficients, shape (dimension, order+1), of the solution of
    u' = P(u) started at ``state``.

    Row i holds c_{i,0}..c_{i,N} with c_{i,0} = state[i].  Coefficient
    k+1 only consumes coefficients 0..k, so every returned value is the
    exact Taylor coefficient up to floating-point rounding.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    state = np.asarray(state, dtype=float)
    if state.shape != (field.dimension,):
        raise ValueError("state length must equal the field dimension")
    plan = field.plan
    dim = field.dimension
    # one row per operand of the plan: the state variables, the constant
    # 1 (the series 1, 0, 0, ..., so a constant monomial adds only at
    # k = 0), then the product rows
    w = np.zeros((dim + 1 + len(plan.rows), order + 1))
    w[:dim, 0] = state
    w[dim, 0] = 1.0
    for k in range(order):
        for row, (left, right) in enumerate(plan.rows, start=dim + 1):
            # coefficient k of the Cauchy product; the valid-mode correlate
            # adds in the same order as np.convolve does for that entry
            w[row, k] = np.correlate(w[left, : k + 1], w[right, k::-1])[0]
        w[:dim, k + 1] = [acc / (k + 1) for acc in plan.combine(w[:, k].tolist())]
    return w[:dim]


def generate_taylor_solution(model: ModelInstance, order: int) -> SeriesSolution:
    """Series solution of ``model`` about t = 0, truncated at ``order``."""
    coef = taylor_coefficients(model.field, model.initial_state, order)
    return SeriesSolution(tuple(TruncatedSeries(row) for row in coef), model)
