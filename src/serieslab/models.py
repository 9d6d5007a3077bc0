"""Autonomous polynomial ODE systems and the three benchmark models.

Every right-hand side handled by this package is a vector of multivariate
polynomials, stored explicitly as monomial lists.  That representation is
what makes exact power-series recursion possible: products of truncated
series are again truncated series, with no approximation beyond the
truncation itself.

Three concrete systems are provided as builders, each registered with its
parameter and component names as a ``ModelSpec`` in ``MODELS``:

* a scalar quadratic equation dY/dt = 1 + 2Y - Y^2 with an attracting
  state at 1 + sqrt(2),
* the classic two-species predator-prey system,
* the three-compartment susceptible/infective/removed epidemic system.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SQRT2 = math.sqrt(2.0)

#: SQRT2 minus the true sqrt(2): the float's rounding
SQRT2_ERROR = 9.667293313452913e-17

#: attracting zero of 1 + 2y - y^2; solutions approach it as t -> infinity
RICCATI_STATIONARY = 1.0 + SQRT2

#: RICCATI_STATIONARY minus the true 1 + sqrt(2): the float's rounding
RICCATI_STATIONARY_ERROR = -1.2537167179050217e-16

#: repelling zero of 1 + 2y - y^2; solutions started below it blow up.
#: 1.0 - SQRT2 is exact, so the float is off the true 1 - sqrt(2) by
#: -SQRT2_ERROR
RICCATI_UNSTABLE = 1.0 - SQRT2


@dataclass(frozen=True)
class Monomial:
    """A single term ``coefficient * prod_j state[j]**exponents[j]``."""

    coefficient: float
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficient", float(self.coefficient))
        object.__setattr__(self, "exponents", tuple(int(e) for e in self.exponents))
        if not math.isfinite(self.coefficient):
            raise ValueError("monomial coefficient must be finite")
        if any(e < 0 for e in self.exponents):
            raise ValueError("monomial exponents must be non-negative")


@dataclass(frozen=True)
class ProductPlan:
    """A polynomial field lowered to products of two operands.

    Operands are numbered in the order they become known: the state
    variables 0..dimension-1, then the constant 1 at ``dimension``, then
    one operand per entry of ``rows``.  ``rows[r] = (left, right)`` is
    operand ``dimension + 1 + r``, the product of two earlier operands.
    ``terms[i]`` holds equation i's ``(coefficient, operand)`` pairs in
    monomial order.
    """

    rows: tuple[tuple[int, int], ...]
    terms: tuple[tuple[tuple[float, int], ...], ...]

    @cached_property
    def coefficients(self) -> tuple[float, ...]:
        """Every term's coefficient, equation by equation in monomial order."""
        return tuple(c for terms in self.terms for c, _ in terms)

    @cached_property
    def shape(self) -> tuple:
        """Everything but the coefficients, as plain ints: (dimension,
        rows, each equation's operands).  Fields of one family share it."""
        rows = tuple((int(left), int(right)) for left, right in self.rows)
        operands = tuple(tuple(int(op) for _, op in terms) for terms in self.terms)
        return (len(self.terms), rows, operands)

    def combine(self, values) -> list[float]:
        """Each equation's sum of coefficient * operand value, added in
        monomial order starting from 0.0, given every operand's value."""
        out = []
        for terms in self.terms:
            acc = 0.0
            for coefficient, operand in terms:
                acc += coefficient * values[operand]
            out.append(acc)
        return out


@dataclass(frozen=True)
class PolynomialVectorField:
    """An autonomous system u' = P(u) with polynomial components.

    ``equations[i]`` is the monomial list of the i-th component of P.
    Instances are immutable and safe to share between threads.
    """

    dimension: int
    equations: tuple[tuple[Monomial, ...], ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(
            self, "equations", tuple(tuple(eq) for eq in self.equations)
        )
        if len(self.equations) != self.dimension:
            raise ValueError("need one equation per dimension")
        for eq in self.equations:
            for mono in eq:
                if len(mono.exponents) != self.dimension:
                    raise ValueError(
                        "monomial exponent vector length must equal the dimension"
                    )

    @cached_property
    def plan(self) -> ProductPlan:
        """The field lowered, once, to a ProductPlan.

        A monomial's factors are taken variable by variable in exponent
        order and multiplied left to right, so x^2*y is the chain
        (x*x)*y; chains that share a prefix share its rows.
        """
        one = self.dimension
        rows: list[tuple[int, int]] = []
        operand_of: dict[tuple[int, ...], int] = {}
        terms = []
        for eq in self.equations:
            eq_terms = []
            for mono in eq:
                factors = tuple(
                    j for j, e in enumerate(mono.exponents) for _ in range(e)
                )
                operand = factors[0] if factors else one
                for n in range(2, len(factors) + 1):
                    prefix = factors[:n]
                    if prefix not in operand_of:
                        operand_of[prefix] = one + 1 + len(rows)
                        rows.append((operand, factors[n - 1]))
                    operand = operand_of[prefix]
                eq_terms.append((mono.coefficient, operand))
            terms.append(tuple(eq_terms))
        return ProductPlan(tuple(rows), tuple(terms))

    @cached_property
    def per_capita(self) -> PolynomialVectorField | None:
        """The field g with u_i' = u_i * g_i(u), or None if some monomial
        of equation i lacks a factor u_i (the field is not in Kolmogorov
        form).  g_i is equation i with one power of u_i removed from each
        monomial; in w = ln u the system reads w_i' = g_i(exp(w))."""
        equations = []
        for i, eq in enumerate(self.equations):
            if any(mono.exponents[i] == 0 for mono in eq):
                return None
            equations.append(tuple(
                Monomial(mono.coefficient,
                         tuple(e - (j == i) for j, e in enumerate(mono.exponents)))
                for mono in eq))
        return PolynomialVectorField(self.dimension, tuple(equations))

    def evaluate(self, state) -> np.ndarray:
        """Evaluate P(state) componentwise.

        Accepts any real vector of the right length; no sign constraint is
        imposed, since trajectories produced by truncated series can and do
        leave the physically meaningful region.  Powers are exact products
        (y**2 is y*y), so the result does not depend on the platform's pow.
        """
        state = np.asarray(state, dtype=float)
        if state.shape != (self.dimension,):
            raise ValueError(
                f"state has shape {state.shape}, expected ({self.dimension},)"
            )
        plan = self.plan
        values = state.tolist()
        values.append(1.0)
        for left, right in plan.rows:
            values.append(values[left] * values[right])
        return np.array(plan.combine(values))


@dataclass(frozen=True)
class ModelInstance:
    """A vector field bundled with named parameters and an initial state."""

    field: PolynomialVectorField
    params: dict[str, float]
    initial_state: np.ndarray
    label: str

    def __post_init__(self):
        state = np.asarray(self.initial_state, dtype=float)
        state.flags.writeable = False
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "params", dict(self.params))
        if state.shape != (self.field.dimension,):
            raise ValueError("initial state length must equal the field dimension")
        if not np.all(np.isfinite(state)):
            raise ValueError("initial state must be finite")
        for name, value in self.params.items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"parameter {name} must be strictly positive")
        spec = MODELS.get(self.label)
        if spec is not None and spec.populations and np.any(state < 0):
            raise ValueError(f"{self.label} initial state must be non-negative")


def build_riccati(y0: float) -> ModelInstance:
    """Scalar model dY/dt = 1 + 2Y - Y^2 started at Y(0) = y0."""
    return make_model("riccati", {}, [float(y0)])


def _riccati_field() -> PolynomialVectorField:
    return PolynomialVectorField(
        dimension=1,
        equations=(
            (
                Monomial(1.0, (0,)),
                Monomial(2.0, (1,)),
                Monomial(-1.0, (2,)),
            ),
        ),
    )


def build_lotka_volterra(a: float, b: float, c: float, d: float) -> PolynomialVectorField:
    """Predator-prey field dx/dt = ax - bxy, dy/dt = -cy + dxy.

    x is the prey population, y the predator population; all four rates
    must be strictly positive.
    """
    for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"parameter {name} must be strictly positive")
    return PolynomialVectorField(
        dimension=2,
        equations=(
            (Monomial(a, (1, 0)), Monomial(-b, (1, 1))),
            (Monomial(-c, (0, 1)), Monomial(d, (1, 1))),
        ),
    )


def build_sir(beta: float, gamma: float) -> PolynomialVectorField:
    """Epidemic field dx/dt = -bxy, dy/dt = bxy - gy, dz/dt = gy.

    x, y, z are susceptible, infective and removed counts.  The three
    right-hand sides sum to zero, so the total population is conserved.
    """
    for name, value in (("beta", beta), ("gamma", gamma)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"parameter {name} must be strictly positive")
    return PolynomialVectorField(
        dimension=3,
        equations=(
            (Monomial(-beta, (1, 1, 0)),),
            (Monomial(beta, (1, 1, 0)), Monomial(-gamma, (0, 1, 0))),
            (Monomial(gamma, (0, 1, 0)),),
        ),
    )


@dataclass(frozen=True)
class ModelSpec:
    """Everything a scenario needs to know about one model family."""

    name: str
    params: tuple[str, ...]       # in the builder's argument order
    components: tuple[str, ...]   # state names, one per dimension
    builder: Callable[..., PolynomialVectorField]
    populations: bool             # components are counts: starts are non-negative


MODELS = {spec.name: spec for spec in (
    ModelSpec("riccati", (), ("y",), _riccati_field, False),
    ModelSpec("lotka_volterra", ("a", "b", "c", "d"), ("x", "y"),
              build_lotka_volterra, True),
    ModelSpec("sir", ("beta", "gamma"), ("x", "y", "z"), build_sir, True),
)}


def make_model(name: str, params: dict[str, float], initial_state) -> ModelInstance:
    """Build a named ModelInstance from a parameter map and initial state.

    This is the constructor used by scenario configs; ``name`` must be a
    key of ``MODELS`` and ``params`` must hold exactly its parameters.
    """
    spec = MODELS.get(name)
    if spec is None:
        raise ValueError(f"unknown model name: {name!r}")
    if set(params) != set(spec.params):
        raise ValueError(f"{name} needs exactly parameters "
                         f"{', '.join(spec.params) or '(none)'}")
    field = spec.builder(*(params[p] for p in spec.params))
    return ModelInstance(field, params, initial_state, name)
