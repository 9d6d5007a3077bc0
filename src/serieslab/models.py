"""Autonomous polynomial ODE systems and the three benchmark models.

Every right-hand side handled by this package is a vector of multivariate
polynomials, stored explicitly as monomial lists.  That representation is
what makes exact power-series recursion possible: products of truncated
series are again truncated series, with no approximation beyond the
truncation itself.

Three concrete systems are registered in ``MODELS``, each a ``ModelSpec``
holding its parameter and component names and its monomials:

* a scalar quadratic equation dY/dt = 1 + 2Y - Y^2 with an attracting
  state at 1 + sqrt(2),
* the classic two-species predator-prey system,
* the three-compartment susceptible/infective/removed epidemic system.
"""

from __future__ import annotations

import math
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
class ModelSpec:
    """Everything a scenario needs to know about one model family."""

    name: str
    params: tuple[str, ...]       # rate names
    components: tuple[str, ...]   # state names, one per dimension
    populations: bool             # components are counts: starts are non-negative
    #: each equation's monomials as (factor, rate name or None, exponents),
    #: whose coefficient is factor * params[rate], or factor alone
    equations: tuple[tuple[tuple[float, str | None, tuple[int, ...]], ...], ...]

    def problems(self, params, state) -> list[str]:
        """Every way the rates ``params`` (by name) and the start ``state``
        break this family's rules, as ``field: message`` strings, the
        start's first; a value of None (one that did not parse) is not judged.
        Each rate must be given, and be finite and positive, and no other
        name may be."""
        out = []
        dim = len(self.components)
        if len(state) != dim:
            out.append(f"initial_state: expected {dim} component(s) "
                       f"for {self.name}, got {len(state)}")
        elif self.populations and any(v is not None and v < 0 for v in state):
            out.append("initial_state: components must be non-negative")
        names = set(self.params)
        if params.keys() != names:
            out += [f"params.{k}: required for {self.name}"
                    for k in sorted(names - params.keys())]
            out += [f"params.{k}: unknown parameter for {self.name}"
                    for k in sorted(params.keys() - names)]
        # NaN fails both comparisons
        return out + [f"params.{k}: must be positive" for k in sorted(names)
                      if params.get(k) is not None and not 0.0 < params[k] < math.inf]


@dataclass(frozen=True, eq=False)
class ModelInstance:
    """A model family's row at fixed rates and a fixed start.

    ``field`` is built here from ``spec.equations`` at ``params``, each
    coefficient a rate's float or its negation, exactly, so it cannot
    disagree with the rates that other code reads.  Instances compare and
    hash by identity, as their array start has no value equality.
    """

    spec: ModelSpec
    params: dict[str, float]
    initial_state: np.ndarray

    def __post_init__(self):
        # a copy: freezing the caller's own array would freeze it for them
        state = np.array(self.initial_state, dtype=float)
        state.flags.writeable = False
        params = dict(self.params)
        object.__setattr__(self, "initial_state", state)
        object.__setattr__(self, "params", params)
        spec = self.spec
        problems = spec.problems(params, state.ravel().tolist())
        if problems:
            raise ValueError("; ".join(problems))
        if state.shape != (len(spec.components),):
            raise ValueError("initial state length must equal the field dimension")
        if not all(map(math.isfinite, state.tolist())):
            raise ValueError("initial state must be finite")
        field = PolynomialVectorField(len(spec.components), tuple(
            tuple(Monomial(factor if rate is None else factor * params[rate], exponents)
                  for factor, rate, exponents in eq) for eq in spec.equations))
        object.__setattr__(self, "field", field)

    @property
    def label(self) -> str:
        return self.spec.name


def build_riccati(y0: float) -> ModelInstance:
    """Scalar model dY/dt = 1 + 2Y - Y^2 started at Y(0) = y0."""
    return make_model("riccati", {}, [float(y0)])


MODELS = {spec.name: spec for spec in (
    # dy/dt = 1 + 2y - y^2
    ModelSpec("riccati", (), ("y",), False, (
        ((1.0, None, (0,)), (2.0, None, (1,)), (-1.0, None, (2,))),
    )),
    # prey x, predator y: dx/dt = ax - bxy, dy/dt = -cy + dxy
    ModelSpec("lotka_volterra", ("a", "b", "c", "d"), ("x", "y"), True, (
        ((1.0, "a", (1, 0)), (-1.0, "b", (1, 1))),
        ((-1.0, "c", (0, 1)), (1.0, "d", (1, 1))),
    )),
    # susceptible, infective, removed: dx/dt = -bxy, dy/dt = bxy - gy,
    # dz/dt = gy, whose sum is zero, so the total population is conserved
    ModelSpec("sir", ("beta", "gamma"), ("x", "y", "z"), True, (
        ((-1.0, "beta", (1, 1, 0)),),
        ((1.0, "beta", (1, 1, 0)), (-1.0, "gamma", (0, 1, 0))),
        ((1.0, "gamma", (0, 1, 0)),),
    )),
)}


def make_model(name: str, params: dict[str, float], initial_state) -> ModelInstance:
    """Build a named ModelInstance from a parameter map and initial state.

    This is the constructor used by scenario configs; ``name`` must be a
    key of ``MODELS``, and ``params`` and ``initial_state`` must pass its
    ``ModelSpec.problems``.
    """
    spec = MODELS.get(name)
    if spec is None:
        raise ValueError(f"unknown model name: {name!r}")
    return ModelInstance(spec, params, initial_state)
