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
from functools import lru_cache
from itertools import count

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
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return self.coefficients.size - 1


def eval_series(s: TruncatedSeries, t):
    """Evaluate the series at t (scalar or array) in Horner form.  Summed
    far past its radius a series leaves the float range: those values are
    +-inf, with no overflow warning."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("evaluation point must be finite")
    result = np.zeros_like(t)
    with np.errstate(over="ignore"):
        for c in s.coefficients[::-1].tolist():
            np.multiply(result, t, result)
            np.add(result, c, result)
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


#: highest order whose ``stage_loop`` is compiled.  At order N a product
#: coefficient adds at most N terms.  numpy's valid-mode correlate, which
#: ``recursion_loop`` calls, adds up to 11 terms one by one from 0.0 as the
#: compiled loop does, and 12 or more in another order, so only up to
#: order 11 do the compiled loop and the recursion round alike.
KERNEL_MAX_ORDER = 11


#: any state beyond this magnitude is treated as divergence, not data
DIVERGENCE_LIMIT = 1e12

#: ``np.correlate`` without its ``__array_function__`` dispatch, which
#: costs more than a short correlate itself; the recursion passes only
#: plain float arrays, so the same C call runs on the same operands
_correlate = getattr(np.correlate, "__wrapped__", np.correlate)


def _recursion_lines(shape, order: int, indent: str):
    """Loop-free Python for the recursion of one plan shape and order:
    the names of the coefficient locals, the lines, and ``u(operand, k)``,
    the name (or literal) of coefficient k of an operand.

    Local ``u{operand}_{k}`` holds coefficient k of an operand; the
    constant operand is the literal series 1.0, 0.0, 0.0, ...  Every sum
    starts from 0.0 and adds in the loop's order (products by ascending
    left index, equation terms in monomial order), so the result matches
    the loop bit for bit, signed zeros included.  The lines hold only
    integer indices and fixed names; they read the coefficient locals and
    ``u{i}_0`` for each state component.
    """
    dim, rows, operands = shape

    def u(op: int, k: int) -> str:
        if op == dim:
            return "1.0" if k == 0 else "0.0"
        return f"u{op}_{k}"

    counter = count()
    term_names = [[f"c{next(counter)}" for _ in ops] for ops in operands]
    lines = []
    for k in range(order):
        for row, (left, right) in enumerate(rows, start=dim + 1):
            products = "".join(
                f" + {u(left, i)} * {u(right, k - i)}" for i in range(k + 1))
            lines.append(f"{indent}{u(row, k)} = 0.0{products}")
        for i, (ops, eq_names) in enumerate(zip(operands, term_names)):
            terms = "".join(f" + {c} * {u(op, k)}" for c, op in zip(eq_names, ops))
            lines.append(f"{indent}{u(i, k + 1)} = (0.0{terms}) / {float(k + 1)!r}")
    return [name for eq in term_names for name in eq], lines, u


def _path_source(shape, order: int) -> str:
    """``path(state, coefficients, step, t_end)``: the compiled stage loop
    of ``stage_loop``, from t = 0 to ``t_end``.  It returns (times,
    states, failed): lists of the stage times and state tuples up to the
    last good stage, and the index of the stage whose state left
    [-DIVERGENCE_LIMIT, DIVERGENCE_LIMIT] (NaN included), or None.

    Per stage: the step ``min(step, t_end - t)``, so the last stage lands
    exactly on ``t_end``, the recursion, Horner from 0.0 (so a -0.0 start
    steps to +0.0), the divergence guard, then ``t + dt``; the same float
    operations in the same order as ``stage_loop``'s loop over the
    recursion.  ``-limit <= v <= limit`` is False for NaN and both
    infinities, as ``abs(v) <= limit`` is.
    """
    dim = shape[0]
    names, body, u = _recursion_lines(shape, order, "        ")
    limit = repr(DIVERGENCE_LIMIT)
    state = "(" + ", ".join(u(i, 0) for i in range(dim)) + ",)"
    lines = [
        "def path(state, coefficients, step, t_end):",
        f"    [{', '.join(names)}] = coefficients",
        f"    [{', '.join(u(i, 0) for i in range(dim))}] = state",
        "    t = 0.0",
        "    times = [t]",
        f"    states = [{state}]",
        "    index = 0",
        "    while t < t_end:",
        "        rest = t_end - t",
        "        dt = rest if rest < step else step",
        *body,
    ]
    for i in range(dim):
        horner = "0.0"
        for k in range(order, -1, -1):
            horner = f"({horner} * dt + {u(i, k)})"
        lines.append(f"        {u(i, 0)} = {horner}")
    within = " and ".join(f"-{limit} <= {u(i, 0)} <= {limit}" for i in range(dim))
    lines += [
        f"        if not ({within}):",
        "            return times, states, index",
        "        t = t + dt",
        "        times.append(t)",
        f"        states.append({state})",
        "        index = index + 1",
        "    return times, states, None",
    ]
    return "\n".join(lines) + "\n"


def _loop_source(shape) -> str:
    """``loop(w, state, coefficients, order, correlate)``: the recursion
    at any order, filling the operand rows of ``w`` (state rows from
    column 1 on, product rows that another row reads) for k = 0 .. order-1.

    Each product coefficient is one valid-mode correlate of the two
    operand rows, ``np.correlate(w[left, :k+1], w[right, k::-1])``, which
    adds in the order ``np.convolve`` does for that entry.  Local
    ``u{operand}`` holds coefficient k of an operand and ``one`` that of
    the constant (1.0 at k = 0, then 0.0); each equation sums from 0.0 in
    monomial order and divides by k + 1, the float operations of
    ``ProductPlan.combine`` in its order.  The lines hold only integer
    indices and fixed names.
    """
    dim, rows, operands = shape
    names = [f"c{j}" for j in range(sum(map(len, operands)))]
    read = {op for pair in rows for op in pair}
    w_rows = ", ".join(f"w{op}" for op in range(dim + 1 + len(rows)))

    def u(op: int) -> str:
        return "one" if op == dim else f"u{op}"

    lines = [
        "def loop(w, state, coefficients, order, correlate):",
        f"    [{', '.join(names)}] = coefficients",
        f"    [{w_rows}] = w",
        f"    [{', '.join(u(i) for i in range(dim))}] = state",
        "    one = 1.0",
        "    k = 0",
        "    while k < order:",
        "        n = k + 1",
    ]
    for row, (left, right) in enumerate(rows, start=dim + 1):
        lines.append(f"        {u(row)} = correlate(w{left}[:n], w{right}[k::-1]).item()")
        if row in read:
            lines.append(f"        w{row}[k] = {u(row)}")
    terms = iter(names)
    for i, ops in enumerate(operands):
        sum_ = "".join(f" + {next(terms)} * {u(op)}" for op in ops)
        lines.append(f"        v{i} = (0.0{sum_}) / n")
    for i in range(dim):
        lines.append(f"        w{i}[n] = v{i}")
    lines += [
        f"        {', '.join(u(i) for i in range(dim))} = "
        f"{', '.join(f'v{i}' for i in range(dim))}",
        "        one = 0.0",
        "        k = n",
    ]
    return "\n".join(lines) + "\n"


def _compile(source: str, name: str, label: str, **names):
    """What generated ``source`` binds to ``name``; the source runs with no
    builtins and sees only ``names``."""
    namespace = {"__builtins__": {}, **names}
    exec(compile(source, f"<{label}>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=128)
def recursion_loop(shape):
    """The compiled recursion for a ``ProductPlan.shape``: ``loop(w,
    state values, plan.coefficients, order, _correlate)``.  The order is
    an argument and the result is cached, so one compile serves every
    field and order of a family."""
    return _compile(_loop_source(shape), "loop", "taylor loop")


def taylor_coefficients(field: PolynomialVectorField, state, order: int) -> np.ndarray:
    """Taylor coefficients, shape (dimension, order+1), of the solution of
    u' = P(u) started at ``state``.

    Row i holds c_{i,0}..c_{i,N} with c_{i,0} = state[i].  Coefficient
    k+1 only consumes coefficients 0..k, so every returned value is the
    exact Taylor coefficient up to floating-point rounding.  Every order
    runs the plan's compiled loop over orders (``recursion_loop``).
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    state = np.asarray(state, dtype=float)
    if state.shape != (field.dimension,):
        raise ValueError("state length must equal the field dimension")
    plan = field.plan
    return _recursion(plan.shape, plan.coefficients, state.tolist(), order)


def _recursion(shape, coefficients, state, order: int) -> np.ndarray:
    """``taylor_coefficients`` for a plan shape, its coefficients and the
    state values, unchecked."""
    dim, rows, _ = shape
    # one row per operand of the plan: the state variables, the constant
    # 1 (the series 1, 0, 0, ..., so a constant monomial adds only at
    # k = 0), then the product rows
    w = np.zeros((dim + 1 + len(rows), order + 1))
    w[:dim, 0] = state
    w[dim, 0] = 1.0
    recursion_loop(shape)(w, state, coefficients, order, _correlate)
    return w[:dim]


@lru_cache(maxsize=128)
def stage_loop(shape, order: int):
    """The stage loop of piecewise series stepping for a
    ``ProductPlan.shape`` and an order: ``path(state values,
    plan.coefficients, step, t_end)``, returning (times, states, failed
    stage or None) as _path_source describes.  Orders up to
    ``KERNEL_MAX_ORDER`` get the compiled loop, higher ones a loop over
    the recursion; both round alike.  Cached, so one loop serves every
    field of a family."""
    if order <= KERNEL_MAX_ORDER:
        return _compile(_path_source(shape, order), "path",
                        f"taylor path, order {order}")

    def path(state, coefficients, step, t_end):
        times = [0.0]
        states = [tuple(state)]
        t = 0.0
        index = 0
        while t < t_end:
            dt = min(step, t_end - t)
            nxt = []
            for row in _recursion(shape, coefficients, states[-1], order).tolist():
                # Horner from 0.0, so a -0.0 start steps to +0.0
                value = 0.0
                for c in reversed(row):
                    value = value * dt + c
                nxt.append(value)
            # the comparison is False for NaN and inf as well
            if not all(abs(value) <= DIVERGENCE_LIMIT for value in nxt):
                return times, states, index
            t = t + dt
            times.append(t)
            states.append(tuple(nxt))
            index += 1
        return times, states, None

    return path


def generate_taylor_solution(model: ModelInstance, order: int) -> SeriesSolution:
    """Series solution of ``model`` about t = 0, truncated at ``order``."""
    coef = taylor_coefficients(model.field, model.initial_state, order)
    return SeriesSolution(tuple(TruncatedSeries(row) for row in coef), model)
