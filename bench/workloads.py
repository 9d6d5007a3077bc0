"""The three benchmark workloads: seeded inputs, one timed operation per
input, and a check of every output.

A workload holds a pool of inputs ("items") generated from the seed during
set-up.  One round runs every item once; a run is a whole number of rounds,
so every run measures the same mix of operations and per-round counts from
the traced run repeat exactly.

``TAIL_PERCENTILE`` is fixed per workload, so a faster or slower program
cannot switch the percentile that latency_tail_ms reports.  Each leaves at
least ten samples beyond it in a 30-second run at the seed commit's speed.

Operations call the package through module attributes (``series.eval_series``
rather than a name imported here), so the wrappers that ``tracing.py``
rebinds onto those modules see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import re
import shutil
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from serieslab import cli, convergence, figures, integrators, models, scenario, series
from serieslab.exact import lv_conserved, riccati_exact, sir_y_of_x

FAMILIES = ("riccati", "lotka_volterra", "sir")

#: rows of the ``report-all`` table when every analysis runs
REPORT_ALL_ROWS = 45

# Check limits.  Inside half the radius at order 60-120 the truncation error
# is below rounding: the observed errors of the high-order series are about
# 1e-15, so these limits leave room for rounding without letting a wrong
# coefficient through.
RICCATI_SERIES_RTOL = 1e-12
SIR_RELATION_RTOL = 1e-10   # of the initial susceptible count
LV_SERIES_DRIFT = 1e-10     # of a + c, the first integral's scale
#: an estimate within this share of the closed-form radius counts as good
ESTIMATE_QUALITY_RTOL = 0.15

# Multistage limits.  Each stage keeps a truncation error, so every stage
# is compared with the exact relation, not only the end state (Riccati
# paths settle on the attracting state, where a wrong path and a right one
# end alike).  Over 25 seeds the largest error along a path, as a share of
# 0.3**(order+1) (the per-stage error bound at the largest step fraction),
# is 4.3 for the Riccati state against ``riccati_exact`` (relative to
# max(1, |y|)), 0.9 for the infectives against ``sir_y_of_x`` (relative to
# the initial susceptible count), and 7.8 for the predator-prey first
# integral (relative to a + c).  Each factor below leaves a margin of at
# least 11.  The epidemic steps also conserve the total exactly up to
# rounding (observed drift about 1e-15).
MULTISTAGE_LIMIT_FACTOR = {"riccati": 50.0, "lotka_volterra": 100.0, "sir": 10.0}
MULTISTAGE_SIR_DRIFT = 1e-12


def multistage_limit(family: str, order: int) -> float:
    return MULTISTAGE_LIMIT_FACTOR[family] * 0.3 ** (order + 1)


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def draw_model(rng, family: str) -> tuple[dict, tuple]:
    """Seeded parameters and initial state for one model of ``family``.

    Riccati starts span [-0.3, 4], including starts between the two
    stationary states.  Predator-prey rates are log-uniform in [0.1, 10]
    and start within a factor of the center; epidemic rates are log-uniform
    in [0.01, 1] with a basic reproduction number in [0.5, 4], so the
    coefficients of order 120 stay far from overflow.
    """
    if family == "riccati":
        return {}, (float(rng.uniform(-0.3, 4.0)),)
    if family == "lotka_volterra":
        a, b, c, d = (_log_uniform(rng, 0.1, 10.0) for _ in range(4))
        x0 = c / d * float(rng.uniform(0.3, 2.5))
        y0 = a / b * float(rng.uniform(0.3, 2.5))
        return {"a": a, "b": b, "c": c, "d": d}, (x0, y0)
    if family == "sir":
        beta = _log_uniform(rng, 0.01, 1.0)
        gamma = _log_uniform(rng, 0.01, 1.0)
        x0 = gamma / beta * float(rng.uniform(0.5, 4.0))
        return ({"beta": beta, "gamma": gamma},
                (x0, x0 * float(rng.uniform(0.05, 0.5)),
                 x0 * float(rng.uniform(0.0, 0.5))))
    raise ValueError(f"unknown family {family!r}")


def spread_ints(lo: int, hi: int, n: int, rng=None) -> list[int]:
    """n ascending integers in [lo, hi], one from each of n equal strata:
    the start of each stratum, or a seeded draw inside it when ``rng`` is
    given.  Spreading the work evenly keeps a round's total cost nearly the
    same for every seed."""
    width = (hi - lo + 1) / n
    offsets = rng.random(n) if rng is not None else np.zeros(n)
    return [lo + int((j + offsets[j]) * width) for j in range(n)]


@dataclass(frozen=True)
class ModelItem:
    """One seeded model input; only multistage items set stages, step and
    t_end."""

    family: str
    params: dict
    state: tuple
    order: int
    stages: int = 0
    step: float = 0.0
    t_end: float = 0.0

    def build(self):
        return models.make_model(self.family, self.params, self.state)


def _model_pool(rng, size: int, order_range: tuple[int, int],
                stage_range: tuple[int, int] | None = None) -> list[ModelItem]:
    """``size`` seeded models, a third from each family, with orders spread
    evenly over ``order_range`` and seeded stage counts stratified over
    ``stage_range``.

    The most stages go with the lowest order, so op costs stay even and a
    seed cannot pile its long runs onto its high orders.
    """
    per_family = size // len(FAMILIES)
    pool = []
    for family in FAMILIES:
        orders = spread_ints(*order_range, per_family)
        stages = (spread_ints(*stage_range, per_family, rng)[::-1]
                  if stage_range else [0] * per_family)
        for order, n in zip(orders, stages):
            params, state = draw_model(rng, family)
            pool.append(ModelItem(family, params, state, order, n))
    return pool


# -- reproduce ---------------------------------------------------------------


class Reproduce:
    """Each op is one in-process CLI verb writing into a fresh directory."""

    name = "reproduce"
    # 6-8 rounds of 11 verbs: p80 falls inside the block of `figure fig2`
    # samples, where it repeats, not on the edge between two verbs
    TAIL_PERCENTILE = 80.0

    def __init__(self, seed: int, work_dir: Path):
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        names = scenario.preset_names()
        for name in names:
            scenario.load_preset(name)
        self.items = ([("run", name) for name in names]
                      + [("figure", fig) for fig in figures.FIGURE_IDS]
                      + [("report-all",)])
        # relative path -> sha256 of the first copy seen; `run <preset>` and
        # `report-all` write the same per-preset paths, so this also checks
        # that both verbs produce identical bytes
        self.digests: dict[str, str] = {}
        self.file_sets: dict[tuple, frozenset] = {}

    def warm_up_item(self):
        return ("run", "riccati-zero")

    def execute(self, item):
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        stdout = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout):
            code = cli.main([*item, "--out", str(out)])
        elapsed = time.perf_counter() - start
        return elapsed, (code, stdout.getvalue(), out)

    def check(self, item, result) -> list[str]:
        code, stdout, out = result
        try:
            return self._problems(item, code, stdout, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _problems(self, item, code, stdout, out) -> list[str]:
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        if item == ("report-all",):
            match = re.search(r"(\d+)/(\d+) rows passed", stdout)
            if match is None or match.groups() != (str(REPORT_ALL_ROWS),) * 2:
                found = match.group(0) if match else "no summary line"
                problems.append(f"expected {REPORT_ALL_ROWS}/{REPORT_ALL_ROWS} "
                                f"rows passed, got {found}")
        files = {p.relative_to(out).as_posix(): p
                 for p in out.rglob("*") if p.is_file()}
        if not files:
            problems.append("no artifacts written")
        expected = self.file_sets.setdefault(item, frozenset(files))
        if frozenset(files) != expected:
            problems.append(f"artifact set changed: "
                            f"{sorted(expected ^ frozenset(files))}")
        for rel, path in sorted(files.items()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if self.digests.setdefault(rel, digest) != digest:
                problems.append(f"{rel}: bytes differ from the first copy")
        return problems


# -- highorder ---------------------------------------------------------------


class HighOrder:
    """Each op builds a seeded model, runs the recursion at order 60-120,
    estimates every component's radius and evaluates the series on a
    601-point grid inside half the smallest estimate."""

    name = "highorder"
    TAIL_PERCENTILE = 99.0
    POOL = 48

    def __init__(self, seed: int, pool: int = POOL):
        rng = np.random.default_rng([seed, 1])
        self.items = _model_pool(rng, pool, (60, 120))
        self.estimates = 0
        self.estimates_within_tol = 0

    def warm_up_item(self):
        return self.items[0]

    def execute(self, item: ModelItem):
        start = time.perf_counter()
        model = item.build()
        solution = series.generate_taylor_solution(model, item.order)
        radii = [convergence.estimate_radius(comp).radius
                 for comp in solution.components]
        grid = np.linspace(0.0, 0.5 * min(radii), 601)
        values = np.vstack([series.eval_series(comp, grid)
                            for comp in solution.components])
        elapsed = time.perf_counter() - start
        return elapsed, (solution, radii, grid, values)

    def check(self, item: ModelItem, result) -> list[str]:
        solution, radii, grid, values = result
        coeff = np.vstack([c.coefficients for c in solution.components])
        if coeff.shape != (len(item.state), item.order + 1):
            return [f"coefficient shape {coeff.shape}"]
        if not (np.all(np.isfinite(values)) and all(r > 0 for r in radii)):
            return ["non-finite values or non-positive radius"]
        if item.family == "riccati":
            y0 = item.state[0]
            self.estimates += 1
            exact_radius = convergence.riccati_radius(y0).radius
            if abs(radii[0] - exact_radius) <= ESTIMATE_QUALITY_RTOL * exact_radius:
                self.estimates_within_tol += 1
            exact = np.array([riccati_exact(y0, t) for t in grid])
            err = float(np.max(np.abs(values[0] - exact)
                               / np.maximum(1.0, np.abs(exact))))
            if err > RICCATI_SERIES_RTOL:
                return [f"riccati series off the closed form by {err:.3g}"]
        elif item.family == "sir":
            per_order = np.abs(coeff[:, 1:].sum(axis=0))
            limit = max(1e-12, 16 * np.finfo(float).eps * float(np.abs(coeff).max()))
            if float(per_order.max()) > limit:
                return [f"coefficient sums {per_order.max():.3g} > {limit:.3g}"]
            model = item.build()
            x, y = values[0], values[1]
            exact_y = np.array([sir_y_of_x(float(v), model) for v in x])
            err = float(np.max(np.abs(y - exact_y)) / item.state[0])
            if err > SIR_RELATION_RTOL:
                return [f"infectives off the exact y(x) relation by {err:.3g}"]
        else:
            drift = _lv_drift(item, values[0], values[1])
            if drift > LV_SERIES_DRIFT:
                return [f"first integral drifts by {drift:.3g}"]
        return []


def _lv_drift(item: ModelItem, x, y) -> float:
    """Largest change of the predator-prey first integral along (x, y),
    relative to a + c: a relative change e in x or y moves the integral by
    about (c - d x) e or (a - b y) e."""
    p = item.params
    if not (np.all(x > 0) and np.all(y > 0)):
        return math.inf
    h = np.array([lv_conserved(float(u), float(v), p["a"], p["b"], p["c"], p["d"])
                  for u, v in zip(x, y)])
    return float(np.max(np.abs(h - h[0]))) / (p["a"] + p["c"])


# -- multistage --------------------------------------------------------------


def local_radius(model, state) -> float:
    """Smallest ratio-test radius over the components of the series about
    ``state``; components whose tail is degenerate do not count."""
    coef = series.taylor_coefficients(model.field, state, RADIUS_SCAN_ORDER)
    radii = []
    for row in coef:
        try:
            radii.append(convergence.estimate_radius(series.TruncatedSeries(row)).radius)
        except convergence.NotEstimableError:
            continue
    return min(radii) if radii else math.inf


RADIUS_SCAN_ORDER = 16
RADIUS_SCAN_POINTS = 65


def min_radius_along_path(model, t_end: float) -> float:
    """Smallest local radius at RADIUS_SCAN_POINTS times in [0, t_end].

    Riccati radii come from the closed form about each exact state; the
    other families use a DOP853 path and the ratio test, and look at no
    more than four small-oscillation periods, since predator-prey paths
    repeat.
    """
    if model.label == "riccati":
        y0 = float(model.initial_state[0])
        return min(convergence.riccati_radius(riccati_exact(y0, t)).radius
                   for t in np.linspace(0.0, t_end, RADIUS_SCAN_POINTS))
    if model.label == "lotka_volterra":
        p = model.params
        t_end = min(t_end, 4 * 2 * math.pi / math.sqrt(p["a"] * p["c"]))
    grid = np.linspace(0.0, t_end, RADIUS_SCAN_POINTS)
    # the radius varies smoothly along the path, so a loose relative
    # tolerance suffices; populations that dip by many orders of magnitude
    # need relative control all the way down, as in the package's figures
    path = integrators.reference_integrate(model, t_end, 1e-6, grid=grid,
                                           atol=figures.DEEP_DECAY_ATOL)
    return min(local_radius(model, state) for state in path.states)


class Multistage:
    """Each op is one piecewise-series trajectory of 300-2000 stages at
    order 4-8, with the step a seeded fraction (0.1-0.3) of the smallest
    local radius along the path."""

    name = "multistage"
    TAIL_PERCENTILE = 90.0
    POOL = 30

    def __init__(self, seed: int, pool: int = POOL,
                 stage_range: tuple[int, int] = (300, 2000)):
        rng = np.random.default_rng([seed, 2])
        self.items = []
        for item in _model_pool(rng, pool, (4, 8), stage_range):
            fraction = float(rng.uniform(0.1, 0.3))
            model = item.build()
            # the path over the first guess contains the final, shorter one
            guess = item.stages * fraction * local_radius(model, model.initial_state)
            step = fraction * min_radius_along_path(model, guess)
            self.items.append(replace(item, step=step, t_end=item.stages * step))

    def warm_up_item(self):
        return self.items[0]

    def execute(self, item: ModelItem):
        start = time.perf_counter()
        model = item.build()
        traj = integrators.multistage_taylor(model, item.order, item.step,
                                             item.t_end)
        elapsed = time.perf_counter() - start
        return elapsed, traj

    def check(self, item: ModelItem, traj) -> list[str]:
        states = traj.states
        if traj.times.size < item.stages + 1 or traj.times[-1] != item.t_end:
            return [f"{traj.times.size - 1} stages ending at {traj.times[-1]:.6g}"]
        limit = multistage_limit(item.family, item.order)
        if item.family == "riccati":
            exact = np.array([riccati_exact(item.state[0], float(t))
                              for t in traj.times])
            err = float(np.max(np.abs(states[:, 0] - exact)
                               / np.maximum(1.0, np.abs(exact))))
            if err > limit:
                return [f"path off the closed form by {err:.3g}"]
        elif item.family == "lotka_volterra":
            drift = _lv_drift(item, states[:, 0], states[:, 1])
            if drift > limit:
                return [f"first integral drifts by {drift:.3g}"]
        else:
            total = states.sum(axis=1)
            drift = float(np.max(np.abs(total - total[0]))) / total[0]
            if drift > MULTISTAGE_SIR_DRIFT:
                return [f"total population drifts by {drift:.3g}"]
            x, y = states[:, 0], states[:, 1]
            if not np.all(x > 0):
                return ["non-positive susceptibles"]
            model = item.build()
            exact_y = np.array([sir_y_of_x(float(v), model) for v in x])
            err = float(np.max(np.abs(y - exact_y))) / item.state[0]
            if err > limit:
                return [f"infectives off the exact y(x) relation by {err:.3g}"]
        return []


WORKLOADS = {"reproduce": Reproduce, "highorder": HighOrder,
             "multistage": Multistage}
