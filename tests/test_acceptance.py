"""Acceptance gate: every quantitative claim this lab reproduces, each one
checked at its stated tolerance and reported as a single pass/fail line
(run with -s to see them)."""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from serieslab.cli import main
from serieslab.convergence import riccati_radii, riccati_radius
from serieslab.exact import lv_conserved, riccati_exact, sir_endpoints
from serieslab.figures import polyline_self_intersects
from serieslab.integrators import (
    multistage_taylor,
    reference_integrate,
    sample_series,
)
from serieslab.models import RICCATI_STATIONARY, build_riccati, make_model
from serieslab.series import eval_series, generate_taylor_solution


def check(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number:2d}: {status}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def lv_case_v():
    return make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0])


def sir_slow():
    return make_model("sir", dict(beta=0.01, gamma=0.02), [20.0, 15.0, 10.0])


def test_01_radius_zero_start():
    radius = riccati_radius(0.0).radius
    check(1, abs(radius - 1.2736) <= 0.001,
          f"series radius from a zero start = {radius:.6f} (target 1.2736 +/- 0.001)")


def test_02_radius_start_at_five():
    radius = riccati_radius(5.0).radius
    check(2, abs(radius - 0.261) <= 0.001,
          f"series radius from a start at 5 = {radius:.6f} (target 0.261 +/- 0.001)")


def test_03_restart_radius_floor():
    floor = math.sqrt(2.0) * math.pi / 4.0
    result = minimize_scalar(lambda t: riccati_radii(0.0, t),
                             bounds=(0.0, 10.0), method="bounded",
                             options={"xatol": 1e-12})
    coarse = float(np.min(riccati_radii(0.0, np.linspace(0.0, 10.0, 4001))))
    smallest = min(float(result.fun), coarse)
    ok = abs(smallest - floor) <= 1e-4 and abs(smallest - 1.1107) <= 1e-4
    check(3, ok, f"min restart radius on [0, 10] = {smallest:.6f} "
                 f"(target sqrt(2)*pi/4 = {floor:.6f} +/- 1e-4)")


def test_04_stationary_state_reached():
    exact_err = abs(riccati_exact(0.0, 10.0) - RICCATI_STATIONARY)
    stepped = multistage_taylor(build_riccati(0.0), 5, 0.2, 10.0)
    stepped_err = abs(stepped.states[-1, 0] - RICCATI_STATIONARY)
    ok = exact_err < 1e-6 and stepped_err < 1e-6
    check(4, ok, f"errors against 1+sqrt(2) at t=10: exact {exact_err:.2e}, "
                 f"piecewise order-5 step-0.2 {stepped_err:.2e} (both < 1e-6)")


def test_05_series_useless_beyond_radius():
    sol = generate_taylor_solution(build_riccati(0.0), 30)
    err_inside = abs(eval_series(sol.components[0], 1.0) - riccati_exact(0.0, 1.0))
    err_outside = abs(eval_series(sol.components[0], 1.5) - riccati_exact(0.0, 1.5))
    ratio = err_outside / err_inside
    check(5, ratio > 1e3,
          f"order-30 error grows {ratio:.3g}x from t=1.0 to t=1.5 (need > 1e3)")


def test_06_epidemic_endpoints():
    ends = sir_endpoints(sir_slow())
    ok = (
        abs(ends.x_limit - 5.02e-7) / 5.02e-7 <= 0.01
        and abs(ends.x_over - 9.08e-4) / 9.08e-4 <= 0.01
        and ends.x_peak == 2.0
        and abs(ends.y_peak - 28.39) <= 0.01
    )
    check(6, ok, f"x_limit={ends.x_limit:.4g} (5.02e-7 +/- 1%), "
                 f"x_over={ends.x_over:.4g} (9.08e-4 +/- 1%), "
                 f"x_peak={ends.x_peak} (= 2 exactly), "
                 f"y_peak={ends.y_peak:.4f} (28.39 +/- 0.01)")


def test_07_population_conservation():
    sol = generate_taylor_solution(sir_slow(), 10)
    coeffs = np.vstack([comp.coefficients for comp in sol.components])
    worst_order = float(np.max(np.abs(coeffs[:, 1:].sum(axis=0))))
    tr = reference_integrate(sir_slow(), 100.0, 1e-10,
                             grid=np.linspace(0.0, 100.0, 401))
    drift = float(np.max(np.abs(tr.states.sum(axis=1) - 45.0)))
    ok = worst_order < 1e-12 and drift < 1e-8
    check(7, ok, f"coefficient sums k=1..10 <= {worst_order:.2e} (< 1e-12), "
                 f"reference population drift {drift:.2e} over [0,100] (< 1e-8)")


def test_08_conservation_and_its_violation():
    model = lv_case_v()
    h0 = lv_conserved(3.0, 2.0, 1, 1, 1, 1)
    ref = reference_integrate(model, 20.0, 1e-10,
                              grid=np.linspace(0.0, 20.0, 801))
    drift = max(abs(lv_conserved(x, y, 1, 1, 1, 1) - h0) for x, y in ref.states)
    sol = generate_taylor_solution(model, 5)
    grid = np.linspace(0.0, 4.0, 401)
    ser = sample_series(sol, grid)
    violation = 0.0
    for x, y in ser.states:
        if x > 0 and y > 0:
            violation = max(violation,
                            abs(lv_conserved(float(x), float(y), 1, 1, 1, 1) - h0))
    curve = sample_series(sol, np.linspace(0.0, 6.0, 601))
    crosses = polyline_self_intersects(curve.states)
    ok = drift < 1e-6 and violation > 1.0 and crosses
    check(8, ok, f"reference invariant drift {drift:.2e} over [0,20] (< 1e-6); "
                 f"order-5 series violates it by {violation:.1f} by t=4 (> 1); "
                 f"series phase curve self-intersects: {crosses}")


def test_09_first_order_coefficients_exact():
    rng = np.random.default_rng(20260810)
    ok = True
    for _ in range(20):
        # dyadic rationals make both groupings exact, so the recursion must
        # reproduce the closed-form first-order coefficients bitwise
        a, b, c, d = (float(v) / 8.0 for v in rng.integers(1, 33, size=4))
        x0, y0 = (float(v) / 16.0 for v in rng.integers(1, 257, size=2))
        model = make_model("lotka_volterra", dict(a=a, b=b, c=c, d=d), [x0, y0])
        sol = generate_taylor_solution(model, 1)
        ok = ok and sol.components[0].coefficients[1] == x0 * (a - b * y0)
        ok = ok and sol.components[1].coefficients[1] == y0 * (d * x0 - c)
    check(9, ok, "20 random parameter sets: first-order coefficients equal "
                 "x0*(a - b*y0) and y0*(d*x0 - c) exactly")


def _fd_taylor(rhs, u0, h, n_points=13, n_coef=7, levels=2):
    """Finite differences of the reference solution: symmetric-stencil
    interpolation with parity-correct Richardson extrapolation."""
    def once(step):
        half = n_points // 2
        ts = np.arange(1, half + 1) * step
        u0a = np.asarray(u0, float)
        fw = solve_ivp(rhs, (0.0, ts[-1] * 1.0001), u0a, method="DOP853",
                       rtol=2.3e-14, atol=1e-18, t_eval=ts)
        bw = solve_ivp(rhs, (0.0, -ts[-1] * 1.0001), u0a, method="DOP853",
                       rtol=2.3e-14, atol=1e-18, t_eval=-ts)
        t_all = np.concatenate([-ts[::-1], [0.0], ts])
        vals = np.vstack([bw.y.T[::-1], u0a[None, :], fw.y.T])
        vander = np.vander(t_all / step, n_points, increasing=True)
        out = np.empty((len(u0), n_coef))
        for j in range(len(u0)):
            coef = np.linalg.solve(vander, vals[:, j])
            out[j] = coef[:n_coef] / step ** np.arange(n_coef)
        return out

    k = np.arange(n_coef)
    power = n_points - k
    # symmetric stencils are only contaminated by same-parity terms
    power = np.where(power % 2 == 0, power, power + 1).astype(float)
    tabs = [once(h / 2**i) for i in range(levels + 1)]
    for level in range(levels):
        fac = 2.0 ** (power + 2 * level)
        tabs = [(fac * tabs[i + 1] - tabs[i]) / (fac - 1.0)
                for i in range(len(tabs) - 1)]
    return tabs[0]


def test_10_coefficients_match_finite_differences():
    cases = [
        ("scalar quadratic", build_riccati(0.0),
         lambda t, u: np.array([1.0 + 2.0 * u[0] - u[0] ** 2]), 0.12),
        ("predator-prey", lv_case_v(),
         lambda t, u: np.array([u[0] * (1.0 - u[1]), -u[1] * (1.0 - u[0])]), 0.08),
        ("epidemic", sir_slow(),
         lambda t, u: np.array([-0.01 * u[0] * u[1],
                                0.01 * u[0] * u[1] - 0.02 * u[1],
                                0.02 * u[1]]), 1.25),
    ]
    worst = 0.0
    for _name, model, rhs, h in cases:
        sol = generate_taylor_solution(model, 8)
        oracle = _fd_taylor(rhs, model.initial_state, h)
        for j, comp in enumerate(sol.components):
            mine = comp.coefficients[:7]
            scale = np.maximum(np.abs(oracle[j]), 1e-6 * np.max(np.abs(oracle[j])))
            worst = max(worst, float(np.max(np.abs(mine - oracle[j]) / scale)))
    check(10, worst < 1e-6,
          f"coefficients 0..6 vs finite differences of the reference "
          f"solution: worst relative deviation {worst:.2e} (< 1e-6)")


def test_11_order_convergence_under_step_halving():
    exact = riccati_exact(0.0, 2.0)
    details = []
    ok = True
    for order in (3, 4, 5):
        errs = [abs(multistage_taylor(build_riccati(0.0), order, step, 2.0)
                    .states[-1, 0] - exact)
                for step in (0.5, 0.25)]
        ratio = errs[0] / errs[1]
        ok = ok and 2 ** (order - 1) <= ratio <= 2 ** (order + 1)
        details.append(f"N={order}: {ratio:.1f}")
    check(11, ok, "halving the step scales the end error by "
                  + ", ".join(details) + " (each within [2^(N-1), 2^(N+1)])")


def test_12_report_all_passes(tmp_path, capsys):
    code = main(["report-all", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr().out
    n_fail = captured.count("FAIL")
    with capsys.disabled():
        check(12, code == 0 and n_fail == 0,
              f"report-all exit code {code}, {n_fail} failing rows "
              "(full desk-scale reproduction)")
    assert (tmp_path / "out" / "report_all.csv").exists()
