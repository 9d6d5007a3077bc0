#!/usr/bin/env python3
"""Where a time-power series stops working, and how restarts fix it.

The scalar quadratic model dY/dt = 1 + 2Y - Y^2 is solved exactly by an
expression with poles in the complex time plane; the pole nearest the
origin caps the radius of convergence of the Taylor series of Y(t).  This
script walks through that story numerically:

    1. closed-form radii for several initial values,
    2. a coefficient-only estimate that recovers them,
    3. the series failing abruptly beyond the radius,
    4. piecewise re-expansion stepping through the barrier.

Run it from the repository root:  python demos/radius_of_convergence.py
"""

import numpy as np

from serieslab import (
    MULTISTAGE_RADIUS_FLOOR,
    RICCATI_STATIONARY,
    build_riccati,
    estimate_radius,
    eval_series,
    generate_taylor_solution,
    multistage_taylor,
    riccati_exact,
    riccati_radii,
    riccati_radius,
)

print("=" * 72)
print("1. The movable singularity: the radius depends on the start")
print("=" * 72)
for y0 in (0.0, 1.0, 3.0, 5.0, 10.0):
    print(f"  Y(0) = {y0:5.1f}  ->  radius {riccati_radius(y0).radius:8.4f}")
print(f"  (starting exactly on the stationary state {RICCATI_STATIONARY:.6f}"
      " gives a constant solution and an infinite radius)")

print()
print("=" * 72)
print("2. The coefficients alone reveal the radius")
print("=" * 72)
for y0 in (0.0, 5.0):
    series = generate_taylor_solution(build_riccati(y0), 30).components[0]
    est = estimate_radius(series)
    true = riccati_radius(y0).radius
    print(f"  Y(0) = {y0:3.0f}: ratio-test estimate {est.radius:.4f}  "
          f"(exact {true:.4f}, off by {abs(est.radius - true) / true:.1%})")
    print(f"             {est.detail}")

print()
print("=" * 72)
print("3. Inside the radius the series is excellent; beyond it, useless")
print("=" * 72)
series30 = generate_taylor_solution(build_riccati(0.0), 30).components[0]
print("      t     exact Y(t)    order-30 series      |error|")
for t in (0.5, 1.0, 1.2, 1.4, 1.6, 2.0):
    exact = riccati_exact(0.0, t)
    approx = eval_series(series30, t)
    print(f"  {t:5.2f}  {exact:12.8f}  {approx:17.6g}  {abs(approx - exact):10.3g}")
print("  The breakdown sits right at the radius 1.2736: no amount of extra")
print("  terms helps past it, because the limit is set by a pole, not by")
print("  the truncation order.")

print()
print("=" * 72)
print("4. Restarting the series every 0.2 time units walks through it")
print("=" * 72)
stepped = multistage_taylor(build_riccati(0.0), order=5, step=0.2, t_end=10.0)
for t_check in (1.0, 2.0, 5.0, 10.0):
    idx = int(np.argmin(np.abs(stepped.times - t_check)))
    err = abs(stepped.states[idx, 0] - riccati_exact(0.0, stepped.times[idx]))
    print(f"  t = {stepped.times[idx]:5.2f}: piecewise error {err:.2e}")
print(f"  end state {stepped.states[-1, 0]:.12f} vs stationary value "
      f"{RICCATI_STATIONARY:.12f}")

print()
print("  Why 0.2 works: the radius of the re-expanded series never drops")
print(f"  below sqrt(2)*pi/4 = {MULTISTAGE_RADIUS_FLOOR:.4f} along this solution:")
restarts = (0.0, 0.62, 2.0, 10.0)
for t, radius in zip(restarts, riccati_radii(0.0, restarts)):
    print(f"    restart at t = {t:5.2f}: local radius {radius:8.4f}")
print("  Any fixed step well below 1.11 keeps every stage inside its disc;")
print("  a step of 2.0 does not, and the iteration visibly diverges.")
try:
    multistage_taylor(build_riccati(0.0), order=5, step=2.0, t_end=10.0)
except Exception as exc:
    print(f"    step 2.0 -> {type(exc).__name__}: {exc}")
