#!/usr/bin/env python3
"""Predator-prey dynamics against its order-5 series solution.

True solutions of the two-species system live on closed curves of the
first integral c*ln(x) + a*ln(y) - d*x - b*y.  A truncated time-power
series has no such obligation: it drifts off the level set, crosses its
own path in the phase plane (impossible for a real trajectory), and will
happily report a negative number of animals.

Writes the two phase/population figures next to this script under
demo_output/.  Run from the repository root:  python demos/predator_prey.py
"""

from pathlib import Path

import numpy as np

from serieslab import (
    generate_taylor_solution,
    lv_closed_orbit,
    lv_conserved,
    make_model,
    polyline_self_intersects,
    reference_integrate,
    reproduce_figure,
    sample_series,
)

out_dir = Path(__file__).parent / "demo_output"

print("=" * 72)
print("Balanced orbit: all rates 1, start (3, 2)")
print("=" * 72)
orbit_model = make_model("lotka_volterra", dict(a=1, b=1, c=1, d=1), [3.0, 2.0])
# fixed points: the saddle at the origin and the center at (c/d, a/b)
print("  saddle at (0.0, 0.0), center at (1.0, 1.0)")
period = lv_closed_orbit(orbit_model)[0]
print(f"  orbital period: {period:.4f}")

h0 = lv_conserved(3.0, 2.0, 1, 1, 1, 1)
print(f"  conserved quantity at the start: {h0:.6f}")
ref = reference_integrate(orbit_model, 20.0, 1e-10,
                          grid=np.linspace(0.0, 20.0, 801))
drift = max(abs(lv_conserved(x, y, 1, 1, 1, 1) - h0) for x, y in ref.states)
print(f"  reference trajectory drift over [0, 20]: {drift:.2e}  (stays put)")

series = generate_taylor_solution(orbit_model, 5)
grid = np.linspace(0.0, 6.0, 601)
curve = sample_series(series, grid)
print("\n  the order-5 series, on the other hand:")
for t_mark in (0.5, 1.0, 2.0):
    x, y = curve.states[int(t_mark * 100)]
    value = lv_conserved(float(x), float(y), 1, 1, 1, 1) if x > 0 and y > 0 else None
    label = f"invariant {value:10.3f}" if value is not None else "left the quadrant"
    print(f"    t = {t_mark:3.1f}: (x, y) = ({x:9.3f}, {y:9.3f})  {label}")
print(f"  phase curve crosses itself: "
      f"{polyline_self_intersects(curve.states)} (a true orbit never can)")

print()
print("=" * 72)
print("Predator-dominated crash: prey 14, predators 18, slow predator decay")
print("=" * 72)
crash_model = make_model("lotka_volterra", dict(a=1, b=1, c=0.1, d=1),
                         [14.0, 18.0])
# a positive predator-prey start is integrated in log coordinates, where
# the prey count stays relatively accurate through its 54 orders of decay
ref = reference_integrate(crash_model, 5.0, 1e-10,
                          grid=np.linspace(0.0, 5.0, 501))
print(f"  true prey count at t=5: {ref.states[-1, 0]:.3e}  "
      "(tiny, but strictly positive)")
crash_series = sample_series(generate_taylor_solution(crash_model, 5),
                             np.linspace(0.0, 5.0, 501))
first_neg = crash_series.times[np.argmax(crash_series.states[:, 0] < 0)]
print(f"  series prey count turns negative already at t = {first_neg:.2f}")
print("  (a population model predicting negative animals has stopped being")
print("   a population model)")

print()
print("Writing figures...")
for fig in ("fig1", "fig2"):
    for path in reproduce_figure(fig, out_dir):
        print(f"  {path}")
