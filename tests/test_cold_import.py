"""The series layers load and run without scipy; scipy arrives with the
first reference solve, quadrature, root search or minimisation."""

import json
import subprocess
import sys
from pathlib import Path

import serieslab

SRC = Path(serieslab.__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import serieslab, serieslab.cli
from serieslab import (build_riccati, estimate_radius, eval_series,
                       generate_taylor_solution, make_model, reference_integrate)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

models = [
    build_riccati(0.3),
    make_model("lotka_volterra", dict(a=1.0, b=1.0, c=1.0, d=1.0), [3.0, 2.0]),
    make_model("sir", dict(beta=0.01, gamma=0.02), [20.0, 15.0, 10.0]),
]
for model in models:
    for comp in generate_taylor_solution(model, 60).components:
        estimate_radius(comp)
        eval_series(comp, [0.0, 0.1, 0.2])
code = serieslab.cli.main(["radius", "--y0", "0.3"])
cold = scipy_modules()
trajectory = reference_integrate(models[0], 1.0, 1e-10)
print(json.dumps({"code": code, "cold": cold, "after": scipy_modules(),
                  "samples": len(trajectory.times)}))
"""


def test_series_layers_run_without_scipy_until_a_reference_solve():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0
    assert result["cold"] == []
    assert "scipy.integrate" in result["after"]
    assert result["samples"] == 401
