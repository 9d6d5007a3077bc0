"""Tests of the benchmark itself: a tiny run of each workload, the tracer,
and one check per workload shown to reject a corrupted result.

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from serieslab import integrators, series  # noqa: E402
from serieslab.integrators import Trajectory  # noqa: E402
from serieslab.series import SeriesSolution, TruncatedSeries  # noqa: E402
from tracing import Tracer  # noqa: E402

QUICK_VERBS = [("run", "riccati-zero"), ("figure", "fig4")]


def tiny(name, tmp_path):
    if name == "reproduce":
        workload = workloads.Reproduce(3, tmp_path)
        workload.items = list(QUICK_VERBS)
        return workload
    if name == "highorder":
        return workloads.HighOrder(3, pool=3)
    return workloads.Multistage(3, pool=3, stage_range=(60, 90))


def family_item(workload, family):
    return next(item for item in workload.items if item.family == family)


@pytest.mark.parametrize("name", ["reproduce", "highorder", "multistage"])
def test_smoke_round_passes_every_check(name, tmp_path):
    workload = tiny(name, tmp_path)
    loop = run.run_rounds(workload, 0.0, np.random.default_rng(0))
    assert loop.rounds == 1
    assert loop.attempted == len(workload.items) == len(loop.latencies)
    assert loop.failed == 0, loop.failures
    metrics, tail = run.end_to_end_metrics(loop, [0.5], workload.TAIL_PERCENTILE)
    assert metrics["ops_per_s"][0] > 0
    assert tail["tail_samples"] == loop.attempted


def test_inputs_repeat_for_a_seed_and_change_with_it():
    first = workloads.HighOrder(5, pool=6).items
    assert first == workloads.HighOrder(5, pool=6).items
    assert first != workloads.HighOrder(6, pool=6).items


def test_traced_counts_are_per_round_and_exact(tmp_path):
    workload = tiny("highorder", tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        assert series.generate_taylor_solution.__wrapped__ is not None
        loop = run.run_rounds(workload, 0.05, np.random.default_rng(0), tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(series.generate_taylor_solution, "__wrapped__")
    metrics = run.layer_metrics(tracer, loop, 1.0, 1.0)
    assert metrics["series.taylor_coefficients.calls"][0] == 3
    dims = sum(len(item.state) for item in workload.items)
    assert metrics["convergence.estimate_radius.calls"][0] == dims
    assert metrics["models.evaluate.calls"][0] == 0


def test_nested_calls_are_traced_through_reimported_names(tmp_path):
    workload = workloads.Reproduce(3, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        _, result = workload.execute(("run", "riccati-zero"))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert workload.check(("run", "riccati-zero"), result) == []
    assert tracer.calls("integrators.reference_integrate") == 1
    assert tracer.calls("scipy.solve_ivp") == 1
    assert tracer.counts["models.evaluate.in_reference"] == tracer.calls("models.evaluate") > 0
    names = {span[0]: i for i, span in enumerate(tracer.spans)}
    parent = tracer.spans[names["integrators.reference_integrate"]][3]
    assert tracer.spans[parent][0] == "scenario.run_scenario"
    assert tracer.self_time("scenario.run_scenario") < tracer.total("scenario.run_scenario")


def test_reproduce_rejects_a_flipped_artifact_byte(tmp_path):
    workload = workloads.Reproduce(3, tmp_path)
    item = ("figure", "fig4")
    _, result = workload.execute(item)
    assert workload.check(item, result) == []
    _, result = workload.execute(item)
    target = sorted(result[2].glob("*.csv"))[0]
    data = bytearray(target.read_bytes())
    data[-2] ^= 0x01
    target.write_bytes(bytes(data))
    problems = workload.check(item, result)
    assert any("bytes differ" in p for p in problems)


def test_reproduce_rejects_a_missing_report_row(tmp_path):
    workload = workloads.Reproduce(3, tmp_path)
    out = tmp_path / "empty"
    out.mkdir()
    (out / "report_all.txt").write_text("x\n")
    problems = workload.check(("report-all",), (1, "44/45 rows passed", out))
    assert "exit code 1" in problems
    assert any("45/45" in p for p in problems)


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_highorder_rejects_a_perturbed_coefficient(family, tmp_path):
    workload = tiny("highorder", tmp_path)
    item = family_item(workload, family)
    _, (solution, radii, grid, values) = workload.execute(item)
    assert workload.check(item, (solution, radii, grid, values)) == []
    rows = [c.coefficients.copy() for c in solution.components]
    rows[-1][2] *= 1.0 + 1e-6
    bad = SeriesSolution(tuple(TruncatedSeries(r) for r in rows), solution.model)
    bad_values = np.vstack([series.eval_series(c, grid) for c in bad.components])
    assert workload.check(item, (bad, radii, grid, bad_values))


@pytest.mark.parametrize("family", workloads.FAMILIES)
def test_multistage_rejects_a_perturbed_state(family, tmp_path):
    workload = tiny("multistage", tmp_path)
    item = family_item(workload, family)
    _, traj = workload.execute(item)
    assert workload.check(item, traj) == []
    # triple the second half: over an orbit, d*x + b*y averages a + c, so
    # the predator-prey integral moves by at least (2 - ln 3) * (a + c)
    states = traj.states.copy()
    states[len(states) // 2:] *= 3.0
    bad = Trajectory(traj.times, states, traj.provenance, traj.meta)
    assert workload.check(item, bad)


@pytest.mark.parametrize("family", ["riccati", "sir"])
def test_multistage_rejects_a_wrong_mid_path_state(family, tmp_path):
    workload = tiny("multistage", tmp_path)
    item = family_item(workload, family)
    _, traj = workload.execute(item)
    states = traj.states.copy()
    mid = len(states) // 2
    if family == "riccati":
        # |y| <= 4 on these paths, so the relative error is at least 1/4
        states[mid, 0] += 1.0
    else:
        # move half the susceptibles to the infectives: the total is kept,
        # but y(x) is off by (gamma/beta) * ln 2 >= 0.17 * x0
        states[mid, :2] += np.array([-0.5, 0.5]) * states[mid, 0]
    bad = Trajectory(traj.times, states, traj.provenance, traj.meta)
    assert np.array_equal(bad.states[-1], traj.states[-1])
    assert workload.check(item, bad)


def test_divergence_counts_as_a_failed_op(tmp_path, monkeypatch):
    workload = tiny("multistage", tmp_path)

    def diverge(*args, **kwargs):
        raise integrators.DivergenceError("diverged", step_index=0)

    monkeypatch.setattr(integrators, "multistage_taylor", diverge)
    loop = run.run_rounds(workload, 0.0, np.random.default_rng(0))
    assert loop.failed == loop.attempted == 3


def test_a_failed_op_makes_the_command_exit_nonzero(capsys):
    loop = run.Loop()
    loop.attempted, loop.latencies = 2, [0.1]
    loop.fail("item", "bad output")
    args = run.parse_args(["--workload", "highorder", "--seed", "4"])
    metrics, _ = run.end_to_end_metrics(loop, [0.5], 50.0)
    assert run.emit(args, [loop], metrics, {}) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "highorder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
