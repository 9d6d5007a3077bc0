"""A seeded sweep over random valid scenario configs, and the configs that
such sweeps found hanging or failing on correct work.

Every config must end in a report with no warning, and a NaN computed
value may stand only in an error row that names its exception class.
Rows are not asserted to pass: a series summed beyond its radius is
supposed to fail its rows.
"""

import math
import re
import warnings

import numpy as np

from conftest import run_in_child

from serieslab.cli import main
from serieslab.exact import sir_endpoints
from serieslab.integrators import MAX_STAGES
from serieslab.models import MODELS, RICCATI_STATIONARY, RICCATI_UNSTABLE
from serieslab.report import ERROR_CRITERION
from serieslab.scenario import ANALYSES, _Runner, run_scenario, validate_config

from test_exact import endpoint_tol_bound, sir_roots_50_digits

#: the reference stays within an ulp of the float 1 - sqrt(2), so the
#: overview's y axis spans one ulp
RICCATI_ONE_ULP_SPAN = """\
[scenario]
name = riccati-one-ulp
model = riccati

[model]
initial_state = -0.41421356237309515

[grid]
t_end = 0.15
samples = 401

[analyses]
items = radius
"""

#: t_end / step far above MAX_STAGES: below half an ulp of t a stage no
#: longer moves t
TINY_STEP = """\
[scenario]
name = tiny-step
model = riccati

[model]
initial_state = 0.0

[grid]
t_end = 1.0

[multistage]
step = 1e-17
"""

#: both endpoint roots lie near 700, where the residual bound used to
#: divide by x
LARGE_ROOTS_SIR = """\
[scenario]
name = large-roots
model = sir

[model]
initial_state = 234948, 565, 0.11

[model.params]
beta = 0.0345
gamma = 1394

[grid]
t_end = 1.0

[analyses]
items = radius, endpoints
"""


def test_an_ulp_wide_overview_axis_renders(tmp_path):
    # the tick ladder of that axis used to loop forever
    out = run_in_child(
        "from serieslab.scenario import run_scenario, validate_config\n"
        f"config = validate_config({RICCATI_ONE_ULP_SPAN!r})\n"
        f"print(run_scenario(config, {str(tmp_path)!r}, fmt='svg').scenario)")
    assert out == "riccati-one-ulp\n"
    assert (tmp_path / "riccati-one-ulp" / "timeseries.svg").is_file()


def test_a_step_past_the_stage_cap_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "tiny-step.ini"
    path.write_text(TINY_STEP)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"config error: multistage.step: t_end / step must be at most {MAX_STAGES}\n")
    assert not (tmp_path / "out").exists()
    # at the cap the config stands
    at_cap = TINY_STEP.replace("step = 1e-17", f"step = {1.0 / MAX_STAGES!r}")
    assert validate_config(at_cap).multistage.step == 1.0 / MAX_STAGES


def test_the_stage_cap_skips_a_step_or_t_end_already_rejected():
    for old, new, error in (
            ("step = 1e-17", "step = 0", "multistage.step: must be positive"),
            ("t_end = 1.0", "t_end = -1.0", "grid.t_end: must be positive"),
            ("t_end = 1.0", "t_end = x", "grid.t_end: not a number: 'x'")):
        assert validate_config(TINY_STEP.replace(old, new)) == [error]


def test_endpoint_rows_pass_on_roots_far_above_one():
    runner = _Runner(validate_config(LARGE_ROOTS_SIR))
    rows = {row.quantity: row for row in runner.run().rows}
    assert rows["x_limit"].passed and rows["x_over"].passed
    ends = sir_endpoints(runner.model)
    exact = sir_roots_50_digits(0.0345, 1394.0, 234948.0, 565.0)
    for value, root in zip((ends.x_limit, ends.x_over), exact):
        assert 700 < value < 720
        assert float(abs(value - root) / root) < endpoint_tol_bound(root, 234948.0)


def random_config(rng):
    """One valid config: a family with rates log-uniform in [1e-4, 1e4];
    a start at 0, on axes, at a stationary state or log-uniform up to 1e6;
    a series order of 1 to 40; a random share of the analyses that apply;
    and, half the time, a [multistage] step log-uniform in [1e-3, 1]."""
    family = ("riccati", "lotka_volterra", "sir")[rng.integers(3)]
    spec = MODELS[family]
    rates = {k: 10.0 ** rng.uniform(-4, 4) for k in spec.params}
    kind = rng.integers(4)
    if family == "riccati":
        sign = 1.0 if rng.integers(2) else -1.0
        start = [(0.0, RICCATI_STATIONARY, RICCATI_UNSTABLE,
                  sign * 10.0 ** rng.uniform(-4, 6))[kind]]
    else:
        start = 10.0 ** rng.uniform(-4, 6, len(spec.components))
        if kind == 0:
            start[:] = 0.0
        elif kind == 1:
            start[rng.random(len(start)) < 0.5] = 0.0
        elif kind == 2 and family == "lotka_volterra":
            start = [rates["c"] / rates["d"], rates["a"] / rates["b"]]
        elif kind == 2:
            start[1] = 0.0  # no infectives: every state stays put
    analyses = [a for a, families in ANALYSES.items()
                if family in families and rng.integers(2)]
    text = (f"[scenario]\nname = random\nmodel = {family}\n"
            f"[model]\ninitial_state = {', '.join(repr(float(v)) for v in start)}\n"
            "[model.params]\n" + "".join(f"{k} = {v!r}\n" for k, v in rates.items())
            + f"[series]\norder = {rng.integers(1, 41)}\n"
            f"[grid]\nt_end = {10.0 ** rng.uniform(-2, 1)!r}\n"
            f"samples = {rng.integers(2, 102)}\n"
            f"[analyses]\nitems = {', '.join(analyses)}\n")
    if rng.integers(2):
        text += (f"[multistage]\norder = {rng.integers(2, 9)}\n"
                 f"step = {10.0 ** rng.uniform(-3, 0)!r}\n")
    return text


#: 500 configs, which run in about 8 s on a 2-core VM, 3.7 s of it one
#: predator-prey config of about 2000 orbits; the stage-cap config runs
#: at the cap, since past it the config is rejected
SWEEP_SEED, SWEEP_SIZE = 2009, 500


def run_sweep(out):
    rng = np.random.default_rng(SWEEP_SEED)
    texts = [random_config(rng) for _ in range(SWEEP_SIZE)]
    texts += [RICCATI_ONE_ULP_SPAN, LARGE_ROOTS_SIR,
              TINY_STEP.replace("step = 1e-17", f"step = {1.0 / MAX_STAGES!r}")]
    for text in texts:
        config = validate_config(text)
        assert not isinstance(config, list), (config, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_scenario(config, out, fmt="both")
        for row in report.rows:
            if isinstance(row.computed, float) and math.isnan(row.computed):
                assert row.criterion == ERROR_CRITERION, (row, text)
                assert re.match(r"error: \w+Error: ", row.source), (row, text)


def test_random_valid_configs_end_in_reports(tmp_path):
    # in a child, so that a config that hangs fails this test, not the suite
    run_in_child(f"from test_config_sweep import run_sweep\nrun_sweep({str(tmp_path)!r})",
                 timeout=120)
