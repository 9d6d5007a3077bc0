"""serieslab benchmark: run one workload for a fixed time, check every
output, and print the metrics as one JSON object on the last line.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics (throughput, median and tail
latency, set-up time, peak memory).  ``--trace 1`` reports the per-layer
metrics instead: half the time runs untraced, half with every serieslab
layer wrapped in spans, and the ratio of the two throughputs is the tracing
overhead.  The package is imported from ``src/`` next to this directory;
the command exits non-zero if any operation fails or any check rejects an
output.  See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import os

# one client thread on a small machine: pin the numeric libraries' pools
# before numpy is imported anywhere in this process or its children
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 1
#: reserved for confirming a claimed gain on inputs it was not tuned on
HELD_OUT_SEED = 20261017

#: fresh processes timed from spawn to their first op; set-up is their median
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120

LAYER_METRICS = (
    ("models.evaluate.calls", "count"),
    ("models.evaluate.self_s", "s"),
    ("integrators.reference_integrate.calls", "count"),
    ("integrators.reference_integrate.self_s", "s"),
    ("integrators.reference_integrate.evals_per_call", "count"),
    ("integrators.reference_solves_per_op", "count"),
    ("figures.lv_orbit_period.calls", "count"),
    ("figures.lv_orbit_period.self_s", "s"),
    ("figures.polyline_self_intersects.self_s", "s"),
    ("series.taylor_coefficients.calls", "count"),
    ("series.taylor_coefficients.self_s", "s"),
    ("series.taylor_coefficients.us_per_call", "us"),
    ("series.eval_series.self_s", "s"),
    ("convergence.estimate_radius.calls", "count"),
    ("convergence.estimate_radius.self_s", "s"),
    ("convergence.estimate_within_tol_ratio", "ratio"),
    ("convergence.riccati_multistage_radius.calls", "count"),
    ("integrators.multistage_taylor.stages", "count"),
    ("integrators.multistage_taylor.self_s", "s"),
    ("integrators.multistage_taylor.us_per_stage", "us"),
    ("exact.sir_y_of_x.calls", "count"),
    ("exact.self_s", "s"),
    ("scenario.run_scenario.self_s", "s"),
    ("scenario.load_preset.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("csvout.write_csv.calls", "count"),
    ("csvout.write_csv.self_s", "s"),
    ("csvout.write_csv.bytes", "bytes"),
    ("csvout.self_s", "s"),
    ("svgplot.LinePlot.write.self_s", "s"),
    ("svgplot.LinePlot.write.bytes", "bytes"),
    ("report.ComparisonReport.write.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("reproduce", "highorder", "multistage"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up, run the warm-up op, print the wall clock and exit
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup(name: str, seed: int, work_dir: Path):
    """Import the package, generate the seeded inputs, and run one warm-up
    op whose output is checked; returns the workload."""
    import workloads

    cls = workloads.WORKLOADS[name]
    workload = cls(seed, work_dir) if name == "reproduce" else cls(seed)
    item = workload.warm_up_item()
    _, result = workload.execute(item)
    problems = workload.check(item, result)
    if problems:
        raise RuntimeError(f"warm-up op {item!r} failed its check: {problems}")
    return workload


def probe_setup(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready to time
    its first op."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1]) - start


class Loop:
    """Outcome of running whole rounds of a workload's items."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.failures: list[str] = []

    def fail(self, item, message: str):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{item!r}: {message}")

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def run_rounds(workload, seconds: float, rng, tracer=None) -> Loop:
    """Run whole rounds, each item once in a freshly shuffled order, until
    another round would overrun ``seconds``.  Only ``execute``'s timed core
    counts as latency; checks run outside it, with tracing off."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        for index in rng.permutation(len(workload.items)):
            item = workload.items[index]
            loop.attempted += 1
            if tracer is not None:
                tracer.op_id = loop.attempted
                tracer.active = True
            try:
                elapsed, result = workload.execute(item)
            except Exception as exc:  # a failed op is counted, not fatal
                loop.fail(item, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.active = False
            loop.latencies.append(elapsed)
            problems = workload.check(item, result)
            if problems:
                loop.fail(item, "; ".join(problems))
        loop.rounds += 1
        used = time.perf_counter() - start
        if used * (loop.rounds + 1) / loop.rounds > seconds:
            return loop


def end_to_end_metrics(loop: Loop, setup_times: list[float],
                       p: float) -> tuple[dict, dict]:
    import numpy as np

    lat = np.array(loop.latencies)
    metrics = {
        "ops_per_s": (loop.ops_per_s, "op/s"),
        "latency_p50_ms": (float(np.median(lat)) * 1e3, "ms"),
        "latency_tail_ms": (float(np.percentile(lat, p)) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    tail = {"tail_percentile": p, "tail_samples": int(lat.size),
            "samples_beyond_tail": int(np.sum(lat > np.percentile(lat, p)))}
    return metrics, tail


def _per_round(total, rounds: int):
    """Per-round value; counts stay integers when every round did the same
    work, which is what lets two traced runs compare them exactly."""
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def layer_metrics(tracer, loop: Loop, overhead: float, quality: float) -> dict:
    """Per-layer metrics of the traced phase, per round of the workload."""
    calls, counts = tracer.calls, tracer.counts
    ref = "integrators.reference_integrate"
    ms = "integrators.multistage_taylor"
    tc = "series.taylor_coefficients"
    units = calls("scenario.run_scenario") + calls("figures.reproduce_figure")

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, unit in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(span)
        elif kind == "self_s":
            values[name] = tracer.self_time(span)
        elif kind in ("bytes", "stages"):
            values[name] = counts[name]
    values = {name: _per_round(value, loop.rounds)
              for name, value in values.items()}
    values.update({
        f"{ref}.evals_per_call": ratio(counts["models.evaluate.in_reference"],
                                       calls(ref)),
        "integrators.reference_solves_per_op": ratio(calls("scipy.solve_ivp"), units),
        f"{tc}.us_per_call": ratio(tracer.total(tc) * 1e6, calls(tc)),
        "convergence.estimate_within_tol_ratio": quality,
        f"{ms}.us_per_stage": ratio(tracer.total(ms) * 1e6, counts[f"{ms}.stages"]),
        "trace.overhead_ratio": overhead,
    })
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "serieslab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".ini"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(args, loops: list[Loop], extra: dict) -> dict:
    import numpy
    import scipy

    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "mode": "traced" if args.trace else "timed",
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "rounds": [loop.rounds for loop in loops],
        "ops": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        **extra,
    }


def emit(args, loops: list[Loop], metrics: dict, extra: dict) -> int:
    info = manifest(args, loops, extra)
    attempted, failed = info["ops"], info["failed"]
    print(f"workload={args.workload} seed={args.seed} mode={info['mode']} "
          f"ops={attempted} failed={failed}")
    for loop in loops:
        for line in loop.failures:
            print(f"FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    print(f"  {'error_rate':48s} {info['error_rate']:.6g} ratio")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "serieslab" / "__init__.py").is_file():
        print(f"error: no serieslab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            setup(args.workload, args.seed, work_dir)
            print(repr(time.time()))
            return 0
        return measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, work_dir: Path) -> int:
    import numpy as np

    setup_times = ([] if args.trace else
                   [probe_setup(args) for _ in range(SETUP_PROBES)])
    workload = setup(args.workload, args.seed, work_dir)
    import serieslab

    if Path(serieslab.__file__).resolve().parent != SRC / "serieslab":
        raise RuntimeError(f"imported serieslab from {serieslab.__file__}")
    rng = np.random.default_rng([args.seed, 0])
    if not args.trace:
        loop = run_rounds(workload, args.seconds, rng)
        metrics, tail = end_to_end_metrics(loop, setup_times,
                                           workload.TAIL_PERCENTILE)
        extra = {"setup_probes_s": setup_times,
                 "ops_per_round": len(workload.items), **tail}
        return emit(args, [loop], metrics, extra)

    from tracing import Tracer

    untraced = run_rounds(workload, args.seconds / 2, rng)
    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    traced = run_rounds(workload, args.seconds / 2, rng, tracer)
    tracer.uninstall()
    # every round checks the same estimates, so the whole run's share is
    # the traced phase's share
    attempts = getattr(workload, "estimates", 0)
    quality = workload.estimates_within_tol / attempts if attempts else 0.0
    spans_file = WORK / f"spans-{args.workload}.tsv"
    tracer.write_spans(spans_file, origin)
    metrics = layer_metrics(tracer, traced, untraced.ops_per_s / traced.ops_per_s,
                            quality)
    extra = {"ops_per_round": len(workload.items),
             "untraced_ops_per_s": untraced.ops_per_s,
             "traced_ops_per_s": traced.ops_per_s,
             "spans_recorded": len(tracer.spans),
             "spans_file": str(spans_file.relative_to(ROOT))}
    return emit(args, [untraced, traced], metrics, extra)


if __name__ == "__main__":
    sys.exit(main())
