"""Command line entry points.

Verbs:
  run <config>    execute one scenario file
  figure <id>     write one demonstration figure (fig1..fig4)
  report-all      run every bundled preset and aggregate one table
  radius          quick radius queries for the scalar quadratic model
  endpoints       quick epidemic endpoint queries

Exit codes: 0 all report rows pass, 1 some row failed, 2 bad config/usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from pathlib import Path

from .convergence import RATIO_WINDOW, estimate_radius, riccati_radius
from .csvout import write_csv
from .exact import sir_endpoints
from .figures import FIGURE_IDS, reproduce_figure
from .integrators import REFERENCE_TOL, TOL_RANGE
from .models import build_riccati, make_model
from .report import CSV_COLUMNS
from .scenario import (ESTIMATE_ORDER, load_preset, preset_names, run_scenario,
                       validate_config)
from .series import generate_taylor_solution


def order(text: str, least: int = 1) -> int:
    """``--order``: a series order, at least 1 as a config file's."""
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}")
    return value


def ratio_order(text: str) -> int:
    """``radius --order``: a series order the ratio test can read."""
    return order(text, least=RATIO_WINDOW)


def tolerance(text: str) -> float:
    """``--tol``: a tolerance that ``reference_integrate`` accepts."""
    value = float(text)
    lo, hi = TOL_RANGE
    if not (lo <= value <= hi):
        raise argparse.ArgumentTypeError(f"must lie in [{lo:g}, {hi:g}]")
    return value


def _add_common(parser, overrides=True):
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--format", dest="fmt", default="both",
                        choices=("csv", "svg", "both"),
                        help="artifact formats to write")
    if overrides:  # a figure draws its preset as the preset stands
        parser.add_argument("--order", type=order, default=None,
                            help="override the series order")
        parser.add_argument("--tol", type=tolerance, default=REFERENCE_TOL,
                            help="reference integrator tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serieslab",
        description="Power-series solutions of three nonlinear benchmark "
                    "models: radii of convergence, exact solutions, and "
                    "piecewise restarts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario config file")
    run_p.add_argument("config", help="path to a scenario .ini file, or a "
                                      f"preset name ({', '.join(preset_names())})")
    _add_common(run_p)

    fig_p = sub.add_parser("figure", help="reproduce one demonstration figure")
    fig_p.add_argument("id", choices=FIGURE_IDS)
    _add_common(fig_p, overrides=False)

    all_p = sub.add_parser("report-all",
                           help="run every bundled preset, aggregate a table")
    _add_common(all_p)

    rad_p = sub.add_parser("radius", help="radius queries for the scalar model")
    rad_p.add_argument("--y0", type=float, required=True, help="initial value")
    # older argparse reads a negative number in exponent form, such as
    # -1e200, as an option name; this pattern lets it through as a value
    rad_p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")
    rad_p.add_argument("--order", type=ratio_order, default=ESTIMATE_ORDER, help=(
        f"series order for the ratio estimate, at least {RATIO_WINDOW}"))

    end_p = sub.add_parser("endpoints", help="epidemic endpoint queries")
    end_p.add_argument("--beta", type=float, required=True)
    end_p.add_argument("--gamma", type=float, required=True)
    end_p.add_argument("--x0", type=float, required=True)
    end_p.add_argument("--y0", type=float, required=True)
    end_p.add_argument("--z0", type=float, default=0.0)

    return parser


def _load_config(spec: str):
    path = Path(spec)
    if path.is_file():
        return validate_config(path.read_text(encoding="utf-8"))
    if spec in preset_names():
        return load_preset(spec)
    return [f"config: no such file or preset: {spec}"]


def _override_order(config, order):
    return config if order is None else replace(config, series_order=order)


def cmd_run(args) -> int:
    config = _load_config(args.config)
    if isinstance(config, list):
        for problem in config:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    config = _override_order(config, args.order)
    report = run_scenario(config, args.out, fmt=args.fmt, tol=args.tol)
    print(report.to_text())
    print(f"artifacts written under {Path(args.out) / config.name}")
    return 0 if report.all_passed else 1


def cmd_figure(args) -> int:
    files = reproduce_figure(args.id, args.out, fmt=args.fmt)
    for f in files:
        print(f)
    return 0


def cmd_report_all(args) -> int:
    reports = []
    for name in preset_names():
        config = _override_order(load_preset(name), args.order)
        reports.append(run_scenario(config, args.out, fmt=args.fmt,
                                    tol=args.tol))
    rows = [(report.scenario, *row.csv_cells())
            for report in reports for row in report.rows]
    out = Path(args.out)
    write_csv(out / "report_all.csv", ("scenario", *CSV_COLUMNS),
              rows, meta={"presets": " ".join(preset_names())})
    lines = []
    n_pass = 0
    for report in reports:
        for row in report.rows:
            status = "pass" if row.passed else "FAIL"
            n_pass += row.passed
            lines.append(f"{status:4s}  {report.scenario:14s} {row.quantity}")
    summary = (f"{n_pass}/{len(rows)} rows passed across "
               f"{len(reports)} presets")
    (out / "report_all.txt").write_text(
        "\n".join(lines + ["", summary]) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print()
    print(summary)
    return 0 if all(r.all_passed for r in reports) else 1


def cmd_radius(args) -> int:
    try:
        report = riccati_radius(args.y0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"closed-form radius: {report.radius:.6g}  ({report.detail})")
    try:
        sol = generate_taylor_solution(build_riccati(args.y0), args.order)
        est = estimate_radius(sol.components[0])
        print(f"ratio-test estimate at order {args.order}: "
              f"{est.radius:.6g}  ({est.detail})")
    except ValueError as exc:
        # NotEstimableError for a degenerate tail; a start so large that the
        # series overflows fails with "coefficients must be finite"
        print(f"ratio-test estimate unavailable: {exc}")
    if args.y0 == 0.0:
        from .convergence import MULTISTAGE_RADIUS_FLOOR
        print(f"restart radius floor: {MULTISTAGE_RADIUS_FLOOR:.6g} "
              "(restart steps must stay well below this)")
    return 0


def cmd_endpoints(args) -> int:
    try:
        model = make_model("sir", {"beta": args.beta, "gamma": args.gamma},
                           [args.x0, args.y0, args.z0])
        ends = sir_endpoints(model)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"epidemic_occurs: {ends.epidemic_occurs}")
    print(f"x_limit: {ends.x_limit:.6g} (susceptibles as infectives die out)")
    if ends.epidemic_occurs:
        print(f"x_over:  {ends.x_over:.6g} (susceptibles when infectives "
              "return to their initial count)")
        print(f"x_peak:  {ends.x_peak:.6g} (gamma/beta)")
        print(f"y_peak:  {ends.y_peak:.6g} (infectives at the peak)")
    else:
        print("no epidemic: the infective count only decreases")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "figure": cmd_figure,
        "report-all": cmd_report_all,
        "radius": cmd_radius,
        "endpoints": cmd_endpoints,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
