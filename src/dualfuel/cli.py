"""Command-line front end.

Subcommands: gen-data, calibrate, validate, simulate, sensitivity,
noise-study. All file outputs are CSV (plus small JSON/text sidecars).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import calib, harness, scenarios
from .core import (
    default_coefficients,
    default_geometry,
    load_coefficients,
    save_coefficients,
)
from .plant import PlantConfig


def _add_common(p, seed=True, out=True):
    if seed:
        p.add_argument("--seed", type=int, default=0)
    if out:
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
    p.add_argument("--coeffs", type=Path, default=None,
                   help="model coefficient JSON (default: shipped calibration)")


def _case_number(text):
    # --case takes one or more values, so a scenario file after them lands here
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a case number; a scenario file cannot go with --case") from None


def _coeffs(args):
    if args.coeffs is not None:
        return load_coefficients(args.coeffs)
    return default_coefficients()


def _outdir(args) -> Path:
    args.out.mkdir(parents=True, exist_ok=True)
    return args.out


def cmd_gen_data(args):
    cfg = PlantConfig(geom=default_geometry(), coeffs=_coeffs(args))
    samples, misfires = calib.generate_dataset(None, args.samples, cfg,
                                               seed=args.seed)
    if not samples:
        raise ValueError(f"all {misfires} samples misfired; no dataset written")
    out = _outdir(args) / "dataset.csv"
    calib.write_dataset(out, samples)
    print(f"wrote {len(samples)} samples to {out} ({misfires} misfires excluded)")
    return 0


def cmd_calibrate(args):
    options = calib.CalibrationOptions(max_iters=args.max_iters, tol=args.tol)
    dataset = calib.read_dataset(args.data)
    train, holdout = calib.split_dataset(dataset, args.holdout_frac, args.seed)
    report, coeffs = calib.calibrate(_coeffs(args), train,
                                     default_geometry(), options)
    # holdout statistics come before any output, so a failure writes nothing
    try:
        stats = calib.validate(coeffs, holdout, default_geometry()) if holdout else None
    except ValueError as exc:   # DomainError is a ValueError
        raise ValueError(f"holdout: {exc}") from None
    out = _outdir(args)
    save_coefficients(out / "coefficients.json", coeffs)
    calib.write_report_csv(out / "calibration_report.csv", report)
    summary = calib.write_report_summary(out / "calibration_summary.txt", report)
    print(f"calibrated on {len(train)} samples\n{summary}", end="")
    if stats is not None:
        print(f"holdout ({stats.n_samples}): CA50 err std {stats.ca50_err_std:.6f} "
              f"max {stats.ca50_err_max:.6f} CAD")
    print(f"wrote coefficients.json, calibration_report.csv, "
          f"calibration_summary.txt to {out}")
    return 0


def cmd_validate(args):
    dataset = calib.read_dataset(args.data)
    stats = calib.validate(_coeffs(args), dataset, default_geometry())
    print(f"n = {stats.n_samples}")
    print(f"SOC  error std {stats.soc_err_std:.4f}  max {stats.soc_err_max:.4f} CAD  "
          f"within +/-1 CAD: {100 * stats.soc_within_1cad:.1f}%")
    print(f"CA50 error std {stats.ca50_err_std:.4f}  max {stats.ca50_err_max:.4f} CAD  "
          f"within +/-1 CAD: {100 * stats.ca50_within_1cad:.1f}%")
    return 0


def cmd_simulate(args):
    if args.case is not None:
        # a repeated value would rerun a run and rewrite its files
        for flag, values in (("--case", args.case), ("--controller", args.controller or ())):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{flag} {repeated[0]} is given more than once")
        runs = [(f"case{n}_{c}", scenarios.builtin_case(n, controller=c, seed=args.seed))
                for n in args.case for c in args.controller or ["adaptive"]]
    elif args.controller is not None:
        raise ValueError("--controller is for --case runs; a scenario file names its controller")
    else:
        runs = [(Path(args.scenario).stem, scenarios.load_scenario(args.scenario))]
    coeffs = _coeffs(args)
    for name, scenario in runs:
        try:
            records, summary = harness.run_scenario(scenario, ctrl_coeffs=coeffs)
            if not (summary.segments or summary.misfired):
                raise ValueError(f"no fired cycle (cycles run: {len(records)}, the first "
                                 f"{harness.WARMUP_CYCLES} are motored); no output written")
        except ValueError as exc:   # DomainError is a ValueError
            raise ValueError(f"{name}: {exc}") from None
        out = _outdir(args)
        harness.write_records_csv(out / f"{name}_records.csv", records)
        print(harness.write_summary_txt(out / f"{name}_summary.txt", summary), end="")
        print(f"wrote {len(records)} cycles to {out / (name + '_records.csv')}")
    return 0


def cmd_sensitivity(args):
    dataset = calib.read_dataset(args.data)
    rows = harness.run_sensitivity(_coeffs(args), dataset, default_geometry())
    out = _outdir(args) / "sensitivity.csv"
    harness.write_sensitivity_csv(out, rows)
    for r in rows:
        tag = "baseline" if r.quantity == "none" else f"{r.quantity} {r.delta:+g} ({r.mode})"
        print(f"{tag:24s} std {r.ca50_err_std:.4f}  max {r.ca50_err_max:.4f} CAD")
    print(f"wrote {out}")
    return 0


def cmd_noise_study(args):
    result, records = harness.run_noise_study(
        args.halfwidth, ctrl_coeffs=_coeffs(args), seed=args.seed)
    out = _outdir(args) / "noise_records.csv"
    harness.write_records_csv(out, records)
    print(f"noise halfwidth {result.halfwidth} CAD over {result.n_cycles} cycles: "
          f"actual CA50 error std {result.err_std:.4f}, max {result.err_max:.4f} CAD")
    print(f"wrote {out}")
    return 0


@functools.cache
def _parser():
    """The argument parser, built on first use and reused by every main call."""
    parser = argparse.ArgumentParser(prog="dualfuel",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a plant reference dataset")
    p.add_argument("--samples", type=int, default=1054)
    _add_common(p)

    p = sub.add_parser("calibrate", help="fit model coefficients to a dataset")
    p.add_argument("--data", type=Path, required=True, help="dataset CSV")
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--holdout-frac", type=float, default=0.2,
                   help="fraction reserved for holdout statistics")
    _add_common(p)

    p = sub.add_parser("validate", help="prediction-error statistics on a dataset")
    p.add_argument("--data", type=Path, required=True, help="dataset CSV")
    _add_common(p, seed=False, out=False)

    p = sub.add_parser("simulate", help="closed-loop scenario runs")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("scenario", nargs="?", default=None, help="scenario JSON")
    source.add_argument("--case", type=_case_number, choices=range(1, 7), nargs="+", default=None,
                        help="built-in benchmark transients, run in the order given")
    p.add_argument("--controller", choices=scenarios.CONTROLLERS, nargs="+", default=None,
                   help="controllers for --case runs, for each case in this order [adaptive]")
    _add_common(p)

    p = sub.add_parser("sensitivity", help="one-at-a-time input perturbation study")
    p.add_argument("--data", type=Path, required=True, help="dataset CSV")
    _add_common(p, seed=False)

    p = sub.add_parser("noise-study", help="adaptive loop under CA50 measurement noise")
    p.add_argument("--halfwidth", type=float, default=0.5,
                   help="uniform noise halfwidth [CAD]")
    _add_common(p)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up per call, so a replaced cmd_<name> is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (ValueError, OSError) as exc:   # DomainError is a ValueError
        print(f"dualfuel {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
