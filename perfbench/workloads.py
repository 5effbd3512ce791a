"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup`` (timed
as set-up), runs one repetition in ``run`` (timed), and checks a
repetition's outputs in ``check`` (not timed) against properties that do not
depend on how the package computes them. ``digests`` hashes the files a user
would keep from a repetition, so that a change in bit-identity shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

DATASET_SAMPLES = 1054          # ROADMAP's reference dataset size
INTEGRAL_TOL = 1e-6             # |integral at the reported SOC - 1|, as criterion C5 states
HOLDOUT_FRAC = 0.2
C6_MAX_ITERS = 500              # criterion C6 options: 500 iterations, tol 0

# criteria C3/C4 on the built-in cases: steady |error| of the adaptive and
# feedforward loops [CAD], and adaptive settling on case 1 [cycles]
STEADY_ADAPTIVE = 0.15
STEADY_FEEDFORWARD = 1.5
SETTLE_ADAPTIVE_CASE1 = 5

# the coefficients criterion C3/C4 run with: the C6 fit of the shipped set to
# the 1054-sample seed-3 plant dataset over all samples, saved by
# dualfuel.save_coefficients
CONTROLLER_COEFFS = HERE / "data" / "c6_coefficients.json"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def steady_error(summary) -> float:
    return max(max(abs(s.err_min), abs(s.err_max)) for s in summary.segments)


class Workload:
    """Defaults for the optional parts of a workload."""

    def prepare(self):
        """Untimed work before each repetition."""

    def op_times(self, out) -> list:
        """Per-operation times [us] of one repetition, where they exist."""
        return []

    def attribution(self, first) -> list:
        """(per-layer metric, exact value per repetition) that a correct
        span wiring must give."""
        return []

    def report(self, walls, first, op_times) -> list:
        """(name, value, unit) rows named after the workload's own units."""
        return []


class Dataset(Workload):
    """calib.generate_dataset over the default SampleRanges box."""

    name = "dataset"

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        self.seed = seed
        self.workdir = workdir
        self.cfg = pkg.plant.PlantConfig(geom=pkg.core.default_geometry(),
                                         coeffs=pkg.core.default_coefficients(),
                                         rng_seed=seed)

    def ops(self):
        return DATASET_SAMPLES

    def run(self):
        return self.pkg.calib.generate_dataset(None, DATASET_SAMPLES, self.cfg,
                                               seed=self.seed)

    def check(self, out):
        samples, misfires = out
        plant = self.pkg.plant
        failed = DATASET_SAMPLES - len(samples)   # misfired points are missing
        for s in samples:
            integral = plant.knock_integral_value(s.op, s.soi, s.soc_ref, self.cfg)
            if not (abs(integral - 1.0) <= INTEGRAL_TOL
                    and s.soi <= s.soc_ref <= s.ca50_ref):
                failed += 1
        return failed

    def digests(self, out):
        path = self.workdir / "dataset.csv"
        self.pkg.calib.write_dataset(path, out[0])
        return {"dataset.csv": sha256(path)}

    def attribution(self, first):
        n = DATASET_SAMPLES
        return [("kernels.march_calls", n), ("plant.soc_calls", n),
                ("control.calls", 0), ("model.calls", 0),
                ("calib.objective_evals", 0)]

    def report(self, walls, first, op_times):
        samples, misfires = first
        return [("samples_per_s", len(samples) * len(walls) / sum(walls), "1/s"),
                ("misfires", misfires, "count")]


class Calibration(Workload):
    """calib.calibrate from the shipped coefficients with C6 options on an
    80/20 split of a plant dataset built during set-up."""

    name = "calibration"

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        self.workdir = workdir
        self.geom = pkg.core.default_geometry()
        cfg = pkg.plant.PlantConfig(geom=self.geom,
                                    coeffs=pkg.core.default_coefficients(),
                                    rng_seed=seed)
        samples, _ = pkg.calib.generate_dataset(None, DATASET_SAMPLES, cfg, seed=seed)
        self.train, self.holdout = pkg.calib.split_dataset(samples, HOLDOUT_FRAC, seed)
        self.options = pkg.calib.CalibrationOptions(max_iters=C6_MAX_ITERS, tol=0.0)

    def ops(self):
        return 1

    def run(self):
        return self.pkg.calib.calibrate(self.pkg.core.default_coefficients(),
                                        self.train, self.geom, self.options)

    def check(self, out):
        report, coeffs = out
        trace = report.rmse_history
        monotone = all(b <= a for a, b in zip(trace, trace[1:]))
        fresh = self.pkg.calib.rmse(coeffs, self.train, self.geom)
        ok = (monotone and report.final_rmse == fresh == trace[-1]
              and report.iterations <= C6_MAX_ITERS)
        return 0 if ok else 1

    def digests(self, out):
        report, coeffs = out
        coeff_path = self.workdir / "coefficients.json"
        report_path = self.workdir / "calibration_report.csv"
        self.pkg.core.save_coefficients(coeff_path, coeffs)
        self.pkg.calib.write_report_csv(report_path, report)
        return {"coefficients.json": sha256(coeff_path),
                "calibration_report.csv": sha256(report_path)}

    def attribution(self, first):
        return [("kernels.march_calls", 0), ("control.calls", 0),
                ("plant.step_cycle_calls", 0),
                ("calib.iterations", first[0].iterations)]

    def report(self, walls, first, op_times):
        report, coeffs = first
        holdout = self.pkg.calib.rmse(coeffs, self.holdout, self.geom)
        return [("fit_s", statistics.median(walls), "s"),
                ("fit_iterations", report.iterations, "count"),
                ("fit_rmse_cad", report.final_rmse, "CAD"),
                ("holdout_rmse_cad", holdout, "CAD"),
                ("train_samples", len(self.train), "count"),
                ("holdout_samples", len(self.holdout), "count")]


class ClosedLoop(Workload):
    """The 12 built-in runs (cases 1-6 x adaptive/feedforward) through
    harness.run_scenario, one cycle at a time."""

    name = "closed_loop"

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        self.workdir = workdir
        self.coeffs = pkg.core.load_coefficients(CONTROLLER_COEFFS)
        self.geom = pkg.core.default_geometry()
        self.runs = [(n, c, pkg.scenarios.builtin_case(n, controller=c, seed=seed))
                     for n in range(1, 7) for c in pkg.scenarios.CONTROLLERS]

    def ops(self):
        return len(self.runs)

    def run(self):
        out = []
        for n, controller, scenario in self.runs:
            t0 = time.perf_counter()
            records, summary = self.pkg.harness.run_scenario(
                scenario, ctrl_coeffs=self.coeffs, geom=self.geom)
            out.append((n, controller, records, summary, time.perf_counter() - t0))
        return out

    def check(self, out):
        failed = 0
        for n, controller, records, summary, _ in out:
            if summary.misfired or not summary.segments:
                failed += 1
                continue
            if controller == "adaptive":
                ok = steady_error(summary) <= STEADY_ADAPTIVE
                if n == 1:
                    ok = ok and max(s.settling_cycles
                                    for s in summary.segments) <= SETTLE_ADAPTIVE_CASE1
            else:
                ok = steady_error(summary) <= STEADY_FEEDFORWARD
            failed += not ok
        return failed

    def digests(self, out):
        digests = {}
        for n, controller, records, _, _ in out:
            path = self.workdir / f"case{n}_{controller}_records.csv"
            self.pkg.harness.write_records_csv(path, records)
            digests[path.name] = sha256(path)
        return digests

    def attribution(self, first):
        cycles = sum(len(r[2]) for r in first)
        fired = sum(1 for r in first for rec in r[2]
                    if rec.cycle_index >= self.pkg.harness.WARMUP_CYCLES)
        return [("calib.objective_evals", 0), ("model.calls", 0),
                ("plant.step_cycle_calls", cycles), ("kernels.march_calls", fired)]

    def op_times(self, out):
        return [wall / len(records) * 1e6 for _, _, records, _, wall in out]

    def report(self, walls, first, op_times):
        cycles = sum(len(r[2]) for r in first)
        return [("cycles", cycles, "count"),
                ("cycles_per_s", cycles * len(walls) / sum(walls), "1/s"),
                *_percentiles("cycle_us", op_times, "us")]


class Pipeline(Workload):
    """ROADMAP's CLI workflow in-process through dualfuel.cli.main: gen-data
    -> calibrate (CLI defaults) -> 12 x simulate -> sensitivity ->
    noise-study, into a scratch directory of the checkout."""

    name = "pipeline"

    def setup(self, pkg, seed, workdir):
        self.pkg = pkg
        self.out = workdir / "pipeline"
        s, o = str(seed), str(self.out)
        data, coeffs = str(self.out / "dataset.csv"), str(self.out / "coefficients.json")
        self.calls = [
            ["gen-data", "--samples", str(DATASET_SAMPLES), "--seed", s, "--out", o],
            ["calibrate", "--data", data, "--seed", s, "--out", o],
            *[["simulate", "--case", str(n), "--controller", c, "--coeffs", coeffs,
               "--seed", s, "--out", o]
              for n in range(1, 7) for c in pkg.scenarios.CONTROLLERS],
            ["sensitivity", "--data", data, "--coeffs", coeffs, "--out", o],
            ["noise-study", "--halfwidth", "0.5", "--coeffs", coeffs, "--seed", s,
             "--out", o],
        ]
        self.expected = ["dataset.csv", "coefficients.json", "calibration_report.csv",
                         "calibration_summary.txt", "sensitivity.csv",
                         "noise_records.csv"]
        self.expected += [f"case{n}_{c}_{kind}" for n in range(1, 7)
                          for c in pkg.scenarios.CONTROLLERS
                          for kind in ("records.csv", "summary.txt")]

    def ops(self):
        return len(self.calls)

    def prepare(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def run(self):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.calls:
                try:
                    codes.append(self.pkg.cli.main(argv))
                except SystemExit as exc:   # argparse rejects the arguments
                    codes.append(exc.code or 0)
        return codes

    def check(self, out):
        failed = sum(code != 0 for code in out)
        failed += sum(not (self.out / name).is_file() for name in self.expected)
        data = self.out / "dataset.csv"
        if data.is_file():
            again = self.out.parent / "dataset_roundtrip.csv"
            self.pkg.calib.write_dataset(again, self.pkg.calib.read_dataset(data))
            failed += again.read_bytes() != data.read_bytes()
        return failed

    def digests(self, out):
        return {name: sha256(self.out / name) for name in sorted(self.expected)
                if (self.out / name).is_file()}

    def attribution(self, first):
        # every record row is one plant cycle; every fired cycle and every
        # dataset sample marches the kernel once
        rows = [row for name in self.expected if name.endswith("records.csv")
                for row in self.pkg.harness.read_records_csv(self.out / name)]
        fired = sum(row["cycle"] >= self.pkg.harness.WARMUP_CYCLES for row in rows)
        return [("plant.step_cycle_calls", len(rows)),
                ("kernels.march_calls", DATASET_SAMPLES + fired)]

    def report(self, walls, first, op_times):
        return [("pipeline_s", statistics.median(walls), "s"),
                ("cli_calls", len(self.calls), "count")]


WORKLOADS = {w.name: w for w in (Dataset, Calibration, ClosedLoop, Pipeline)}


def highest_percentile(values, candidates=(99.9, 99.0, 90.0)):
    """(p, value) for the highest candidate percentile that has at least ten
    samples beyond it (nearest rank), or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in candidates:
        rank = -(-round(p * 10) * n // 1000)   # ceil(p% of n), exact for p in 0.1 steps
        if rank >= 1 and n - rank >= 10:
            return p, ordered[rank - 1]
    return None


def _percentiles(name, values, unit):
    rows = [(f"{name}_p50", statistics.median(values), unit),
            (f"{name}_samples", len(values), "count")]
    top = highest_percentile(values)
    if top is not None:
        rows.append((f"{name}_p{top[0]:g}", top[1], unit))
    return rows
