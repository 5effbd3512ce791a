"""Acceptance suite: the eleven exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them inline);
two more tests check that README quotes the C7, C9, C10 and C11 lines as
those criteria print them.
Criterion 7 bounds the absolute CA50 error that the input perturbations add
to the calibrated model's worst error, not its ratio to that worst error;
see its docstring for why.
"""

import math
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from dualfuel.calib import (
    CALIBRATED_FIELDS,
    CalibSample,
    CalibrationOptions,
    calibrate,
    generate_dataset,
    split_dataset,
    validate,
)
from dualfuel.control import (
    MEAN_RESIDUAL_FRACTION,
    AdaptiveStates,
    ControllerState,
    adaptive_soi,
    adaptive_update,
    feedforward_soi,
)
from dualfuel.core import OperatingPoint, cylinder_volume
from dualfuel.harness import (
    SETTLING_BAND,
    WARMUP_CYCLES,
    run_noise_study,
    run_scenario,
    run_sensitivity,
)
from dualfuel.model import predict_ca50, predict_soc
from dualfuel.plant import PlantConfig, knock_integral_soc, knock_integral_value
from dualfuel.scenarios import CONTROLLERS, builtin_case

from conftest import random_box_op, random_box_soi

DATASET_SEED = 3
DATASET_SIZE = 1054

# C7: worst perturbed max error within INFLATION_FACTOR x the baseline max of
# the reference robustness family, expressed as the absolute CA50 inflation
# that factor allows on that baseline: (1.5 - 1) * 2.19 = 1.095 CAD.
INFLATION_FACTOR = 1.5
REFERENCE_BASELINE_MAX_CAD = 2.19
INFLATION_BOUND_CAD = (INFLATION_FACTOR - 1.0) * REFERENCE_BASELINE_MAX_CAD

# C9: the paper's headline claims for its two controllers
PAPER_SETTLING_CYCLES = 5
PAPER_STEADY_ERR_CAD = {"adaptive": 0.1, "feedforward": 1.5}

# C11: the plant constants behind C9's margins, and the figures without them
FINE_SOI_RESOLUTION_CAD = 0.01
NO_LAG_SETTLING_CYCLES = 1


def acceptance_line(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    return f"ACCEPTANCE {criterion}: {status}  {detail}"


def report(criterion, ok, detail=""):
    print(acceptance_line(criterion, ok, detail))
    return ok


def steady_error(summary):
    """A run's steady |CA50 error|: the worst over its segments."""
    return max(max(abs(s.err_min), abs(s.err_max)) for s in summary.segments)


def builtin_runs(ctrl_coeffs, geom, **plant):
    """The 12 built-in runs with ctrl_coeffs as the controller's model and
    plant merged into each scenario's plant block, as
    {(n, controller): (scenario, records, summary)}."""
    runs = {}
    for n in range(1, 7):
        for controller in CONTROLLERS:
            scenario = builtin_case(n, controller)
            if plant:
                scenario = replace(scenario, plant={**scenario.plant, **plant})
            runs[n, controller] = (scenario, *run_scenario(scenario, ctrl_coeffs=ctrl_coeffs,
                                                           geom=geom))
    return runs


def steady_errors(runs):
    """Per controller, the steady |CA50 error| of each of its runs."""
    return {c: [steady_error(summary) for (_, rc), (_, _, summary) in runs.items() if rc == c]
            for c in CONTROLLERS}


def readme_acceptance_lines(*criteria):
    """README's fenced ACCEPTANCE lines of the named criteria, sorted."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prefixes = tuple(f"ACCEPTANCE {c} " for c in criteria)
    return sorted(line for block in readme.split("```")[1::2] for line in block.splitlines()
                  if line.startswith(prefixes))


@pytest.fixture(scope="module")
def warm_kernels(geom, coeffs):
    # first calls pay for imports and lazy setup; keep them out of the
    # timed sections
    op = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                        x_r=0.03, p_ivc=3.0, t_ivc=390.0)
    cfg = PlantConfig(geom=geom, coeffs=coeffs)
    knock_integral_soc(op, -15.0, cfg)
    knock_integral_value(op, -15.0, -10.0, cfg)


@pytest.fixture(scope="module")
def full_dataset(geom, coeffs, warm_kernels):
    cfg = PlantConfig(geom=geom, coeffs=coeffs)
    t0 = time.perf_counter()
    samples, misfires = generate_dataset(None, DATASET_SIZE, cfg,
                                         seed=DATASET_SEED)
    elapsed = time.perf_counter() - t0
    assert misfires == 0
    assert len(samples) == DATASET_SIZE
    return samples, elapsed


@pytest.fixture(scope="module")
def calibrated(geom, coeffs, full_dataset):
    samples, _ = full_dataset
    t0 = time.perf_counter()
    rep, fitted = calibrate(coeffs, samples, geom,
                            CalibrationOptions(max_iters=500, tol=0.0))
    elapsed = time.perf_counter() - t0
    return rep, fitted, elapsed


@pytest.fixture(scope="module")
def fitted_runs(geom, calibrated, warm_kernels):
    """The 12 built-in runs on the calibrated (C6) coefficients, which C4
    and C9 share."""
    _, fitted, _ = calibrated
    return builtin_runs(fitted, geom)


def test_criterion1_deadbeat_and_lyapunov():
    """Synthetic affine plant, constant parameters, no quantization."""
    rng = np.random.default_rng(101)
    worst_err = 0.0
    worst_decrement = 0.0
    for _ in range(1000):
        x = AdaptiveStates(rng.uniform(500.0, 5000.0), rng.uniform(0.5, 5.0))
        y_d = rng.uniform(4.0, 12.0)
        ctrl = ControllerState(alpha_hat=rng.uniform(-5e-3, 5e-3),
                               beta_hat=rng.uniform(0.0, 3.0))
        alpha, beta = rng.uniform(-5e-3, 5e-3), rng.uniform(0.5, 3.0)
        step_at = rng.integers(3, 6)
        errors = []
        v_prev = None
        for k in range(int(step_at) + 4):
            if k == step_at:   # parameter step mid-trial
                alpha, beta = rng.uniform(-5e-3, 5e-3), rng.uniform(0.5, 3.0)
                v_prev = None
            u = adaptive_soi(y_d, x, ctrl)
            y = u + alpha * x.x1 + beta * x.x2
            v = (y_d - y) ** 2
            if v_prev is not None:
                worst_decrement = max(worst_decrement,
                                      abs((v - v_prev) + v_prev))
            v_prev = v
            errors.append(abs(y - y_d))
            ctrl = adaptive_update(y, y_d, x, ctrl)
        # within 2 cycles of start and of the step
        worst_err = max(worst_err, max(errors[2:int(step_at)], default=0.0))
        worst_err = max(worst_err, max(errors[int(step_at) + 2:]))
    ok = worst_err <= 1e-9 and worst_decrement <= 1e-9
    assert report("C1 deadbeat/Lyapunov", ok,
                  f"worst |y-y_d| {worst_err:.2e}, worst decrement defect "
                  f"{worst_decrement:.2e}")


def test_criterion2_feedforward_inversion(geom, coeffs):
    """Inverting then predicting returns the reference exactly."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(1000):
        base = random_box_op(rng)
        op = OperatingPoint(speed=base.speed, phi_ng=base.phi_ng,
                            phi_di=base.phi_di, egr=base.egr,
                            x_r=MEAN_RESIDUAL_FRACTION,
                            p_ivc=base.p_ivc, t_ivc=base.t_ivc)
        ref = rng.uniform(4.0, 12.0)
        prev_soi = rng.uniform(-20.0, -10.0)
        cmd = feedforward_soi(ref, op, coeffs, geom, prev_soi)
        achieved = predict_ca50(op, cmd, coeffs, geom,
                                v_soi=cylinder_volume(prev_soi, geom))
        worst = max(worst, abs(achieved - ref))
    ok = worst <= 1e-9
    assert report("C2 feedforward inversion", ok, f"worst defect {worst:.2e}")


def test_criterion3_reference_step_case(geom, calibrated, warm_kernels):
    """Benchmark transient 1 against the full plant, 0.1 CAD quantization."""
    _, fitted, _ = calibrated
    t0 = time.perf_counter()
    _, summary_fb = run_scenario(builtin_case(1, "adaptive"),
                                 ctrl_coeffs=fitted, geom=geom)
    _, summary_ff = run_scenario(builtin_case(1, "feedforward"),
                                 ctrl_coeffs=fitted, geom=geom)
    elapsed = time.perf_counter() - t0

    fb_settle = max(s.settling_cycles for s in summary_fb.segments)
    fb_err = steady_error(summary_fb)
    ff_err = steady_error(summary_ff)
    ok = fb_settle <= 5 and fb_err <= 0.15 and ff_err <= 1.5 and elapsed <= 1.0
    assert report("C3 reference-step benchmark", ok,
                  f"adaptive settle {fb_settle} cyc, steady |err| {fb_err:.3f}; "
                  f"feedforward |err| {ff_err:.3f}; runtime {elapsed:.2f}s")


def test_criterion4_remaining_cases(fitted_runs):
    """Benchmark transients 2-6: post-transient steady-state bounds."""
    ok = True
    details = []
    for n in range(2, 7):
        fb, ff = fitted_runs[n, "adaptive"][2], fitted_runs[n, "feedforward"][2]
        fb_err, ff_err = steady_error(fb), steady_error(ff)
        ok = ok and fb_err <= 0.15 and ff_err <= 1.5
        detail = f"case {n}: fb {fb_err:.3f}, ff {ff_err:.3f}"
        if n in (4, 6):   # transient excursions are permitted but reported
            detail += (f" (transient peaks fb {fb.segments[-1].peak_abs_error:.2f},"
                       f" ff {ff.segments[-1].peak_abs_error:.2f})")
        details.append(detail)
    assert report("C4 remaining benchmarks", ok, "; ".join(details))


def test_criterion5_quadrature_refinement(geom, coeffs, warm_kernels):
    """Step-halving stability and the crossing condition."""
    rng = np.random.default_rng(105)
    cfg_coarse = PlantConfig(geom=geom, coeffs=coeffs, quad_step=0.1)
    cfg_fine = PlantConfig(geom=geom, coeffs=coeffs, quad_step=0.05)
    worst_shift = 0.0
    worst_integral = 0.0
    for _ in range(100):
        op = random_box_op(rng)
        soi = random_box_soi(rng)
        a = knock_integral_soc(op, soi, cfg_coarse)
        b = knock_integral_soc(op, soi, cfg_fine)
        worst_shift = max(worst_shift, abs(a - b))
        worst_integral = max(worst_integral,
                             abs(knock_integral_value(op, soi, a, cfg_coarse) - 1.0))
    ok = worst_shift < 0.01 and worst_integral <= 1e-6
    assert report("C5 quadrature refinement", ok,
                  f"max SOC shift {worst_shift:.2e} CAD, "
                  f"max |integral-1| {worst_integral:.2e}")


def test_criterion6_calibration(geom, coeffs, full_dataset, calibrated):
    """Identifiability from a perturbed start and full-plant accuracy."""
    samples, gen_time = full_dataset
    rep_plant, fitted, fit_time = calibrated

    # identifiability: references from the closed-form model itself
    rng = np.random.default_rng(11)
    ident = []
    for _ in range(256):
        op = random_box_op(rng)
        soi = random_box_soi(rng)
        ident.append(CalibSample(op=op, soi=soi,
                                 soc_ref=predict_soc(op, soi, coeffs, geom),
                                 ca50_ref=predict_ca50(op, soi, coeffs, geom)))
    start = replace(coeffs, **{n: getattr(coeffs, n) * 1.2
                               for n in CALIBRATED_FIELDS})
    t0 = time.perf_counter()
    rep_ident, _ = calibrate(start, ident, geom,
                             CalibrationOptions(max_iters=500, tol=0.0))
    ident_time = time.perf_counter() - t0

    monotone = all(b <= a for a, b in zip(rep_ident.rmse_history,
                                          rep_ident.rmse_history[1:]))
    stats = validate(fitted, samples, geom)
    total_time = gen_time + fit_time + ident_time
    ok = (rep_ident.final_rmse < 0.05 and monotone
          and stats.ca50_err_std <= 1.0 and stats.ca50_err_max <= 3.0
          and total_time <= 30.0)
    assert report("C6 calibration", ok,
                  f"identifiability RMSE {rep_ident.final_rmse:.4f} "
                  f"(monotone {monotone}); plant fit std {stats.ca50_err_std:.3f} "
                  f"max {stats.ca50_err_max:.3f}; runtime {total_time:.1f}s")


@pytest.fixture(scope="module")
def sensitivity_check(geom, full_dataset, calibrated):
    """C7's figures on the calibrated model and its ACCEPTANCE line, the one
    that README quotes."""
    samples, _ = full_dataset
    _, fitted, _ = calibrated
    rows = run_sensitivity(fitted, samples, geom)
    stats = validate(fitted, samples, geom)

    ran_all = len(rows) == 13
    zero_exact = (rows[0].ca50_err_std == stats.ca50_err_std
                  and rows[0].ca50_err_max == stats.ca50_err_max)
    worst = max(rows[1:], key=lambda r: r.ca50_err_max)
    inflation = worst.ca50_err_max - rows[0].ca50_err_max
    ratio = worst.ca50_err_max / rows[0].ca50_err_max
    ok = ran_all and zero_exact and inflation <= INFLATION_BOUND_CAD
    line = acceptance_line("C7 sensitivity table", ok,
                           f"baseline max {rows[0].ca50_err_max:.3f} CAD; worst "
                           f"{worst.quantity} {worst.delta:+g} -> {worst.ca50_err_max:.3f} "
                           f"CAD; inflation {inflation:.3f} CAD (bound "
                           f"{INFLATION_BOUND_CAD:.3f}); ratio {ratio:.2f} (information only)")
    return SimpleNamespace(rows=rows, ran_all=ran_all, zero_exact=zero_exact, worst=worst,
                           inflation=inflation, line=line)


def test_criterion7_sensitivity_table(sensitivity_check):
    """Perturbation study: exact baseline row and bounded absolute inflation.

    The worst perturbed max error may exceed the unperturbed (calibration)
    max error by at most INFLATION_BOUND_CAD. The ratio of the two is
    printed for information only: its denominator is the fit residual,
    which shrinks as the fit improves while the inflation, the model's own
    sensitivity to its inputs, does not.
    """
    c7 = sensitivity_check
    rows, worst, inflation = c7.rows, c7.worst, c7.inflation
    print(c7.line)
    assert c7.ran_all and c7.zero_exact
    assert inflation <= INFLATION_BOUND_CAD, (
        f"worst perturbation ({worst.quantity} {worst.delta:+g}) inflates the "
        f"max CA50 error by {inflation:.3f} CAD "
        f"({rows[0].ca50_err_max:.3f} -> {worst.ca50_err_max:.3f} CAD), over "
        f"the bound of {INFLATION_BOUND_CAD:.3f} CAD. The bound is "
        f"({INFLATION_FACTOR:g} - 1) x {REFERENCE_BASELINE_MAX_CAD:g} CAD: the "
        f"criterion's {INFLATION_FACTOR:g}x inflation factor applied to the "
        f"baseline max error of the reference robustness family."
    )


def test_readme_quotes_the_c7_line(sensitivity_check):
    # README's fenced C7 line is the one the criterion prints, so a change
    # that moves the fit cannot leave README's figures stale
    assert readme_acceptance_lines("C7") == [sensitivity_check.line]


def test_criterion8_noise_study(calibrated, warm_kernels):
    """Adaptive loop under +/-0.5 CAD uniform measurement noise."""
    _, fitted, _ = calibrated
    result, records = run_noise_study(0.5, ctrl_coeffs=fitted, seed=8)
    bounded = all(np.isfinite(r.ca50_actual) and abs(r.ca50_actual) < 50.0
                  for r in records)
    ok = (bounded and result.err_std <= 1.2 and result.n_cycles >= 95
          and len(records) >= 100)
    assert report("C8 noise study", ok,
                  f"{result.n_cycles} fired cycles, actual err std "
                  f"{result.err_std:.3f} CAD, max {result.err_max:.3f} CAD")


def cycles_to_settle_after_ramps(records, scenario, summary):
    """Per segment of summary, the cycles to settle counted from the first
    fired cycle at or after the end of the last ramp among the breakpoints
    that start at the segment's start, with summarize_rows's band, final
    value and settled index."""
    breakpoints = [bp for bps in (*scenario.schedules.values(), scenario.reference)
                   for bp in bps]
    counts = []
    for s in summary.segments:
        t_end = min([t for t in scenario.event_times() if t > s.t_start], default=math.inf)
        ramps_end = max(bp.t + bp.ramp_s for bp in breakpoints if bp.t == s.t_start)
        y = np.array([r.ca50_actual for r in records if r.cycle_index >= WARMUP_CYCLES
                      and ramps_end <= r.time_s < t_end])
        outside = np.flatnonzero(~(np.abs(y - s.final_value) <= SETTLING_BAND))
        counts.append(int(outside[-1]) + 1 if outside.size else 0)
    return counts


def settle_cycles(runs):
    """Per controller, the most cycles any segment of its runs takes to
    settle after its last ramp."""
    return {c: max(n for (_, rc), (scenario, records, summary) in runs.items() if rc == c
                   for n in cycles_to_settle_after_ramps(records, scenario, summary))
            for c in CONTROLLERS}


@pytest.fixture(scope="module")
def headline_check(fitted_runs):
    """C9's verdict and its ACCEPTANCE line, the one that README quotes."""
    settle = settle_cycles(fitted_runs)
    steady = {c: max(errors) for c, errors in steady_errors(fitted_runs).items()}
    ok = (max(settle.values()) <= PAPER_SETTLING_CYCLES
          and all(steady[c] < PAPER_STEADY_ERR_CAD[c] for c in CONTROLLERS))
    return SimpleNamespace(ok=ok, line=acceptance_line("C9 paper headline claims", ok, "; ".join(
        f"{c}: settle {settle[c]} cyc (margin {PAPER_SETTLING_CYCLES - settle[c]}), "
        f"steady |err| {steady[c]:.4f} CAD (margin {PAPER_STEADY_ERR_CAD[c] - steady[c]:.4f})"
        for c in CONTROLLERS)))


def test_criterion9_paper_headline_claims(headline_check):
    """The paper's three numbers on the 12 built-in runs: every segment
    settles within 5 fired cycles of its last ramp's end, and the steady
    |CA50 error| stays below 0.1 CAD adaptive and 1.5 CAD feedforward."""
    print(headline_check.line)
    assert headline_check.ok


@pytest.fixture(scope="module")
def contrast_check(geom, coeffs, full_dataset, warm_kernels):
    """C10's verdict and its ACCEPTANCE line, the one that README quotes."""
    samples, _ = full_dataset
    train, _ = split_dataset(samples, 0.2, 3)
    _, fitted = calibrate(coeffs, train, geom, CalibrationOptions(max_iters=1, tol=0.0))
    shipped = steady_errors(builtin_runs(coeffs, geom))
    fit = steady_errors(builtin_runs(fitted, geom))
    margins = {
        "shipped adaptive": PAPER_STEADY_ERR_CAD["adaptive"] - max(shipped["adaptive"]),
        "shipped feedforward": min(shipped["feedforward"]) - PAPER_STEADY_ERR_CAD["feedforward"],
        "fitted adaptive": PAPER_STEADY_ERR_CAD["adaptive"] - max(fit["adaptive"]),
        "fitted feedforward": PAPER_STEADY_ERR_CAD["feedforward"] - max(fit["feedforward"]),
    }
    ok = (all(m > 0.0 for m in margins.values())
          and max(fit["feedforward"]) > max(fit["adaptive"]))
    return SimpleNamespace(ok=ok, line=acceptance_line("C10 controller contrast", ok, "; ".join(
        [f"{name} margin {m:.4f} CAD" for name, m in margins.items()]
        + [f"fitted worst feedforward {max(fit['feedforward']):.4f} > "
           f"adaptive {max(fit['adaptive']):.4f} CAD"])))


def test_criterion10_controller_contrast(contrast_check):
    """The paper's contrast between its controllers on the 12 built-in runs.

    With the shipped coefficients, whose model misses the plant, every
    adaptive run stays below the paper's 0.1 CAD of steady error and every
    feedforward run above its 1.5 CAD: the observer removes the mismatch
    and the open-loop inversion carries it. After one Levenberg-Marquardt
    iteration on the training split, feedforward drops below 1.5 CAD and
    adaptive stays below 0.1 CAD, still ahead of feedforward."""
    print(contrast_check.line)
    assert contrast_check.ok


@pytest.fixture(scope="module")
def mechanism_check(geom, calibrated, warm_kernels):
    """C11's verdict and its ACCEPTANCE line, the one that README quotes."""
    _, fitted, _ = calibrated
    fine = max(steady_errors(builtin_runs(
        fitted, geom, soi_resolution=FINE_SOI_RESOLUTION_CAD))["adaptive"])
    settle = settle_cycles(builtin_runs(fitted, geom, egr_lag_cycles=0))
    ok = (fine < FINE_SOI_RESOLUTION_CAD
          and max(settle.values()) <= NO_LAG_SETTLING_CYCLES)
    return SimpleNamespace(ok=ok, line=acceptance_line(
        "C11 margin mechanisms", ok,
        f"{FINE_SOI_RESOLUTION_CAD:g} CAD grid: adaptive steady |err| {fine:.4f} CAD "
        f"(margin {FINE_SOI_RESOLUTION_CAD - fine:.4f}); no intake lag: " + ", ".join(
            f"{c} settle {settle[c]} cyc (margin {NO_LAG_SETTLING_CYCLES - settle[c]})"
            for c in CONTROLLERS)))


def test_criterion11_margin_mechanisms(mechanism_check):
    """C9's two thin margins are two plant constants, not the fit. The
    paper's 0.1 CAD is one step of the plant's 0.1 CAD injection grid: on a
    0.01 CAD grid the worst adaptive steady |err| of the 12 built-in runs is
    below 0.01 CAD. Its 5 cycles are what the plant's 3-cycle intake lag
    costs feedforward: without the lag every run of both controllers settles
    within 1 cycle of its last ramp, counted as C9 counts."""
    print(mechanism_check.line)
    assert mechanism_check.ok


def test_readme_quotes_the_c9_c10_c11_lines(headline_check, contrast_check, mechanism_check):
    # README fences each line beside its criterion's paragraph, so its
    # margins are the ones the criteria print
    assert readme_acceptance_lines("C9", "C10", "C11") == sorted(
        c.line for c in (headline_check, contrast_check, mechanism_check))
