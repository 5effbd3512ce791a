"""Scenario runner and study drivers.

Closes the loop between a controller and the plant cycle by cycle, reduces
the resulting traces to settling/overshoot/steady-state metrics, and runs
the model-sensitivity and measurement-noise studies. All outputs are CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .calib import _columns
from .control import (
    FEEDFORWARD_SEED_SOI,
    ControllerState,
    MEAN_RESIDUAL_FRACTION,
    adaptive_soi,
    adaptive_update,
    compute_states,
    feedforward_soi,
    smooth_measurement,
)
from .core import (
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    cylinder_volume,
    default_coefficients,
    default_geometry,
)
from .model import _check_soi, phasing_terms
from .model import half_burn_angle, ignition_delay  # noqa: F401  (perfbench traces them)
from .plant import MOTORED_CYCLES, CycleRecord, EnginePlant, Misfire, PlantConfig
from .scenarios import (
    IVC_PRESSURE_GAIN,
    IVC_TEMP_OFFSET,
    Scenario,
    builtin_case,
    schedule_value,
)

RECORD_COLUMNS = ("cycle", "time_s", "speed", "phi_di", "phi_ng", "egr",
                  "p_ivc", "t_ivc", "ca50_ref", "soi_cmd", "soi_applied",
                  "soc", "bd", "ca50_actual", "ca50_meas",
                  "alpha_hat", "beta_hat")

SETTLING_BAND = 0.15        # CAD around the segment's final value
STEADY_WINDOW = 20          # cycles used for steady-state statistics
WARMUP_CYCLES = MOTORED_CYCLES   # excluded from all statistics

# actuator authority: injection no earlier than shortly after IVC, no later
# than just past TDC
SOI_CMD_MARGIN = 5.0
SOI_CMD_MAX = 5.0


@dataclass
class SegmentSummary:
    t_start: float
    t_end: float
    n_cycles: int
    final_value: float
    settling_cycles: int
    overshoot: float
    peak_abs_error: float
    err_min: float          # over the final STEADY_WINDOW cycles
    err_max: float


@dataclass
class ScenarioSummary:
    segments: list = field(default_factory=list)
    misfired: bool = False


def _op_at(scenario: Scenario, t: float) -> OperatingPoint:
    sched = scenario.schedules

    def get(key, default=None):
        if key in sched:
            return schedule_value(sched[key], t)
        return default

    p_ivc = get("p_ivc")
    if p_ivc is None:
        p_ivc = IVC_PRESSURE_GAIN * get("p_man")
    t_ivc = get("t_ivc")
    if t_ivc is None:
        t_ivc = get("t_man") + IVC_TEMP_OFFSET
    return OperatingPoint(
        speed=get("speed"),
        phi_di=get("phi_di"),
        phi_ng=get("phi_ng"),
        egr=get("egr", 0.0),
        x_r=get("x_r", MEAN_RESIDUAL_FRACTION),
        p_ivc=p_ivc,
        t_ivc=t_ivc,
    )


def run_scenario(scenario: Scenario, ctrl_coeffs: ModelCoefficients | None = None,
                 geom: EngineGeometry | None = None,
                 measurement_filter_cycles: float = 0.0):
    """Closed-loop run of one scenario. Returns (records, summary).

    The plant runs the shipped coefficients; ctrl_coeffs (default: the
    same) is the controller's model. The CA50 reference is sampled once per cycle and applied on the next
    one. The controller sees the scheduled (commanded) operating point; the
    plant applies its own intake lag. The optional first-order measurement
    filter (time constant in cycles, finite and non-negative; 0, the
    default, is off) smooths the CA50 fed to the observer. Both controllers
    learn from the command the actuator limits let through: the observer
    takes its error against it and the feedforward law inverts the model
    at it, so each recovers once saturation ends. A misfire aborts with the
    partial stream and the summary flagged.
    """
    if not (math.isfinite(measurement_filter_cycles) and measurement_filter_cycles >= 0.0):
        raise ValueError("measurement_filter_cycles must be finite and non-negative, "
                         f"got {measurement_filter_cycles}")
    geom = geom or default_geometry()
    ctrl_coeffs = ctrl_coeffs or default_coefficients()
    cfg = PlantConfig(geom=geom, coeffs=default_coefficients(), **scenario.plant)
    plant = EnginePlant(cfg)
    adaptive = scenario.controller == "adaptive"
    ctrl = ControllerState()
    prev_soi = FEEDFORWARD_SEED_SOI

    records: list[CycleRecord] = []
    misfired = False
    filtered: float | None = None
    pending_ref = schedule_value(scenario.reference, 0.0)
    soi_min = geom.ivc_angle + SOI_CMD_MARGIN
    while plant.time_s < scenario.duration_s - 1e-12:
        t = plant.time_s
        ref = pending_ref
        pending_ref = schedule_value(scenario.reference, t)
        op = _op_at(scenario, t)
        if adaptive:
            states = compute_states(op, ctrl_coeffs)
            unclamped = adaptive_soi(ref, states, ctrl)
        else:
            unclamped = feedforward_soi(ref, op, ctrl_coeffs, geom, prev_soi)
        command = prev_soi = min(max(unclamped, soi_min), SOI_CMD_MAX)
        try:
            rec = plant.step_cycle(
                command, op, ca50_ref=ref,
                alpha_hat=ctrl.alpha_hat if adaptive else None,
                beta_hat=ctrl.beta_hat if adaptive else None)
        except Misfire:
            misfired = True
            break
        records.append(rec)
        if adaptive and rec.cycle_index >= WARMUP_CYCLES:
            filtered = smooth_measurement(filtered, rec.ca50_measured,
                                          measurement_filter_cycles)
            # tracking anti-windup: the clamp's share of the error is not
            # the model's, so the observer does not learn it
            ctrl = adaptive_update(filtered, ref + (command - unclamped), states, ctrl)

    summary = summarize_records(records, scenario)
    summary.misfired = misfired
    return records, summary


# ---------------------------------------------------------------------------
# summary metrics

def summarize_rows(cycle, time_s, ca50_actual, ca50_ref, scenario: Scenario) -> ScenarioSummary:
    """Settling/overshoot/steady-state metrics per scenario segment.

    Works from plain columns so the same reduction can be applied to an
    emitted CSV; motored warm-up cycles are excluded from every statistic.
    """
    cycle = np.asarray(cycle)
    time_s = np.asarray(time_s)
    ca50_actual = np.asarray(ca50_actual)
    ca50_ref = np.asarray(ca50_ref)
    fired = cycle >= WARMUP_CYCLES

    bounds = [0.0] + scenario.event_times() + [float("inf")]
    summary = ScenarioSummary()
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        mask = fired & (time_s >= t0) & (time_s < t1)
        n = int(np.count_nonzero(mask))
        if n == 0:
            continue
        y = ca50_actual[mask]
        err = y - ca50_ref[mask]
        final = float(np.mean(y[-min(STEADY_WINDOW, n):]))
        inside = np.abs(y - final) <= SETTLING_BAND
        settled_from = n
        for i in range(n - 1, -1, -1):
            if not inside[i]:
                break
            settled_from = i
        direction = final - float(y[0])
        if direction >= 0.0:
            overshoot = max(0.0, float(np.max(y)) - final)
        else:
            overshoot = max(0.0, final - float(np.min(y)))
        tail = err[-min(STEADY_WINDOW, n):]
        summary.segments.append(SegmentSummary(
            t_start=t0,
            t_end=float(t1 if np.isfinite(t1) else time_s[mask][-1]),
            n_cycles=n,
            final_value=final,
            settling_cycles=settled_from,
            overshoot=overshoot,
            peak_abs_error=float(np.max(np.abs(err))),
            err_min=float(np.min(tail)),
            err_max=float(np.max(tail)),
        ))
    return summary


def summarize_records(records, scenario: Scenario) -> ScenarioSummary:
    if not records:
        return ScenarioSummary()
    return summarize_rows(
        [r.cycle_index for r in records],
        [r.time_s for r in records],
        [r.ca50_actual for r in records],
        [r.ca50_ref for r in records],
        scenario,
    )


# ---------------------------------------------------------------------------
# record CSV

def write_records_csv(path, records):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            row = [r.cycle_index] + [repr(float(v)) for v in (
                r.time_s, r.op.speed, r.op.phi_di, r.op.phi_ng, r.op.egr,
                r.op.p_ivc, r.op.t_ivc, r.ca50_ref, r.soi_commanded,
                r.soi_applied, r.soc, r.bd, r.ca50_actual, r.ca50_measured)]
            row.append("" if r.alpha_hat is None else repr(float(r.alpha_hat)))
            row.append("" if r.beta_hat is None else repr(float(r.beta_hat)))
            w.writerow(row)


def read_records_csv(path):
    """Rows as dicts of floats (None for blank observer columns)."""
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if tuple(header) != RECORD_COLUMNS:
            raise ValueError(f"unexpected record columns: {header}")
        for raw in r:
            row = {}
            for key, cell in zip(RECORD_COLUMNS, raw):
                if key == "cycle":
                    row[key] = int(cell)
                else:
                    row[key] = None if cell == "" else float(cell)
            rows.append(row)
    return rows


def write_summary_txt(path, summary: ScenarioSummary):
    lines = []
    if summary.misfired:
        lines.append("MISFIRE: run aborted, partial stream below")
    for i, s in enumerate(summary.segments):
        lines.append(
            f"segment {i}  t=[{s.t_start:g},{s.t_end:g}) s  cycles={s.n_cycles}  "
            f"final CA50={s.final_value:.4f}  settling={s.settling_cycles} cycles  "
            f"overshoot={s.overshoot:.4f}  peak|err|={s.peak_abs_error:.4f}  "
            f"steady err=[{s.err_min:+.4f},{s.err_max:+.4f}] CAD"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# sensitivity study

# (quantity, delta, mode): absolute offsets for charge-state quantities,
# relative factors for the equivalence ratios
DEFAULT_PERTURBATIONS = (
    ("p_ivc", 0.05, "abs"), ("p_ivc", -0.05, "abs"),
    ("t_ivc", 5.0, "abs"), ("t_ivc", -5.0, "abs"),
    ("egr", 0.05, "abs"), ("egr", -0.05, "abs"),
    ("phi_di", 0.10, "rel"), ("phi_di", -0.10, "rel"),
    ("phi_ng", 0.10, "rel"), ("phi_ng", -0.10, "rel"),
    ("x_r", 0.03, "abs"), ("x_r", -0.03, "abs"),
)


@dataclass
class SensitivityRow:
    quantity: str
    delta: float
    mode: str
    ca50_err_std: float
    ca50_err_max: float


def run_sensitivity(coeffs: ModelCoefficients, dataset, geom: EngineGeometry):
    """Re-predict CA50 with each input perturbed one at a time (the
    DEFAULT_PERTURBATIONS), against unperturbed references. First row is
    the unperturbed baseline. A perturbed input may leave the
    OperatingPoint domain (a negative EGR or residual fraction)."""
    op, soi, _, ca50_ref = _columns(dataset)
    _check_soi(soi, geom)
    v_soi = cylinder_volume(soi, geom)
    cols = {f.name: getattr(op, f.name) for f in fields(op)}

    def row(quantity, delta, mode):
        c = dict(cols)
        if quantity != "none":
            c[quantity] = c[quantity] * (1.0 + delta) if mode == "rel" else c[quantity] + delta
        delay, half_burn = phasing_terms(v_soi, **c, coeffs=coeffs, geom=geom)
        err = soi + delay + half_burn - ca50_ref
        return SensitivityRow(quantity=quantity, delta=delta, mode=mode,
                              ca50_err_std=float(np.std(err)),
                              ca50_err_max=float(np.max(np.abs(err))))

    rows = [row("none", 0.0, "abs")]
    rows.extend(row(*p) for p in DEFAULT_PERTURBATIONS)
    return rows


def write_sensitivity_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(("quantity", "delta", "mode", "ca50_err_std", "ca50_err_max"))
        for r in rows:
            w.writerow([r.quantity, repr(r.delta), r.mode,
                        repr(r.ca50_err_std), repr(r.ca50_err_max)])


# ---------------------------------------------------------------------------
# measurement-noise study

@dataclass
class NoiseStudyResult:
    halfwidth: float
    err_std: float
    err_max: float
    n_cycles: int


def run_noise_study(halfwidth: float, ctrl_coeffs: ModelCoefficients | None = None,
                    geom: EngineGeometry | None = None, seed: int = 0,
                    measurement_filter_cycles: float = 0.0):
    """Adaptive loop at the first benchmark condition with uniform CA50
    measurement noise; statistics are of the actual (noise-free) CA50 error."""
    case = builtin_case(1, seed=seed)
    scenario = replace(case, reference=case.reference[:1],   # hold the first condition
                       plant={**case.plant, "ca50_noise_halfwidth": halfwidth})
    records, summary = run_scenario(
        scenario, ctrl_coeffs=ctrl_coeffs, geom=geom,
        measurement_filter_cycles=measurement_filter_cycles)
    fired = [r for r in records if r.cycle_index >= WARMUP_CYCLES]
    err = np.array([r.ca50_actual - r.ca50_ref for r in fired])
    result = NoiseStudyResult(halfwidth=halfwidth,
                              err_std=float(np.std(err)),
                              err_max=float(np.max(np.abs(err))),
                              n_cycles=len(fired))
    return result, records, summary
