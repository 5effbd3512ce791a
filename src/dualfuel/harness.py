"""Scenario runner and study drivers.

Closes the loop between a controller and the plant cycle by cycle, reduces
the resulting traces to settling/overshoot/steady-state metrics, and runs
the model-sensitivity and measurement-noise studies. All outputs are CSV.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from typing import NamedTuple

import numpy as np

from .calib import _check_finite, _columns, _spread
from .control import (
    FEEDFORWARD_SEED_SOI,
    ControllerState,
    adaptive_soi,
    adaptive_update,
    compute_states,
    feedforward_soi,
)
from .control import smooth_measurement  # noqa: F401  (perfbench traces it)
from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    _read_csv,
    _write_csv,
    cylinder_volume,
    default_coefficients,
    default_geometry,
)
from .model import _check_soi, phasing_terms
from .model import half_burn_angle, ignition_delay  # noqa: F401  (perfbench traces them)
from .plant import MOTORED_CYCLES, CycleRecord, EnginePlant, Misfire, PlantConfig
from .scenarios import (
    Scenario,
    builtin_case,
    operating_point,
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


class SegmentSummary(NamedTuple):
    t_start: float
    t_end: float
    n_cycles: int
    final_value: float
    settling_cycles: int
    overshoot: float
    peak_abs_error: float
    err_min: float          # over the final STEADY_WINDOW cycles
    err_max: float


class ScenarioSummary(NamedTuple):
    segments: list
    misfired: bool = False


def _fixed_value(bps):
    """The value of a schedule that never changes (one breakpoint, no ramp),
    else None."""
    if len(bps) == 1 and bps[0].ramp_s == 0.0:
        return bps[0].value
    return None


def _op_lookup(scenario: Scenario):
    """op_at(t): the scenario's scheduled OperatingPoint at time t, for one
    run. Schedules that never change are read once; the others are
    evaluated per call, and while none of their values changes op_at
    returns the point it built last, so a constant stretch validates one
    point."""
    values = {}
    varying = {}
    for key, bps in scenario.schedules.items():
        fixed = _fixed_value(bps)
        if fixed is None:
            varying[key] = bps
        else:
            values[key] = fixed
    last = None, None   # values of the varying schedules, the point built from them

    def op_at(t):
        nonlocal last
        now = [schedule_value(bps, t) for bps in varying.values()]
        if now == last[0]:
            return last[1]
        values.update(zip(varying, now))
        last = now, operating_point(values)
        return last[1]
    return op_at


def run_scenario(scenario: Scenario, ctrl_coeffs: ModelCoefficients | None = None,
                 geom: EngineGeometry | None = None):
    """Closed-loop run of one scenario. Returns (records, summary).

    The plant runs the shipped coefficients; ctrl_coeffs (default: the
    same) is the controller's model. The CA50 reference is sampled once per
    cycle and applied on the next one. The controller sees the scheduled
    (commanded) operating point; the plant applies its own intake lag. The
    observer learns from each cycle's measured CA50. Both controllers learn
    from the command the actuator limits let through: the observer takes its
    error against it and the feedforward law inverts the model at it, so
    each recovers once saturation ends. A misfire aborts with the partial
    stream and the summary flagged.

    Work that depends only on the commanded point is done once per point
    that the run's op_at returns: the adaptive regressors are recomputed
    when the point changes, and the feedforward command, a pure function of
    the point, the reference and the previous command, when any of the
    three does. The plant likewise keeps the march arguments and burn
    duration of the point its cylinder sees.
    """
    geom = geom or default_geometry()
    ctrl_coeffs = ctrl_coeffs or default_coefficients()
    cfg = PlantConfig(geom=geom, coeffs=default_coefficients(), **scenario.plant)
    plant = EnginePlant(cfg)
    adaptive = scenario.controller == "adaptive"
    ctrl = ControllerState()
    prev_soi = FEEDFORWARD_SEED_SOI

    records: list[CycleRecord] = []
    misfired = False
    op_at = _op_lookup(scenario)
    ref_varies = _fixed_value(scenario.reference) is None
    pending_ref = schedule_value(scenario.reference, 0.0)
    soi_min = geom.ivc_angle + SOI_CMD_MARGIN
    states_op = ff_inputs = None   # what states and unclamped were computed from
    while plant.time_s < scenario.duration_s - 1e-12:
        t, cycle = plant.time_s, plant.cycle_index
        ref = pending_ref
        if ref_varies:
            pending_ref = schedule_value(scenario.reference, t)
        op = op_at(t)
        try:   # a DomainError of the control law or the plant names its cycle
            if adaptive:
                if op is not states_op:
                    states, states_op = compute_states(op, ctrl_coeffs), op
                unclamped = adaptive_soi(ref, states, ctrl)
            elif (op, ref, prev_soi) != ff_inputs:
                unclamped = feedforward_soi(ref, op, ctrl_coeffs, geom, prev_soi)
                ff_inputs = op, ref, prev_soi
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
                # tracking anti-windup: the clamp's share of the error is not
                # the model's, so the observer does not learn it
                ctrl = adaptive_update(rec.ca50_measured, ref + (command - unclamped), states, ctrl)
        except DomainError as exc:
            raise DomainError(f"cycle {cycle}: {exc}") from None

    return records, summarize_records(records, scenario)._replace(misfired=misfired)


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
    segments = []
    for t0, t1 in zip(bounds[:-1], bounds[1:]):
        mask = fired & (time_s >= t0) & (time_s < t1)
        n = int(np.count_nonzero(mask))
        if n == 0:
            continue
        y = ca50_actual[mask]
        err = y - ca50_ref[mask]
        final = float(np.mean(y[-min(STEADY_WINDOW, n):]))
        outside = np.flatnonzero(~(np.abs(y - final) <= SETTLING_BAND))
        settled_from = int(outside[-1]) + 1 if outside.size else 0
        direction = final - float(y[0])
        if direction >= 0.0:
            overshoot = max(0.0, float(np.max(y)) - final)
        else:
            overshoot = max(0.0, final - float(np.min(y)))
        tail = err[-min(STEADY_WINDOW, n):]
        segments.append(SegmentSummary(
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
    return ScenarioSummary(segments)


def summarize_records(records, scenario: Scenario) -> ScenarioSummary:
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
    _write_csv(path, RECORD_COLUMNS, ((
        str(r.cycle_index), r.time_s, r.op.speed, r.op.phi_di, r.op.phi_ng, r.op.egr,
        r.op.p_ivc, r.op.t_ivc, r.ca50_ref, r.soi_commanded, r.soi_applied, r.soc, r.bd,
        r.ca50_actual, r.ca50_measured, r.alpha_hat, r.beta_hat) for r in records))


def _read_record(raw):
    cycle, *cells, alpha_hat, beta_hat = raw
    row = dict(zip(RECORD_COLUMNS, (
        int(cycle), *map(float, cells),
        *(None if c == "" else float(c) for c in (alpha_hat, beta_hat)))))
    for name, v in row.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    return row


def read_records_csv(path):
    """Rows as dicts: an int cycle, finite floats, and None for a blank
    observer cell. A bad row, a non-finite number included, raises a
    ValueError naming the file and the line on which the row starts."""
    return _read_csv(path, RECORD_COLUMNS, _read_record)


def write_summary_txt(path, summary: ScenarioSummary) -> str:
    """Write the summary's text, one line per segment, and return it."""
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
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text


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


class SensitivityRow(NamedTuple):
    quantity: str
    delta: float
    mode: str
    ca50_err_std: float
    ca50_err_max: float


def run_sensitivity(coeffs: ModelCoefficients, dataset, geom: EngineGeometry):
    """Re-predict CA50 with each input perturbed one at a time (the
    DEFAULT_PERTURBATIONS), against unperturbed references. First row is
    the unperturbed baseline. A perturbed input may leave the
    OperatingPoint domain (a negative EGR or residual fraction). An error
    that is not finite raises a DomainError naming its sample, and a
    standard deviation that overflows one naming the statistic."""
    op, soi, _, ca50_ref = _columns(dataset)
    _check_soi(soi, geom)
    v_soi = cylinder_volume(soi, geom)
    cols = {f.name: getattr(op, f.name) for f in fields(op)}

    def row(quantity, delta, mode):
        c = dict(cols)
        if quantity != "none":
            c[quantity] = c[quantity] * (1.0 + delta) if mode == "rel" else c[quantity] + delta
        with np.errstate(all="ignore"):   # a non-finite error is named below
            delay, half_burn = phasing_terms(v_soi, **c, coeffs=coeffs, geom=geom)
            err = soi + delay + half_burn - ca50_ref
        what = f"the CA50 error with {quantity} {delta:+g} ({mode})"
        _check_finite(err, what)
        std, peak = _spread(err, what)
        return SensitivityRow(quantity=quantity, delta=delta, mode=mode,
                              ca50_err_std=std, ca50_err_max=peak)

    rows = [row("none", 0.0, "abs")]
    rows.extend(row(*p) for p in DEFAULT_PERTURBATIONS)
    return rows


def write_sensitivity_csv(path, rows):
    _write_csv(path, SensitivityRow._fields, rows)


# ---------------------------------------------------------------------------
# measurement-noise study

class NoiseStudyResult(NamedTuple):
    halfwidth: float
    err_std: float
    err_max: float
    n_cycles: int


def run_noise_study(halfwidth: float, ctrl_coeffs: ModelCoefficients | None = None,
                    seed: int = 0):
    """Adaptive loop at the first benchmark condition with uniform CA50
    measurement noise, which the observer sees unfiltered; statistics are of
    the actual (noise-free) CA50 error."""
    case = builtin_case(1, seed=seed)
    scenario = replace(case, reference=case.reference[:1],   # hold the first condition
                       plant={**case.plant, "ca50_noise_halfwidth": halfwidth})
    records, _ = run_scenario(scenario, ctrl_coeffs=ctrl_coeffs)
    fired = [r for r in records if r.cycle_index >= WARMUP_CYCLES]
    err = np.array([r.ca50_actual - r.ca50_ref for r in fired])
    result = NoiseStudyResult(halfwidth, *_spread(err, "the actual CA50 error"), len(fired))
    return result, records
