"""A plain closed loop as the oracle of run_scenario's reuses.

reference_run recomputes everything every cycle: the scheduled point, the
controller law, the plant's SOC and burn duration. It shares with
run_scenario only the pure functions both are built from, so a reuse in
run_scenario or EnginePlant (the fixed/varying schedule split, the reference
shortcut, the adaptive regressors, the feedforward inputs, the plant's point
and angle memos) that returns a stale value shows up as a record that differs.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuel.control import (
    FEEDFORWARD_SEED_SOI,
    MEAN_RESIDUAL_FRACTION,
    ControllerState,
    adaptive_soi,
    adaptive_update,
    compute_states,
    feedforward_soi,
)
from dualfuel.core import (
    ModelCoefficients,
    OperatingPoint,
    default_coefficients,
    default_geometry,
)
from dualfuel.harness import SOI_CMD_MARGIN, SOI_CMD_MAX, WARMUP_CYCLES, run_scenario
from dualfuel.model import burn_duration, ca50_from_soc_bd
from dualfuel.plant import (
    MOTORED_CYCLES,
    CycleRecord,
    Misfire,
    PlantConfig,
    knock_integral_soc,
    quantize_soi,
)
from dualfuel.scenarios import (
    CONTROLLERS,
    Breakpoint,
    Scenario,
    schedule_value,
)


def reference_run(scenario: Scenario, ctrl_coeffs: ModelCoefficients):
    """(records, misfired) of scenario, with nothing kept from one cycle to
    the next but the loop's own state: time, EGR lag, controller state,
    previous command, pending reference and the noise generator."""
    geom = default_geometry()
    cfg = PlantConfig(geom=geom, coeffs=default_coefficients(), **scenario.plant)
    rng = np.random.default_rng(cfg.rng_seed)
    lag = 1.0 - math.exp(-1.0 / cfg.egr_lag_cycles) if cfg.egr_lag_cycles > 0 else 1.0
    adaptive = scenario.controller == "adaptive"
    ctrl = ControllerState()
    prev_soi, egr_seen = FEEDFORWARD_SEED_SOI, None
    pending_ref = schedule_value(scenario.reference, 0.0)
    t, cycle, records = 0.0, 0, []
    while t < scenario.duration_s - 1e-12:
        ref, pending_ref = pending_ref, schedule_value(scenario.reference, t)
        v = {key: schedule_value(bps, t) for key, bps in scenario.schedules.items()}
        op = OperatingPoint(**{"egr": 0.0, "x_r": MEAN_RESIDUAL_FRACTION, **v})
        if adaptive:
            states = compute_states(op, ctrl_coeffs)
            unclamped = adaptive_soi(ref, states, ctrl)
        else:
            unclamped = feedforward_soi(ref, op, ctrl_coeffs, geom, prev_soi)
        command = prev_soi = min(max(unclamped, geom.ivc_angle + SOI_CMD_MARGIN),
                                 SOI_CMD_MAX)
        # the plant: intake lag, actuator grid, then the cycle's combustion
        egr_seen = op.egr if egr_seen is None else egr_seen + lag * (op.egr - egr_seen)
        op_seen = replace(op, egr=egr_seen)
        soi = quantize_soi(command, cfg.soi_resolution)
        soc = bd = ca50 = measured = 0.0
        if cycle >= MOTORED_CYCLES:
            try:
                soc = knock_integral_soc(op_seen, soi, cfg)
            except Misfire:
                return records, True
            bd = burn_duration(egr_seen + op.x_r, op.phi_ng, op.phi_di, cfg.coeffs)
            ca50 = measured = ca50_from_soc_bd(soc, bd, cfg.coeffs)
            h = cfg.ca50_noise_halfwidth
            if h > 0.0:
                measured = ca50 + rng.uniform(-h, h)
        records.append(CycleRecord(cycle, t, op_seen, command, soi, soc, bd, ca50, measured,
                                   ref, ctrl.alpha_hat if adaptive else None,
                                   ctrl.beta_hat if adaptive else None))
        if adaptive and cycle >= WARMUP_CYCLES:
            ctrl = adaptive_update(measured, ref + (command - unclamped), states, ctrl)
        cycle += 1
        t += 120.0 / op.speed
    return records, False


# gaps and ramps in steps of 0.05 s: at 1200 RPM a cycle lasts 0.1 s, so
# breakpoints fall on cycle times and on other schedules' breakpoints
GRID_S = 0.05


@st.composite
def schedules(draw, values, max_breakpoints=3):
    """A time-ordered breakpoint list. A gap of 0 starts a breakpoint, and
    its ramp, exactly where the previous ramp ends (or at the previous
    breakpoint's time, when that one has no ramp)."""
    bps = []
    for _ in range(draw(st.integers(1, max_breakpoints))):
        t = bps[-1].t + bps[-1].ramp_s + GRID_S * draw(st.integers(0, 6)) if bps else 0.0
        bps.append(Breakpoint(t=t, value=draw(st.sampled_from(values)),
                              ramp_s=GRID_S * draw(st.integers(0, 4))))
    return bps


@st.composite
def scenarios(draw):
    """Scenarios inside the calibrated box, with no negative zeros."""
    sched = {
        "speed": draw(schedules((1200.0, 1350.0, 1500.0))),
        "phi_di": draw(schedules((0.3, 0.4, 0.5))),
        "phi_ng": draw(schedules((0.3, 0.4, 0.5))),
        "egr": draw(schedules((0.0, 0.25, 0.5))),
        "p_ivc": draw(schedules((2.9, 3.5, 4.3))),
        "t_ivc": draw(schedules((380.0, 390.0, 400.0))),
    }
    if draw(st.booleans()):
        sched["x_r"] = draw(schedules((0.02, 0.0329, 0.05)))
    plant = {
        "egr_lag_cycles": draw(st.integers(0, 5)),
        "soi_resolution": draw(st.sampled_from((0.05, 0.1, 0.25))),
        "ca50_noise_halfwidth": draw(st.sampled_from((0.0, 0.5))),
        "rng_seed": draw(st.integers(0, 3)),
    }
    return Scenario(duration_s=draw(st.sampled_from((0.8, 1.5))),
                    controller=draw(st.sampled_from(CONTROLLERS)), schedules=sched,
                    reference=draw(schedules((6.0, 8.0, 10.0))), plant=plant)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(scenario=scenarios(), c5_factor=st.sampled_from((1.0, 1.05)))
def test_run_scenario_equals_the_reference_loop(scenario, c5_factor):
    # the controller's model differs from the plant's when c5_factor is not 1
    ctrl_coeffs = default_coefficients()
    ctrl_coeffs = replace(ctrl_coeffs, c5=ctrl_coeffs.c5 * c5_factor)
    records, summary = run_scenario(scenario, ctrl_coeffs=ctrl_coeffs)
    expected, misfired = reference_run(scenario, ctrl_coeffs)
    assert summary.misfired == misfired
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        assert got == want
