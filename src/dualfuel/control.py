"""Cycle-to-cycle combustion-phasing controllers.

Two strategies: an adaptive feedback law whose two lumped parameters are
observed by a normalized-gradient update from the measured CA50, and an
open-loop law that inverts the phasing model to place the injection angle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    cylinder_volume,
)
from .model import fuel_term, phasing_terms

# long-run average in-cylinder residual fraction, used by the open-loop law
# in place of the unmeasurable per-cycle value
MEAN_RESIDUAL_FRACTION = 0.0329

# neutral injection angle whose volume seeds the open-loop law on the first
# cycle, before a previous-cycle volume exists
FEEDFORWARD_SEED_SOI = -15.0


@dataclass(frozen=True)
class AdaptiveStates:
    """Measured per-cycle regressors of the feedback law."""

    x1: float   # speed * (phi_ng^c3 + phi_di^c4)
    x2: float   # phi_ng^c9 + phi_di^c10


@dataclass(frozen=True)
class ControllerState:
    alpha_hat: float = 0.0
    beta_hat: float = 0.0
    last_v_soi: float | None = None   # previous cycle's injection volume [m^3]


def compute_states(op: OperatingPoint, coeffs: ModelCoefficients) -> AdaptiveStates:
    """Regressors from engine speed and the two equivalence ratios."""
    x1 = op.speed * fuel_term(op.phi_ng, op.phi_di, coeffs.c3, coeffs.c4)
    x2 = fuel_term(op.phi_ng, op.phi_di, coeffs.c9, coeffs.c10)
    return AdaptiveStates(x1=x1, x2=x2)


def learning_rate(states: AdaptiveStates) -> float:
    """Normalized observer gain 1 / (x1^2 + x2^2)."""
    norm = states.x1 ** 2 + states.x2 ** 2
    if norm <= 0.0:
        raise DomainError("states must not both be zero")
    return 1.0 / norm


def adaptive_soi(ref_ca50: float, states: AdaptiveStates,
                 ctrl: ControllerState) -> float:
    """Feedback injection command: u = y_d - alpha_hat*x1 - beta_hat*x2."""
    return ref_ca50 - ctrl.alpha_hat * states.x1 - ctrl.beta_hat * states.x2


def smooth_measurement(prev: float | None, measured: float,
                       filter_cycles: float) -> float:
    """Optional first-order smoothing of the CA50 measurement.

    filter_cycles is the time constant in engine cycles; 0 (the default
    everywhere) passes the raw measurement through.
    """
    if filter_cycles <= 0.0 or prev is None:
        return measured
    gain = 1.0 - math.exp(-1.0 / filter_cycles)
    return prev + gain * (measured - prev)


def adaptive_update(measured_ca50: float, ref_ca50: float,
                    states: AdaptiveStates, ctrl: ControllerState) -> ControllerState:
    """Observer step along (x1, x2), scaled by the normalized gain.

    With constant states and plant parameters one update is deadbeat: the
    next cycle's output equals the reference exactly.
    """
    err = measured_ca50 - ref_ca50
    eta = learning_rate(states)
    return ControllerState(
        alpha_hat=ctrl.alpha_hat + eta * states.x1 * err,
        beta_hat=ctrl.beta_hat + eta * states.x2 * err,
        last_v_soi=ctrl.last_v_soi,
    )


def feedforward_soi(ref_ca50: float, op: OperatingPoint,
                    coeffs: ModelCoefficients, geom: EngineGeometry,
                    ctrl: ControllerState) -> tuple[float, ControllerState]:
    """Open-loop injection command by inverting the CA50 model.

    The injection-point state uses the previous cycle's injection volume
    (seeded at the neutral angle on the first call) and the long-run mean
    residual fraction stands in for the true per-cycle value. Returns the
    command and the state updated with the newly issued command's volume.
    """
    if ctrl.last_v_soi is not None:
        v_soi = ctrl.last_v_soi
    else:
        v_soi = cylinder_volume(FEEDFORWARD_SEED_SOI, geom)
    delay, half_burn = phasing_terms(v_soi, op.speed, op.phi_ng, op.phi_di, op.egr,
                                     MEAN_RESIDUAL_FRACTION, op.p_ivc, op.t_ivc,
                                     coeffs, geom)
    command = ref_ca50 - delay - half_burn
    new_state = replace(ctrl, last_v_soi=cylinder_volume(command, geom))
    return command, new_state
