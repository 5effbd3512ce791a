"""Cycle-to-cycle combustion-phasing controllers.

Two strategies: an adaptive feedback law whose two lumped parameters are
observed by a normalized-gradient update from the measured CA50, and an
open-loop law that inverts the phasing model to place the injection angle.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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

# neutral injection angle that seeds the open-loop law on the first cycle,
# before a previous cycle's injection exists
FEEDFORWARD_SEED_SOI = -15.0


class AdaptiveStates(NamedTuple):
    """Measured per-cycle regressors of the feedback law."""

    x1: float   # speed * (phi_ng^c3 + phi_di^c4)
    x2: float   # phi_ng^c9 + phi_di^c10


class ControllerState(NamedTuple):
    alpha_hat: float = 0.0
    beta_hat: float = 0.0


def compute_states(op: OperatingPoint, coeffs: ModelCoefficients) -> AdaptiveStates:
    """Regressors from engine speed and the two equivalence ratios; a
    DomainError when the observer gain cannot be formed from them."""
    x1 = op.speed * fuel_term(op.phi_ng, op.phi_di, coeffs.c3, coeffs.c4)
    x2 = fuel_term(op.phi_ng, op.phi_di, coeffs.c9, coeffs.c10)
    states = AdaptiveStates(x1=x1, x2=x2)
    learning_rate(states)
    return states


def learning_rate(states: AdaptiveStates) -> float:
    """Normalized observer gain 1 / (x1^2 + x2^2), finite and positive or a
    DomainError: a Python float square overflows with an error, an infinite
    regressor to a gain of 0, and two zero states divide by zero. The states
    are read as Python floats, so numpy scalars raise the same way."""
    x1, x2 = float(states.x1), float(states.x2)
    try:
        gain = 1.0 / (x1 ** 2 + x2 ** 2)
    except (OverflowError, ZeroDivisionError):
        gain = 0.0
    if not 0.0 < gain < math.inf:
        raise DomainError("the observer gain 1/(x1^2 + x2^2) cannot be formed "
                          f"for x1 = {states.x1}, x2 = {states.x2}")
    return gain


def adaptive_soi(ref_ca50: float, states: AdaptiveStates,
                 ctrl: ControllerState) -> float:
    """Feedback injection command: u = y_d - alpha_hat*x1 - beta_hat*x2."""
    return ref_ca50 - ctrl.alpha_hat * states.x1 - ctrl.beta_hat * states.x2


def smooth_measurement(prev: float | None, measured: float,
                       filter_cycles: float) -> float:
    """Optional first-order smoothing of the CA50 measurement.

    filter_cycles is the time constant in engine cycles; 0 passes the raw
    measurement through. The closed loop feeds the observer the raw
    measurement and does not call this; it stays while perfbench traces it
    (ROADMAP item 11).
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
    )


def feedforward_soi(ref_ca50: float, op: OperatingPoint,
                    coeffs: ModelCoefficients, geom: EngineGeometry,
                    prev_soi: float = FEEDFORWARD_SEED_SOI) -> float:
    """Open-loop injection command by inverting the CA50 model.

    The injection-point state uses the volume at prev_soi, the previous
    cycle's applied injection angle (the neutral angle on the first cycle),
    and the long-run mean residual fraction stands in for the true
    per-cycle value. A command that is not finite raises a DomainError.
    """
    try:   # numpy's scalars overflow with a flag, Python's floats silently
        with np.errstate(all="raise", under="ignore"):
            _, _, delay, half_burn = phasing_terms(cylinder_volume(prev_soi, geom), op.speed,
                                                   op.phi_ng, op.phi_di, op.egr,
                                                   MEAN_RESIDUAL_FRACTION, op.p_ivc, op.t_ivc,
                                                   coeffs, geom)
            command = ref_ca50 - delay - half_burn
        if not math.isfinite(command):
            raise FloatingPointError(f"command {command}")
    except FloatingPointError as exc:
        raise DomainError(f"the feedforward inversion is not finite ({exc})") from None
    return command
