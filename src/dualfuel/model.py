"""Closed-form combustion-phasing predictions.

Start of combustion comes from an Arrhenius-style ignition delay evaluated
at the injection-point state (pressure/temperature frozen at SOI); CA50
adds the half-burn offset of the dilution/mixture burn-duration correlation.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    cylinder_volume,
    holds,
    polytropic_state_at_soi,
)

# commanded injection must land between IVC and well before the exhaust stroke
SOI_LATEST = 30.0


def arrhenius_exponent(p, t, coeffs: ModelCoefficients):
    """Dimensionless exponent c5 * P^c6 / T of the ignition-delay correlation."""
    return coeffs.c5 * p ** coeffs.c6 / t


def ignition_delay(egr, speed, phi_ng, phi_di, p_soi, t_soi, coeffs: ModelCoefficients):
    """Ignition delay [CAD] between injection and start of combustion.

    (c1*EGR + c2) * N * (phi_ng^c3 + phi_di^c4) * exp(c5 * P_SOI^c6 / T_SOI),
    with P in bar and T in K.
    """
    if coeffs.c4 < 0.0 and holds(phi_di == 0.0, np.any):
        raise DomainError("no pilot fuel: phi_di = 0 with a negative diesel exponent")
    mixture = phi_ng ** coeffs.c3 + phi_di ** coeffs.c4
    return (coeffs.c1 * egr + coeffs.c2) * speed * mixture * np.exp(
        arrhenius_exponent(p_soi, t_soi, coeffs)
    )


def _check_soi(soi, geom: EngineGeometry):
    if holds(soi < geom.ivc_angle, np.any) or holds(soi > SOI_LATEST, np.any):
        raise DomainError(
            f"SOI must lie in [{geom.ivc_angle}, {SOI_LATEST}] deg aTDC"
        )


def predict_soc(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                geom: EngineGeometry, v_soi=None):
    """Start of combustion [deg aTDC] for a commanded injection angle.

    The injection-point state is projected from IVC with the polytropic
    exponent k_c. Pass v_soi to pin the injection volume explicitly (the
    controllers reuse the previous cycle's volume); by default it is the
    volume at the commanded angle.
    """
    _check_soi(soi, geom)
    if v_soi is None:
        v_soi = cylinder_volume(soi, geom)
    p_soi, t_soi = polytropic_state_at_soi(op.p_ivc, op.t_ivc, geom.ivc_volume, v_soi,
                                           coeffs.k_c)
    return soi + ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di,
                                p_soi, t_soi, coeffs)


def burn_duration(x_d, phi_ng, phi_di, coeffs: ModelCoefficients):
    """Burn duration [CAD]: c7 * (1 + X_d)^c8 * (phi_ng^c9 + phi_di^c10)."""
    if coeffs.c10 < 0.0 and holds(phi_di == 0.0, np.any):
        raise DomainError("no pilot fuel: phi_di = 0 with a negative diesel exponent")
    return coeffs.c7 * (1.0 + x_d) ** coeffs.c8 * (phi_ng ** coeffs.c9 + phi_di ** coeffs.c10)


def half_burn_angle(x_d, phi_ng, phi_di, coeffs: ModelCoefficients):
    """Crank-angle span from SOC to 50 % mass burned [CAD].

    Folded form c11 * (1 + X_d)^c8 * (phi_ng^c9 + phi_di^c10); identical to
    half_burn_fraction * burn_duration by construction of c7.
    """
    if coeffs.c10 < 0.0 and holds(phi_di == 0.0, np.any):
        raise DomainError("no pilot fuel: phi_di = 0 with a negative diesel exponent")
    return coeffs.c11 * (1.0 + x_d) ** coeffs.c8 * (phi_ng ** coeffs.c9 + phi_di ** coeffs.c10)


def ca50_from_soc_bd(soc, bd, coeffs: ModelCoefficients):
    """CA50 [deg aTDC] from start of combustion and burn duration."""
    return soc + coeffs.half_burn_fraction * bd


def predict_ca50(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                 geom: EngineGeometry, v_soi=None):
    """CA50 [deg aTDC]: predicted SOC plus the half-burn offset.

    Dilution is the operating point's EGR plus residual fraction.
    """
    soc = predict_soc(op, soi, coeffs, geom, v_soi=v_soi)
    x_d = op.egr + op.x_r
    return soc + half_burn_angle(x_d, op.phi_ng, op.phi_di, coeffs)
