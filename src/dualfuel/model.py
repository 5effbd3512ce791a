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


def _pow_log(phi, c):
    """phi^c * ln(phi), continued by its limit 0 at phi = 0 (phi_ng may be 0)."""
    positive = phi > 0.0
    safe = np.where(positive, phi, 1.0)
    return np.where(positive, safe ** c * np.log(safe), 0.0)


def ca50_jacobian(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                  geom: EngineGeometry) -> dict:
    """Analytic partial derivatives of predict_ca50 with respect to the model
    coefficients: {name: dCA50/dc} for c1..c6, c8..c11 and k_c.

    CA50 = SOI + ID + HB with ID = (c1*EGR + c2) * N * (phi_ng^c3 + phi_di^c4)
    * exp(A), A = c5 * P^c6 / T, and HB = c11 * (1 + X_d)^c8 * (phi_ng^c9 +
    phi_di^c10); P and T follow the polytrope of exponent k_c from IVC.
    """
    _check_soi(soi, geom)
    v_soi = cylinder_volume(soi, geom)
    p_soi, t_soi = polytropic_state_at_soi(op.p_ivc, op.t_ivc, geom.ivc_volume, v_soi,
                                           coeffs.k_c)
    a = arrhenius_exponent(p_soi, t_soi, coeffs)
    delay = ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di, p_soi, t_soi, coeffs)
    x_d = op.egr + op.x_r
    half_burn = half_burn_angle(x_d, op.phi_ng, op.phi_di, coeffs)
    # delay per unit of (c1*EGR + c2), and per unit of the mixture term
    speed_exp = op.speed * np.exp(a)
    per_rate = (op.phi_ng ** coeffs.c3 + op.phi_di ** coeffs.c4) * speed_exp
    per_mixture = (coeffs.c1 * op.egr + coeffs.c2) * speed_exp
    per_burn_mixture = coeffs.c11 * (1.0 + x_d) ** coeffs.c8
    return {
        "c1": op.egr * per_rate,
        "c2": per_rate,
        "c3": per_mixture * _pow_log(op.phi_ng, coeffs.c3),
        "c4": per_mixture * _pow_log(op.phi_di, coeffs.c4),
        "c5": delay * a / coeffs.c5,
        "c6": delay * a * np.log(p_soi),
        "c8": half_burn * np.log1p(x_d),
        "c9": per_burn_mixture * _pow_log(op.phi_ng, coeffs.c9),
        "c10": per_burn_mixture * _pow_log(op.phi_di, coeffs.c10),
        "c11": half_burn / coeffs.c11,
        "k_c": delay * a * (coeffs.c6 - 1.0) * np.log(geom.ivc_volume / v_soi),
    }
