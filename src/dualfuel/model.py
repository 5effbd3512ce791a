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


def fuel_term(phi_ng, phi_di, c_ng, c_di):
    """phi_ng^c_ng + phi_di^c_di; an absent fuel (phi = 0) has no value under a
    negative exponent."""
    if (c_ng < 0.0 and holds(phi_ng == 0.0, np.any)
            or c_di < 0.0 and holds(phi_di == 0.0, np.any)):
        raise DomainError("an absent fuel (phi = 0) has no value under a negative "
                          f"exponent: phi_ng^{c_ng} + phi_di^{c_di}")
    try:
        return phi_ng ** c_ng + phi_di ** c_di
    except OverflowError:   # a Python float power raises; numpy gives inf instead
        raise DomainError(f"phi^c overflows for exponents {c_ng} and {c_di}") from None


def arrhenius_exponent(p, t, coeffs: ModelCoefficients):
    """Dimensionless exponent c5 * P^c6 / T of the ignition-delay correlation."""
    return coeffs.c5 * p ** coeffs.c6 / t


def delay_scale(egr, speed, phi_ng, phi_di, coeffs: ModelCoefficients):
    """(c1*EGR + c2) * N * (phi_ng^c3 + phi_di^c4): the ignition delay without
    its Arrhenius factor, shared by the model and the plant's integrand. A
    scale that is not finite and positive (phi^c3 and phi^c4 may both
    underflow to 0) is a DomainError; on arrays it names the first such
    sample."""
    scale = (coeffs.c1 * egr + coeffs.c2) * speed * fuel_term(
        phi_ng, phi_di, coeffs.c3, coeffs.c4)
    bad = (scale <= 0.0) | (scale >= np.inf) | (scale != scale)   # nan: 0 * inf
    if bad is not False and holds(bad, np.any):   # a valid Python float stops at False
        sample = "" if np.ndim(bad) == 0 else f"sample {np.flatnonzero(bad)[0]}: "
        raise DomainError(f"{sample}the ignition-delay scale (c1*egr + c2) * N * (phi_ng^c3 "
                          f"+ phi_di^c4) is {np.extract(bad, scale)[0]}, not finite and positive")
    return scale


def ignition_delay(egr, speed, phi_ng, phi_di, p_soi, t_soi, coeffs: ModelCoefficients):
    """Ignition delay [CAD] between injection and start of combustion:
    delay_scale * exp(c5 * P_SOI^c6 / T_SOI), with P in bar and T in K."""
    return delay_scale(egr, speed, phi_ng, phi_di, coeffs) * np.exp(
        arrhenius_exponent(p_soi, t_soi, coeffs))


def _wiebe_term(scale, x_d, phi_ng, phi_di, coeffs: ModelCoefficients):
    """scale * (1 + X_d)^c8 * (phi_ng^c9 + phi_di^c10), the form of the burn
    duration (scale c7) and of the half-burn span (scale c11)."""
    mixture = fuel_term(phi_ng, phi_di, coeffs.c9, coeffs.c10)
    try:
        return scale * (1.0 + x_d) ** coeffs.c8 * mixture
    except OverflowError:
        raise DomainError(f"(1 + X_d)^c8 overflows for c8 = {coeffs.c8}") from None


def burn_duration(x_d, phi_ng, phi_di, coeffs: ModelCoefficients):
    """Burn duration [CAD]: c7 * (1 + X_d)^c8 * (phi_ng^c9 + phi_di^c10), for
    the plant's plain floats. A value that is not finite is a DomainError:
    the product of two finite powers overflows to inf without raising."""
    bd = _wiebe_term(coeffs.c7, x_d, phi_ng, phi_di, coeffs)
    if not bd < np.inf:
        raise DomainError("the burn duration c7 * (1 + X_d)^c8 * (phi_ng^c9 + phi_di^c10) "
                          "overflows")
    return bd


def half_burn_angle(x_d, phi_ng, phi_di, coeffs: ModelCoefficients):
    """Crank-angle span from SOC to 50 % mass burned [CAD].

    Folded form c11 * (1 + X_d)^c8 * (phi_ng^c9 + phi_di^c10); identical to
    half_burn_fraction * burn_duration by construction of c7.
    """
    return _wiebe_term(coeffs.c11, x_d, phi_ng, phi_di, coeffs)


def phasing_terms(v_soi, speed, phi_ng, phi_di, egr, x_r, p_ivc, t_ivc,
                  coeffs: ModelCoefficients, geom: EngineGeometry):
    """The one forward evaluation of CA50 = SOI + delay + span at injection
    volume v_soi, from plain values or arrays: (P_SOI, Arrhenius exponent A,
    ignition delay, half-burn span), the delay as delay_scale * exp(A). The
    operating point is not checked, as the sensitivity study perturbs it out
    of the domain; the delay scale is."""
    p_soi, t_soi = polytropic_state_at_soi(p_ivc, t_ivc, geom.ivc_volume, v_soi, coeffs.k_c)
    a = arrhenius_exponent(p_soi, t_soi, coeffs)
    return (p_soi, a, delay_scale(egr, speed, phi_ng, phi_di, coeffs) * np.exp(a),
            half_burn_angle(egr + x_r, phi_ng, phi_di, coeffs))


def _check_soi(soi, geom: EngineGeometry):
    """A DomainError for an SOI outside the window; on an array it names the
    first such sample."""
    outside = (soi < geom.ivc_angle) | (soi > SOI_LATEST)
    if holds(outside, np.any):
        sample = "" if np.ndim(outside) == 0 else f"sample {np.flatnonzero(outside)[0]}: "
        raise DomainError(f"{sample}SOI must lie in [{geom.ivc_angle}, {SOI_LATEST}] "
                          "deg aTDC")


def _checked_chain(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                   geom: EngineGeometry, v_soi=None):
    """phasing_terms for op's fields after the SOI-window check, at the
    injection volume v_soi (by default the volume at soi)."""
    _check_soi(soi, geom)
    if v_soi is None:
        v_soi = cylinder_volume(soi, geom)
    return phasing_terms(v_soi, op.speed, op.phi_ng, op.phi_di, op.egr, op.x_r,
                         op.p_ivc, op.t_ivc, coeffs, geom)


def predict_soc(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                geom: EngineGeometry):
    """Start of combustion [deg aTDC] for a commanded injection angle:
    SOI plus the ignition delay at the volume of that angle."""
    return soi + _checked_chain(op, soi, coeffs, geom)[2]


def ca50_from_soc_bd(soc, bd, coeffs: ModelCoefficients):
    """CA50 [deg aTDC] from start of combustion and burn duration."""
    return soc + coeffs.half_burn_fraction * bd


def predict_ca50(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                 geom: EngineGeometry, v_soi=None):
    """CA50 [deg aTDC]: SOI plus ignition delay plus half-burn span. v_soi
    pins the injection volume; by default it is the volume at soi."""
    _, _, delay, half_burn = _checked_chain(op, soi, coeffs, geom, v_soi)
    return soi + delay + half_burn


def _pow_log(phi, c):
    """phi^c * ln(phi), continued by its limit 0 at phi = 0 (phi_ng may be 0)."""
    positive = phi > 0.0
    safe = np.where(positive, phi, 1.0)
    return np.where(positive, safe ** c * np.log(safe), 0.0)


def ca50_jacobian(op: OperatingPoint, soi, coeffs: ModelCoefficients,
                  geom: EngineGeometry, v_soi):
    """(CA50, partials) at injection volume v_soi, the volume at soi: the
    value of predict_ca50, bit for bit, and its analytic partial derivatives
    with respect to the model coefficients, {name: dCA50/dc} for c1..c6,
    c8..c11 and k_c, both from one evaluation of the phasing chain.

    CA50 = SOI + ID + HB with ID = (c1*EGR + c2) * N * (phi_ng^c3 + phi_di^c4)
    * exp(A), A = c5 * P^c6 / T, and HB = c11 * (1 + X_d)^c8 * (phi_ng^c9 +
    phi_di^c10); P and T follow the polytrope of exponent k_c from IVC.
    """
    p_soi, a, delay, span = _checked_chain(op, soi, coeffs, geom, v_soi)
    x_d = op.egr + op.x_r
    # delay per unit of (c1*EGR + c2), and per unit of the mixture term
    speed_exp = op.speed * np.exp(a)
    per_rate = fuel_term(op.phi_ng, op.phi_di, coeffs.c3, coeffs.c4) * speed_exp
    per_mixture = (coeffs.c1 * op.egr + coeffs.c2) * speed_exp
    per_burn_mixture = coeffs.c11 * (1.0 + x_d) ** coeffs.c8
    return soi + delay + span, {
        "c1": op.egr * per_rate,
        "c2": per_rate,
        "c3": per_mixture * _pow_log(op.phi_ng, coeffs.c3),
        "c4": per_mixture * _pow_log(op.phi_di, coeffs.c4),
        "c5": delay * a / coeffs.c5,
        "c6": delay * a * np.log(p_soi),
        "c8": span * np.log1p(x_d),
        "c9": per_burn_mixture * _pow_log(op.phi_ng, coeffs.c9),
        "c10": per_burn_mixture * _pow_log(op.phi_di, coeffs.c10),
        "c11": span / coeffs.c11,
        "k_c": delay * a * (coeffs.c6 - 1.0) * np.log(geom.ivc_volume / v_soi),
    }
