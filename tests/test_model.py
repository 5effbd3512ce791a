"""Closed-form phasing predictions against independent high-precision oracles."""

import re
from dataclasses import replace

import numpy as np
import pytest
from mpmath import exp as mp_exp, mp, mpf, power as mp_power

from dualfuel.control import feedforward_soi
from dualfuel.core import (
    DomainError,
    OperatingPoint,
    cylinder_volume,
    polytropic_state_at_soi,
)
from dualfuel.model import (
    SOI_LATEST,
    burn_duration,
    ca50_from_soc_bd,
    ca50_jacobian,
    delay_scale,
    fuel_term,
    half_burn_angle,
    ignition_delay,
    phasing_terms,
    predict_ca50,
    predict_soc,
)
from dualfuel.plant import PlantConfig, knock_integral_soc

from conftest import random_box_op, random_box_soi

mp.dps = 50

C = dict(c1="1.0504e-4", c2="1.4958e-4", c3="0.2284", c4="-0.2604",
         c5="9591.9", c6="-0.5962", c8="0.8292", c9="0.0522",
         c10="-0.9682", c11="1.3359")


def mp_delay(egr, speed, phi_ng, phi_di, p, t):
    mix = mp_power(mpf(phi_ng), mpf(C["c3"])) + mp_power(mpf(phi_di), mpf(C["c4"]))
    return ((mpf(C["c1"]) * mpf(egr) + mpf(C["c2"])) * mpf(speed) * mix
            * mp_exp(mpf(C["c5"]) * mp_power(mpf(p), mpf(C["c6"])) / mpf(t)))


def mp_half_burn(x_d, phi_ng, phi_di):
    mix = mp_power(mpf(phi_ng), mpf(C["c9"])) + mp_power(mpf(phi_di), mpf(C["c10"]))
    return mpf(C["c11"]) * mp_power(1 + mpf(x_d), mpf(C["c8"])) * mix


class TestIgnitionDelay:
    def test_pinned_operating_point(self, coeffs):
        # frozen from mpmath at the quoted injection state
        delay = ignition_delay(0.25, 1200.0, 0.4, 0.4, 32.30, 422.4, coeffs)
        assert delay == pytest.approx(7.6675879673037314, rel=1e-12)
        assert delay == pytest.approx(float(mp_delay("0.25", "1200", "0.4", "0.4",
                                                     "32.30", "422.4")), rel=1e-12)
        # inside the stated validity band for injection-to-combustion lag
        assert 1.0 < delay < 10.0

    def test_vanishing_arrhenius_term(self, coeffs):
        # c5 -> 0 collapses the exponential to 1 exactly
        tiny = replace(coeffs, c5=1e-300)
        delay = ignition_delay(0.25, 1200.0, 0.4, 0.4, 32.30, 422.4, tiny)
        expected = (tiny.c1 * 0.25 + tiny.c2) * 1200.0 * (0.4 ** tiny.c3 + 0.4 ** tiny.c4)
        assert delay == expected

    def test_hotter_injection_shortens_delay(self, coeffs, box_rng):
        for _ in range(200):
            op = random_box_op(box_rng)
            p = box_rng.uniform(20.0, 60.0)
            t = box_rng.uniform(380.0, 800.0)
            d1 = ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di, p, t, coeffs)
            d2 = ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di, p, t + 1.0, coeffs)
            assert d2 < d1

    def test_no_pilot_fuel_rejected(self, coeffs):
        with pytest.raises(DomainError):
            ignition_delay(0.25, 1200.0, 0.4, 0.0, 32.0, 420.0, coeffs)


class TestPredictSoc:
    def test_adds_delay_to_soi(self, coeffs, geom, mid_op):
        soc = predict_soc(mid_op, -15.0, coeffs, geom)
        v_ivc = cylinder_volume(geom.ivc_angle, geom)
        v_soi = cylinder_volume(-15.0, geom)
        p, t = polytropic_state_at_soi(mid_op.p_ivc, mid_op.t_ivc, v_ivc,
                                       v_soi, coeffs.k_c)
        assert soc == pytest.approx(
            -15.0 + ignition_delay(mid_op.egr, mid_op.speed, mid_op.phi_ng,
                                   mid_op.phi_di, p, t, coeffs), rel=1e-14)

    def test_soi_window_enforced(self, coeffs, geom, mid_op):
        with pytest.raises(DomainError):
            predict_soc(mid_op, geom.ivc_angle - 1.0, coeffs, geom)
        with pytest.raises(DomainError):
            predict_soc(mid_op, SOI_LATEST + 1.0, coeffs, geom)

    def test_soi_outside_window_named(self, coeffs, geom, mid_op):
        # on an array the first sample outside the window is named; a plain
        # angle keeps the bare message
        window = f"SOI must lie in [{geom.ivc_angle}, {SOI_LATEST}] deg aTDC"
        soi = np.array([-15.0, -12.0, SOI_LATEST + 1.0, geom.ivc_angle - 1.0])
        with pytest.raises(DomainError) as exc:
            predict_ca50(mid_op, soi, coeffs, geom)
        assert str(exc.value) == "sample 2: " + window
        with pytest.raises(DomainError) as exc:
            predict_ca50(mid_op, SOI_LATEST + 1.0, coeffs, geom)
        assert str(exc.value) == window

    def test_broadcasts_over_soi(self, coeffs, geom, mid_op):
        soi = np.array([-18.0, -15.0, -12.0])
        soc = predict_soc(mid_op, soi, coeffs, geom)
        for s, expected in zip(soc, (predict_soc(mid_op, x, coeffs, geom) for x in soi)):
            assert s == pytest.approx(expected, rel=1e-14)


class TestBurnDuration:
    def test_unit_bases(self, coeffs):
        assert burn_duration(0.0, 1.0, 1.0, coeffs) == pytest.approx(
            2.0 * coeffs.c7, rel=1e-14)

    def test_dilution_lengthens_burn(self, coeffs, box_rng):
        for _ in range(100):
            phi_ng, phi_di = box_rng.uniform(0.2, 0.7), box_rng.uniform(0.2, 0.5)
            x = box_rng.uniform(0.0, 0.4)
            assert burn_duration(x + 0.05, phi_ng, phi_di, coeffs) > \
                burn_duration(x, phi_ng, phi_di, coeffs)

    def test_no_pilot_fuel_rejected(self, coeffs):
        with pytest.raises(DomainError):
            burn_duration(0.2, 0.4, 0.0, coeffs)

    def test_overflowing_product_rejected(self, coeffs):
        # 1.3^770 and 0.2^-400 are finite floats; their product is not
        steep = replace(coeffs, c8=770.0, c10=-400.0)
        with pytest.raises(DomainError, match="burn duration .* overflows"):
            burn_duration(0.3, 0.4, 0.2, steep)


class TestCa50Composition:
    def test_zero_burn_duration(self, coeffs):
        assert ca50_from_soc_bd(-7.0, 0.0, coeffs) == -7.0

    def test_half_burn_at_unit_scale(self, coeffs):
        # a = ln2 makes the half-burn fraction exactly 1
        unit = replace(coeffs, wiebe_a=float(np.log(2.0)), wiebe_b=1.5)
        assert ca50_from_soc_bd(-7.0, 6.0, unit) == pytest.approx(-1.0, rel=1e-12)

    def test_half_burn_fraction_is_wiebe_half_point(self, coeffs):
        # the Wiebe profile 1 - exp(-a * f**b) burns half the mass at f
        f = coeffs.half_burn_fraction
        assert 1.0 - np.exp(-coeffs.wiebe_a * f ** coeffs.wiebe_b) == pytest.approx(
            0.5, rel=1e-12)

    def test_linear_in_bd(self, coeffs, box_rng):
        for _ in range(50):
            soc = box_rng.uniform(-15.0, 0.0)
            bd = box_rng.uniform(1.0, 30.0)
            lhs = ca50_from_soc_bd(soc, 2.0 * bd, coeffs) - soc
            rhs = 2.0 * (ca50_from_soc_bd(soc, bd, coeffs) - soc)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_unit_point_offset(self, coeffs):
        # X_d = 0, both phis 1: CA50 - SOC = 2 * c11
        offset = half_burn_angle(0.0, 1.0, 1.0, coeffs)
        assert offset == pytest.approx(2.6718, rel=1e-12)
        bd = burn_duration(0.0, 1.0, 1.0, coeffs)
        assert ca50_from_soc_bd(0.0, bd, coeffs) == pytest.approx(offset, rel=1e-12)


class TestPredictCa50:
    def test_composition_identity(self, coeffs, geom, box_rng):
        for _ in range(100):
            op = random_box_op(box_rng)
            soi = random_box_soi(box_rng)
            ca50 = predict_ca50(op, soi, coeffs, geom)
            soc = predict_soc(op, soi, coeffs, geom)
            term = half_burn_angle(op.egr + op.x_r, op.phi_ng, op.phi_di, coeffs)
            assert ca50 == soc + term

    def test_closed_form_collapse(self, coeffs, geom):
        # no dilution, unit phis, vanishing Arrhenius term
        tiny = replace(coeffs, c5=1e-300)
        op = OperatingPoint(speed=1200.0, phi_ng=1.0, phi_di=1.0, egr=0.0,
                            x_r=0.0, p_ivc=3.0, t_ivc=390.0)
        ca50 = predict_ca50(op, -15.0, tiny, geom)
        expected = -15.0 + tiny.c2 * 1200.0 * 2.0 + 2.0 * tiny.c11
        assert ca50 == pytest.approx(expected, rel=1e-14)

    def test_regression_point(self, coeffs, geom):
        # frozen from the mpmath pipeline at the pinned injection state:
        # delay 7.6675879673037314 plus half-burn 5.4355225970374248 (X_d = 0.25)
        op = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                            x_r=0.0, p_ivc=2.85, t_ivc=372.56)
        delay = ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di,
                               32.30, 422.4, coeffs)
        term = half_burn_angle(0.25, 0.4, 0.4, coeffs)
        assert delay + term == pytest.approx(
            7.6675879673037314 + 5.4355225970374248, rel=1e-12)
        assert term == pytest.approx(float(mp_half_burn("0.25", "0.4", "0.4")), rel=1e-12)

    def test_unit_slope_in_soi_with_fixed_injection_volume(self, coeffs, geom, box_rng):
        # with the injection volume pinned, SOI enters purely additively
        v_fix = cylinder_volume(-15.0, geom)
        for _ in range(100):
            op = random_box_op(box_rng)
            soi = box_rng.uniform(-20.0, -11.0)
            delta = box_rng.uniform(0.1, 1.0)
            a = predict_ca50(op, soi, coeffs, geom, v_soi=v_fix)
            b = predict_ca50(op, soi + delta, coeffs, geom, v_soi=v_fix)
            assert b - a == pytest.approx(delta, abs=1e-12)


def _op_without(fuel):
    """A point whose fuel (phi_ng or phi_di) is 0."""
    op = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=1e-12, egr=0.25,
                        x_r=0.0329, p_ivc=3.5, t_ivc=390.0)
    object.__setattr__(op, fuel, 0.0)   # phi_di = 0 bypasses the type guard
    return op


class TestFuelTerm:
    def test_zero_pilot_with_non_negative_exponent(self):
        assert fuel_term(0.4, 0.0, 0.2, 0.3) == 0.4 ** 0.2

    @pytest.mark.parametrize("c_ng, c_di", [(0.2, -1e10), (-1e10, 0.3)])
    def test_overflowing_float_power_is_a_domain_error(self, c_ng, c_di):
        # a Python float power raises OverflowError where numpy gives inf
        with pytest.raises(DomainError, match="phi\\^c overflows"):
            fuel_term(0.4, 0.3, c_ng, c_di)

    def test_overflowing_dilution_power_is_a_domain_error(self, coeffs):
        steep = replace(coeffs, c8=1e10)
        with pytest.raises(DomainError, match="c8 overflows"):
            burn_duration(0.3, 0.4, 0.3, steep)
        with pytest.raises(DomainError, match="c8 overflows"):
            half_burn_angle(0.3, 0.4, 0.3, steep)

    def test_no_pilot_rejected_anywhere_in_an_array(self):
        with pytest.raises(DomainError, match="an absent fuel"):
            fuel_term(np.array([0.4, 0.4]), np.array([0.3, 0.0]), 0.2, -0.3)

    # ignition_delay, burn_duration and compute_states have their own tests
    @pytest.mark.parametrize("evaluate", [
        lambda op, c, g: predict_soc(op, -15.0, c, g),
        lambda op, c, g: predict_ca50(op, -15.0, c, g),
        lambda op, c, g: ca50_jacobian(op, -15.0, c, g, cylinder_volume(-15.0, g)),
        lambda op, c, g: feedforward_soi(8.0, op, c, g),
        lambda op, c, g: knock_integral_soc(op, -15.0, PlantConfig(geom=g, coeffs=c)),
    ], ids=["predict_soc", "predict_ca50", "ca50_jacobian", "feedforward_soi",
            "knock_integral_soc"])
    def test_every_caller_applies_the_rule(self, coeffs, geom, evaluate):
        absent = "an absent fuel (phi = 0) has no value under a negative exponent: "
        with pytest.raises(DomainError, match=re.escape(f"{absent}phi_ng^0.2284 + "
                                                        "phi_di^-0.2604")):
            evaluate(_op_without("phi_di"), coeffs, geom)
        # OperatingPoint allows phi_ng = 0, a diesel-only point
        with pytest.raises(DomainError, match=re.escape(f"{absent}phi_ng^-0.5 + "
                                                        "phi_di^-0.2604")):
            evaluate(_op_without("phi_ng"), replace(coeffs, c3=-0.5), geom)


class TestDelayScale:
    SCALE = re.escape("the ignition-delay scale (c1*egr + c2) * N * "
                      "(phi_ng^c3 + phi_di^c4) is ")

    def test_underflow_rejected_on_floats(self, coeffs):
        with pytest.raises(DomainError, match=f"^{self.SCALE}0.0, not finite and positive$"):
            delay_scale(0.25, 1200.0, 0.4, 0.4, replace(coeffs, c3=1e300, c4=1e300))

    def test_first_bad_sample_named(self, coeffs):
        # 1.0^1e300 is 1, so only samples 1 and 2 underflow
        with pytest.raises(DomainError,
                           match=f"^sample 1: {self.SCALE}0.0, not finite and positive$"):
            delay_scale(np.full(3, 0.25), np.full(3, 1200.0), np.array([1.0, 0.4, 0.4]),
                        np.full(3, 0.4), replace(coeffs, c3=1e300, c4=1e300))

    def test_overflow_and_nan_rejected(self, coeffs):
        with pytest.raises(DomainError, match=f"^{self.SCALE}inf, not finite"):
            delay_scale(0.25, 1200.0, 0.4, 0.4, replace(coeffs, c1=1.7e308))
        # 0 * inf: no EGR factor, and a fuel power that overflows in numpy
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                DomainError, match=f"^sample 0: {self.SCALE}nan, not finite"):
            delay_scale(np.zeros(2), np.full(2, 1200.0), np.full(2, 0.4),
                        np.full(2, 0.4), replace(coeffs, c2=0.0, c3=-1e10))

    @pytest.mark.parametrize("evaluate", [
        lambda op, c, g: predict_soc(op, -15.0, c, g),
        lambda op, c, g: predict_ca50(op, -15.0, c, g),
        lambda op, c, g: ca50_jacobian(op, -15.0, c, g, cylinder_volume(-15.0, g)),
        lambda op, c, g: feedforward_soi(8.0, op, c, g),
        lambda op, c, g: knock_integral_soc(op, -15.0, PlantConfig(geom=g, coeffs=c)),
        lambda op, c, g: ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di, 32.0,
                                        420.0, c),
    ], ids=["predict_soc", "predict_ca50", "ca50_jacobian", "feedforward_soi",
            "knock_integral_soc", "ignition_delay"])
    def test_every_caller_applies_the_rule(self, coeffs, geom, mid_op, evaluate):
        with pytest.raises(DomainError, match=f"^{self.SCALE}0.0, not finite and positive$"):
            evaluate(mid_op, replace(coeffs, c3=1e300, c4=1e300), geom)


class TestPhasingTerms:
    def test_sums_to_predict_ca50(self, coeffs, geom, box_rng):
        for _ in range(50):
            op = random_box_op(box_rng)
            soi = random_box_soi(box_rng)
            delay, half_burn = phasing_terms(cylinder_volume(soi, geom), op.speed,
                                             op.phi_ng, op.phi_di, op.egr, op.x_r,
                                             op.p_ivc, op.t_ivc, coeffs, geom)
            assert soi + delay + half_burn == predict_ca50(op, soi, coeffs, geom)
            assert soi + delay == predict_soc(op, soi, coeffs, geom)

    def test_accepts_inputs_outside_the_operating_domain(self, coeffs, geom):
        # the sensitivity study perturbs EGR and the residual fraction below 0
        delay, half_burn = phasing_terms(cylinder_volume(-15.0, geom), 1200.0, 0.4,
                                         0.4, -0.05, -0.03, 3.5, 390.0, coeffs, geom)
        assert np.isfinite(delay) and np.isfinite(half_burn)
