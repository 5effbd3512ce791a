"""Domain types, geometry kinematics and the polytropic state relation.

Expected values are frozen from an independent high-precision (mpmath)
evaluation of the defining formulas; the oracles are recomputed inline so
the frozen literals stay auditable.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, mpf, pi as mp_pi, cos as mp_cos, sin as mp_sin, sqrt as mp_sqrt

import dualfuel as df
from dualfuel.core import DomainError

from conftest import random_box_op

mp.dps = 50


def mp_volume(theta_deg, bore="0.126", stroke="0.166", rod="0.251", cr="17"):
    area = mp_pi * mpf(bore) ** 2 / 4
    vd = area * mpf(stroke)
    vc = vd / (mpf(cr) - 1)
    th = mpf(theta_deg) * mp_pi / 180
    r = mpf(stroke) / 2
    s = r * (1 - mp_cos(th)) + mpf(rod) - mp_sqrt(mpf(rod) ** 2 - (r * mp_sin(th)) ** 2)
    return vc + area * s


class TestGeometry:
    def test_reference_engine_displacement(self, geom):
        # per-cylinder: 2.0699 L displaced, 0.1294 L clearance
        assert geom.displaced_volume * 1e3 == pytest.approx(2.0698508861882496, rel=1e-12)
        assert geom.clearance_volume * 1e3 == pytest.approx(0.12936568038676560, rel=1e-12)
        # six cylinders reassemble the 12.4 L total to within 1 %
        assert 6 * geom.displaced_volume * 1e3 == pytest.approx(12.4, rel=0.01)

    def test_volume_at_tdc_is_clearance(self, geom):
        assert df.cylinder_volume(0.0, geom) == pytest.approx(geom.clearance_volume, rel=1e-14)

    def test_volume_at_bdc_is_total(self, geom):
        expected = geom.clearance_volume + geom.displaced_volume
        assert df.cylinder_volume(180.0, geom) == pytest.approx(expected, rel=1e-12)

    def test_volume_matches_exact_kinematics(self, geom):
        for theta in (-148.5, -90.0, -15.0, 7.5, 120.0):
            assert df.cylinder_volume(theta, geom) == pytest.approx(
                float(mp_volume(theta)), rel=1e-12)

    def test_volume_symmetric(self, geom):
        theta = np.linspace(0.0, 180.0, 181)
        np.testing.assert_allclose(df.cylinder_volume(theta, geom),
                                   df.cylinder_volume(-theta, geom), rtol=1e-14)

    def test_ivc_volume_is_volume_at_ivc(self, geom):
        assert geom.ivc_volume == df.cylinder_volume(geom.ivc_angle, geom)

    def test_ivc_volume_is_a_python_float(self, geom):
        # the plant's scalar march divides by it and raises to a power at
        # every node, and a Python float power raises on overflow
        assert type(geom.ivc_volume) is float

    def test_replaced_geometry_recomputes_derived_values(self, geom):
        # the derived volumes are cached per instance; a replaced geometry
        # must not carry the old values
        assert geom.clearance_volume > 0.0
        wide = replace(geom, bore=0.14)
        area = math.pi * 0.14 ** 2 / 4.0
        assert wide.piston_area == area
        assert wide.clearance_volume == area * geom.stroke / (geom.compression_ratio - 1.0)
        assert wide.clearance_volume != geom.clearance_volume

    def test_invalid_geometry_rejected(self):
        good = dict(bore=0.126, stroke=0.166, rod_length=0.251,
                    compression_ratio=17.0, ivc_angle=-148.5)
        with pytest.raises(DomainError):
            df.EngineGeometry(**{**good, "compression_ratio": 1.0})
        with pytest.raises(DomainError):
            df.EngineGeometry(**{**good, "rod_length": 0.08})
        with pytest.raises(DomainError):
            df.EngineGeometry(**{**good, "bore": 0.0})


BASE_POINT = dict(speed=1200, phi_ng=0.4, phi_di=0.4, egr=0.25, x_r=0.03,
                  p_ivc=3.0, t_ivc=390.0)


POINT_MESSAGES = {
    "speed": "engine speed must be positive",
    "egr": "EGR fraction must lie in [0, 1)",
    "x_r": "residual fraction must lie in [0, 1)",
    "phi_ng": "phi_ng must be non-negative",
    "phi_di": "phi_di must be positive",
    "p_ivc": "p_ivc must be positive",
    "t_ivc": "t_ivc must be positive",
}


def column_point(**bad):
    """BASE_POINT as 3-element columns, with the given middle elements."""
    cols = {k: np.full(3, float(v)) for k, v in BASE_POINT.items()}
    for k, v in bad.items():
        cols[k][1] = v
    return cols


class TestOperatingPoint:
    def test_valid_point_accepted(self):
        df.OperatingPoint(speed=1200, phi_ng=0.4, phi_di=0.4, egr=0.25,
                          x_r=0.03, p_ivc=3.0, t_ivc=390.0)

    @pytest.mark.parametrize("bad", [
        (dict(speed=0.0), "speed"), (dict(egr=-0.1), "egr"), (dict(egr=1.0), "egr"),
        (dict(x_r=1.0), "x_r"), (dict(phi_ng=-0.1), "phi_ng"), (dict(phi_di=0.0), "phi_di"),
        (dict(p_ivc=0.0), "p_ivc"), (dict(t_ivc=-1.0), "t_ivc"),
        # NaN fails every comparison, so each field rejects it
        *[({name: float("nan")}, name) for name in BASE_POINT],
        # numpy scalars and 0-d arrays take the scalar branch
        (dict(speed=np.float64(0.0)), "speed"), (dict(egr=np.float64(1.0)), "egr"),
        (dict(phi_di=np.float64("nan")), "phi_di"), (dict(t_ivc=np.array(-1.0)), "t_ivc"),
        # one bad element among good ones fails the whole column
        (column_point(speed=0.0), "speed"), (column_point(x_r=-0.01), "x_r"),
        (column_point(phi_ng=float("nan")), "phi_ng"), (column_point(p_ivc=0.0), "p_ivc"),
    ])
    def test_invalid_point_rejected(self, bad):
        # the message names the bad field, whatever the kind of value
        bad, field = bad
        with pytest.raises(DomainError, match=re.escape(POINT_MESSAGES[field])):
            df.OperatingPoint(**{**BASE_POINT, **bad})


class TestPolytropic:
    def test_identity_at_equal_volumes(self):
        p, t = df.polytropic_state_at_soi(3.0, 390.0, 1e-3, 1e-3, 1.3)
        assert p == 3.0 and t == 390.0

    def test_unit_exponent_leaves_temperature(self):
        _, t = df.polytropic_state_at_soi(3.0, 390.0, 2e-3, 1e-3, 1.0)
        assert t == pytest.approx(390.0, rel=1e-14)

    def test_compression_example(self):
        # frozen from mpmath: 2.85 * 10^1.0546 and 372.56 * 10^0.0546
        p, t = df.polytropic_state_at_soi(2.85, 372.56, 1e-2, 1e-3, 1.0546)
        assert p == pytest.approx(32.318028530408393, rel=1e-12)
        assert t == pytest.approx(422.47034067680530, rel=1e-12)
        # and matches the coarse engineering numbers
        assert p == pytest.approx(32.30, abs=0.05)
        assert t == pytest.approx(422.4, abs=0.1)

    def test_round_trip(self, box_rng):
        for _ in range(1000):
            p0 = box_rng.uniform(1.0, 5.0)
            t0 = box_rng.uniform(300.0, 450.0)
            v0 = box_rng.uniform(1e-3, 3e-3)
            v1 = box_rng.uniform(1e-4, v0)
            k = box_rng.uniform(1.01, 1.4)
            p1, t1 = df.polytropic_state_at_soi(p0, t0, v0, v1, k)
            p2, t2 = df.polytropic_state_at_soi(p1, t1, v1, v0, k)
            assert p2 == pytest.approx(p0, rel=1e-12)
            assert t2 == pytest.approx(t0, rel=1e-12)

    def test_state_not_finite_rejected(self):
        # a Python float power raises OverflowError, numpy's gives inf
        with pytest.raises(DomainError, match="not finite for k_c = 10000000000.0"):
            df.polytropic_state_at_soi(3.0, 390.0, 2e-3, 1e-3, 1e10)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="k_c = 439.0"):
            # T_SOI overflows alone: 390 * 5^438 is inf, 3 * 5^439 is not
            df.polytropic_state_at_soi(3.0, 390.0, 5e-3, np.array([5e-3, 1e-3]), 439.0)

    def test_nonpositive_volume_rejected(self):
        with pytest.raises(DomainError):
            df.polytropic_state_at_soi(3.0, 390.0, 0.0, 1e-3, 1.3)
        with pytest.raises(DomainError):
            df.polytropic_state_at_soi(3.0, 390.0, 1e-2, np.array([1e-3, 0.0, 2e-3]), 1.3)


class TestModelCoefficients:
    def test_c7_derived_from_c11(self, coeffs):
        # frozen from mpmath: 1.3359 / (ln2/6.908)^(1/1.5)
        assert coeffs.c7 == pytest.approx(6.1866924686329439, rel=1e-12)
        assert coeffs.c7 == pytest.approx(6.19, abs=5e-3)

    def test_half_burn_identity(self, coeffs):
        assert coeffs.half_burn_fraction * coeffs.c7 == pytest.approx(
            coeffs.c11, rel=1e-12)

    def test_replaced_coefficients_recompute_derived_values(self, coeffs):
        # half_burn_fraction and c7 are cached per instance; a replaced
        # Wiebe shape must not carry the old values
        assert coeffs.c7 > 0.0
        steep = coeffs.replace(wiebe_a=5.0)
        fraction = (math.log(2.0) / 5.0) ** (1.0 / coeffs.wiebe_b)
        assert steep.half_burn_fraction == fraction
        assert steep.c7 == coeffs.c11 / fraction
        assert steep.c7 != coeffs.c7

    @pytest.mark.parametrize("bad", [
        dict(c5=0.0), dict(c5=-1.0), dict(c11=0.0), dict(k_c=1.0),
        dict(wiebe_a=0.0), dict(wiebe_b=-1.0),
        dict(c1=math.nan), dict(c2=math.inf), dict(c5=math.nan), dict(c6=-math.inf),
        dict(k_c=math.inf), dict(wiebe_b=math.nan),
    ])
    def test_invariants(self, coeffs, bad):
        with pytest.raises(DomainError):
            coeffs.replace(**bad)

    @pytest.mark.parametrize("shape, fraction", [
        (dict(wiebe_b=1e-05), "0.0"),                 # the fraction underflows
        (dict(wiebe_a=0.01, wiebe_b=1e-3), "inf"),    # ... or overflows
    ])
    def test_half_burn_fraction_and_c7_finite_and_positive(self, coeffs, shape,
                                                           fraction):
        with pytest.raises(DomainError, match=f"half-burn fraction {fraction} and c7"):
            coeffs.replace(**shape)
        # the file that save_coefficients writes carries c7, which from_dict
        # reads only after the shape is checked
        with pytest.raises(DomainError, match="half-burn fraction"):
            df.ModelCoefficients.from_dict({**coeffs.to_dict(), **shape})

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda d: d.update(c3=None), "'c3' must be a number", id="null"),
        pytest.param(lambda d: d.update(c7="x"), "'c7' must be a number", id="c7-string"),
        pytest.param(lambda d: d.update(wiebe_A=5), "unknown coefficient 'wiebe_A'",
                     id="unknown-key"),
    ])
    def test_from_dict_rejects_non_number(self, coeffs, edit, expected):
        d = coeffs.to_dict()
        edit(d)
        with pytest.raises(ValueError, match=expected):
            df.ModelCoefficients.from_dict(d)

    def test_json_round_trip(self, tmp_path, coeffs):
        path = tmp_path / "coeffs.json"
        df.save_coefficients(path, coeffs)
        loaded = df.load_coefficients(path)
        assert loaded == coeffs
        # the serialised form carries the derived c7 for reference
        assert json.loads(path.read_text())["c7"] == pytest.approx(coeffs.c7)

    @pytest.mark.parametrize("c1_over_c2, accepted", [
        (-0.5, True), (-1.0, False), (-2.0, False),
    ])
    def test_file_needs_positive_delay_scale(self, tmp_path, coeffs, c1_over_c2,
                                              accepted):
        # c1*egr + c2 > 0 on egr in [0, 1) holds iff c2 > 0 and c1 + c2 > 0;
        # ModelCoefficients itself accepts the point, as calibration trials need
        path = tmp_path / "coeffs.json"
        df.save_coefficients(path, coeffs.replace(c1=c1_over_c2 * coeffs.c2))
        if accepted:
            assert df.load_coefficients(path).c1 == c1_over_c2 * coeffs.c2
        else:
            with pytest.raises(DomainError, match="c1 \\+ c2 > 0"):
                df.load_coefficients(path)

    def test_inconsistent_c7_rejected(self, coeffs):
        # a file's c7 must equal c11 / half_burn_fraction within 1e-9 relative
        d = coeffs.to_dict()
        assert df.ModelCoefficients.from_dict({**d, "c7": d["c7"] * (1.0 + 5e-10)}) == coeffs
        for c7 in (d["c7"] * 2.0, d["c7"] * (1.0 + 2e-9), float("nan")):
            with pytest.raises(DomainError, match=re.escape(
                    f"coefficient 'c7' = {c7} contradicts c11 / half_burn_fraction = "
                    f"{coeffs.c7}")):
                df.ModelCoefficients.from_dict({**d, "c7": c7})


def test_box_sampler_produces_valid_points(box_rng):
    for _ in range(100):
        random_box_op(box_rng)
