"""Plant behaviour: quadrature SOC, the frozen-state gap, cycle stepping,
actuator and transport imperfections."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualfuel import _kernels
from dualfuel.calib import generate_dataset
from dualfuel.core import (
    DomainError,
    EngineGeometry,
    OperatingPoint,
    default_coefficients,
    default_geometry,
)
from dualfuel.harness import run_scenario
from dualfuel.model import predict_soc
from dualfuel.plant import (
    EXPANSION_END,
    MISFIRE_LIMIT,
    MOTORED_CYCLES,
    QUAD_STEP_MIN,
    CycleRecord,
    EnginePlant,
    Misfire,
    PlantConfig,
    check_phasing_order,
    knock_integral_soc,
    knock_integral_value,
    quantize_soi,
    _kernel_args,
)
from dualfuel.scenarios import builtin_case

from conftest import BOX, SOI_BOX, random_box_op, random_box_soi


@pytest.fixture
def cfg(geom, coeffs):
    return PlantConfig(geom=geom, coeffs=coeffs)


@pytest.fixture
def cfg_matched(geom, coeffs):
    # polytrope matched to the model so differences isolate the freezing step
    return PlantConfig(geom=geom, coeffs=coeffs, plant_poly_exp=coeffs.k_c)


class TestPlantConfig:
    @pytest.mark.parametrize("bad", [
        dict(quad_step=0.0), dict(quad_step=0.6), dict(soi_resolution=0.0),
        dict(egr_lag_cycles=-1), dict(ca50_noise_halfwidth=-1.0),
        dict(ca50_noise_halfwidth=float("nan")), dict(ca50_noise_halfwidth=float("inf")),
        dict(plant_poly_exp=float("nan")), dict(plant_poly_exp=-2.0),
        dict(plant_poly_exp=1.0), dict(quad_step=float("nan")),
        dict(soi_resolution=float("inf")), dict(soi_resolution=float("nan")),
        dict(egr_lag_cycles=float("inf")), dict(egr_lag_cycles=float("nan")),
        dict(rng_seed=1.5), dict(rng_seed=1e30), dict(rng_seed=-1), dict(rng_seed=True),
        dict(ca50_noise_halfwidth=9e307),   # the draw's span 2 * 9e307 overflows
        dict(quad_step=1e-300), dict(quad_step=0.5 * QUAD_STEP_MIN),
        dict(soi_resolution=1e-310), dict(soi_resolution=5e-324),   # 720 / r is inf
    ])
    def test_invalid_config_rejected(self, geom, coeffs, bad):
        with pytest.raises(DomainError):
            PlantConfig(geom=geom, coeffs=coeffs, **bad)

    def test_quad_step_floor_bounds_the_march(self, geom, coeffs):
        # a step too small to move the angle (soi + step * i == soi) made the
        # march loop forever (1e-300 above); the floor itself is accepted
        cfg = PlantConfig(geom=geom, coeffs=coeffs, quad_step=QUAD_STEP_MIN)
        assert (MISFIRE_LIMIT - geom.ivc_angle) / cfg.quad_step < 21000

    def test_overflowing_pressure_power_is_a_domain_error(self, geom, coeffs):
        cfg = PlantConfig(geom=geom, coeffs=replace(coeffs, c6=1e300))
        with pytest.raises(DomainError, match="p_ivc\\^c6 overflows"):
            knock_integral_soc(HOT_OP, -15.0, cfg)

    def test_overflowing_compression_power_is_a_domain_error(self, geom, coeffs):
        # p_ivc^c6 stays finite, but the integrand's r^e (e = k*c6 - k + 1)
        # overflows in the march's Python floats
        op = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                            x_r=0.0329, p_ivc=3.5, t_ivc=390.0)
        cfg = PlantConfig(geom=geom, coeffs=replace(coeffs, c6=400.0))
        with pytest.raises(DomainError, match="knock integrand overflows for c6 = 400.0"):
            knock_integral_soc(op, -15.0, cfg)
        with pytest.raises(DomainError, match="knock integrand overflows for c6 = 400.0"):
            knock_integral_value(op, -15.0, -10.0, cfg)


HOT_OP = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                        x_r=0.0329, p_ivc=32.30, t_ivc=422.4)


def _constant_volume_geometry():
    # compression ratio barely above 1: the volume (hence the polytropic
    # trace) is constant to ~1e-6 over the whole window, so freezing the
    # charge state at injection is exact
    return EngineGeometry(bore=0.126, stroke=0.166, rod_length=0.251,
                          compression_ratio=1.0 + 1e-6, ivc_angle=-148.5)


class TestKnockIntegralSoc:
    def test_frozen_trace_matches_closed_form(self, coeffs):
        geom_cv = _constant_volume_geometry()
        cfg0 = PlantConfig(geom=geom_cv, coeffs=coeffs)
        soc_quad = knock_integral_soc(HOT_OP, -15.0, cfg0)
        soc_model = predict_soc(HOT_OP, -15.0, coeffs, geom_cv)
        assert abs(soc_quad - soc_model) < 1e-4
        assert abs(soc_quad - soc_model) < cfg0.quad_step / 2

    def test_step_refinement(self, cfg, box_rng):
        # halving the quadrature step barely moves the crossing
        for _ in range(20):
            op = random_box_op(box_rng)
            soi = random_box_soi(box_rng)
            fine = PlantConfig(geom=cfg.geom, coeffs=cfg.coeffs,
                               quad_step=cfg.quad_step / 2)
            a = knock_integral_soc(op, soi, cfg)
            b = knock_integral_soc(op, soi, fine)
            assert abs(a - b) < 0.01

    def test_integral_is_one_at_soc(self, cfg, box_rng):
        for _ in range(50):
            op = random_box_op(box_rng)
            soi = random_box_soi(box_rng)
            soc = knock_integral_soc(op, soi, cfg)
            assert knock_integral_value(op, soi, soc, cfg) == pytest.approx(
                1.0, abs=1e-6)

    def test_integral_end_before_injection_rejected(self, cfg, mid_op):
        with pytest.raises(DomainError, match="theta_end must not precede soi"):
            knock_integral_value(mid_op, -15.0, -15.5, cfg)

    def test_soc_monotone_in_soi(self, cfg, box_rng):
        delta = 0.5
        for _ in range(50):
            op = random_box_op(box_rng)
            soi = box_rng.uniform(-20.0, -11.0)
            a = knock_integral_soc(op, soi, cfg)
            b = knock_integral_soc(op, soi + delta, cfg)
            assert 0.0 < b - a < 2.0 * delta

    @settings(deadline=None, derandomize=True)
    @given(op=st.builds(OperatingPoint,
                        **{k: st.floats(lo, hi) for k, (lo, hi) in BOX.items()}),
           commands=st.lists(st.floats(*SOI_BOX), min_size=2, max_size=8))
    def test_soc_non_decreasing_on_actuator_grid(self, op, commands):
        # quantized angles repeat; equal angles must give equal SOCs
        cfg = PlantConfig(geom=default_geometry(),
                          coeffs=default_coefficients())
        sois = sorted(quantize_soi(c, cfg.soi_resolution) for c in commands)
        socs = [knock_integral_soc(op, soi, cfg) for soi in sois]
        for (soi_a, a), (soi_b, b) in zip(zip(sois, socs), zip(sois[1:], socs[1:])):
            assert a < b if soi_a < soi_b else a == b

    def test_pre_ivc_injection_rejected(self, cfg, mid_op):
        with pytest.raises(DomainError):
            knock_integral_soc(mid_op, cfg.geom.ivc_angle - 5.0, cfg)

    def test_misfire_raises(self, cfg):
        op = OperatingPoint(speed=1500.0, phi_ng=0.2, phi_di=0.2, egr=0.4,
                            x_r=0.03, p_ivc=1.0, t_ivc=60.0)
        with pytest.raises(Misfire):
            knock_integral_soc(op, -15.0, cfg)


def frozen_state_gap(op, soi, cfg):
    """Quadrature SOC minus the closed form that freezes the state at injection."""
    frozen = predict_soc(op, soi, cfg.coeffs, cfg.geom)
    return knock_integral_soc(op, soi, cfg) - frozen


class TestSimplificationGap:
    def test_gap_vanishes_for_constant_volume_window(self, coeffs):
        # matched polytrope over a constant-volume window: the closed form
        # is the exact inverse of the quadrature
        geom_cv = _constant_volume_geometry()
        cfg0 = PlantConfig(geom=geom_cv, coeffs=coeffs,
                           plant_poly_exp=coeffs.k_c)
        assert frozen_state_gap(HOT_OP, -15.0, cfg0) == pytest.approx(
            0.0, abs=1e-4)

    def test_gap_bounded_in_validity_region(self, cfg_matched, coeffs, box_rng):
        # the freezing error stays within the literature family bound
        # (~1.5 CAD) wherever the predicted delay respects the model's
        # stated 1-10 CAD envelope with margin; extreme cold-lean-dilute
        # corners push the delay beyond it and the bound no longer applies
        gaps, delays = [], []
        for _ in range(200):
            op = random_box_op(box_rng)
            soi = random_box_soi(box_rng)
            delay = predict_soc(op, soi, coeffs, cfg_matched.geom) - soi
            gaps.append(abs(frozen_state_gap(op, soi, cfg_matched)))
            delays.append(delay)
        gaps = np.array(gaps)
        delays = np.array(delays)
        in_envelope = delays <= 7.5
        assert in_envelope.mean() > 0.9
        assert np.all(gaps[in_envelope] <= 1.5)
        assert np.all(gaps <= 3.5)

    def test_gap_shrinks_toward_tdc(self, cfg_matched, mid_op):
        gaps = [abs(frozen_state_gap(mid_op, soi, cfg_matched))
                for soi in np.arange(-20.0, -9.5, 1.0)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


class TestQuantize:
    def test_rounds_half_away_from_zero(self):
        assert quantize_soi(-14.97, 0.1) == pytest.approx(-15.0)
        assert quantize_soi(14.94, 0.1) == pytest.approx(14.9)
        # exact binary half: 14.875 / 0.25 = 59.5
        assert quantize_soi(-14.875, 0.25) == pytest.approx(-15.0)
        assert quantize_soi(14.875, 0.25) == pytest.approx(15.0)
        assert quantize_soi(0.0, 0.1) == 0.0

    def test_bound_property(self, box_rng):
        for _ in range(1000):
            cmd = box_rng.uniform(-30.0, 10.0)
            res = box_rng.choice([0.05, 0.1, 0.25])
            q = quantize_soi(cmd, res)
            assert abs(q - cmd) <= res / 2 + 1e-12
            assert round(q / res) == pytest.approx(q / res, abs=1e-9)

    @settings(derandomize=True)
    @given(command=st.floats(-60.0, 60.0), res=st.floats(1e-3, 1.0))
    def test_grid_property(self, command, res):
        q = quantize_soi(command, res)
        assert abs(q / res - round(q / res)) <= 1e-9
        assert abs(q - command) <= res / 2 + 1e-12 * max(1.0, abs(command))
        assert quantize_soi(q, res) == q


class TestStepCycle:
    def test_first_two_cycles_motored(self, cfg, mid_op):
        plant = EnginePlant(cfg)
        for _ in range(2):
            rec = plant.step_cycle(-15.0, mid_op)
            assert rec.soc == rec.bd == rec.ca50_actual == rec.ca50_measured == 0.0
        rec = plant.step_cycle(-15.0, mid_op)
        assert rec.ca50_actual > rec.soc > rec.soi_applied

    def test_constant_schedule_fixed_point(self, geom, coeffs, mid_op):
        cfg = PlantConfig(geom=geom, coeffs=coeffs, ca50_noise_halfwidth=0.0,
                          egr_lag_cycles=0)
        plant = EnginePlant(cfg)
        records = [plant.step_cycle(-15.0, mid_op) for _ in range(10)]
        fired = records[2:]
        assert all(r.ca50_measured == r.ca50_actual for r in fired)
        assert all(r.ca50_actual == fired[0].ca50_actual for r in fired)
        assert all(r.soc == fired[0].soc for r in fired)

    def test_cycle_period(self, cfg, mid_op):
        plant = EnginePlant(cfg)
        for _ in range(100):
            plant.step_cycle(-15.0, mid_op)
        # 1200 RPM four-stroke: 10 cycles per second
        assert plant.time_s == pytest.approx(10.0, rel=1e-12)

    def test_quantization_applied(self, cfg, mid_op):
        plant = EnginePlant(cfg)
        rec = plant.step_cycle(-14.97, mid_op)
        assert rec.soi_applied == pytest.approx(-15.0)
        assert rec.soi_commanded == -14.97

    def test_deterministic_streams(self, geom, coeffs, mid_op):
        cfg = PlantConfig(geom=geom, coeffs=coeffs, rng_seed=77)
        runs = []
        for _ in range(2):
            plant = EnginePlant(cfg)
            runs.append([plant.step_cycle(-15.0 + 0.01 * k, mid_op)
                         for k in range(20)])
        for a, b in zip(*runs):
            assert a == b

    def test_noise_is_seeded_and_bounded(self, geom, coeffs, mid_op):
        cfg = PlantConfig(geom=geom, coeffs=coeffs, ca50_noise_halfwidth=0.3,
                          rng_seed=3)
        plant = EnginePlant(cfg)
        recs = [plant.step_cycle(-15.0, mid_op) for _ in range(30)]
        noise = np.array([r.ca50_measured - r.ca50_actual for r in recs[2:]])
        assert np.all(np.abs(noise) <= 0.3)
        assert np.any(noise != 0.0)

    def test_egr_lag_first_order(self, geom, coeffs, mid_op):
        cfg = PlantConfig(geom=geom, coeffs=coeffs, egr_lag_cycles=3,
                          ca50_noise_halfwidth=0.0)
        plant = EnginePlant(cfg)
        low = mid_op
        high = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4, egr=0.45,
                              x_r=0.0329, p_ivc=3.5, t_ivc=390.0)
        plant.step_cycle(-15.0, low)
        seen = [plant.step_cycle(-15.0, high).op.egr for _ in range(30)]
        gain = 1.0 - np.exp(-1.0 / 3.0)
        assert seen[0] == pytest.approx(low.egr + gain * (high.egr - low.egr), rel=1e-12)
        assert all(b > a for a, b in zip(seen[:10], seen[1:11]))
        assert seen[-1] == pytest.approx(high.egr, abs=1e-3)


class TestAngleMemo:
    """Each plant computes the integrand's geometric factor once per exact
    angle its marches visit, for its own config and its own run only."""

    def test_plants_of_different_configs_keep_their_own_values(self, geom, coeffs,
                                                               mid_op):
        plants = [EnginePlant(PlantConfig(geom=geom, coeffs=coeffs,
                                          plant_poly_exp=k,
                                          ca50_noise_halfwidth=0.0))
                  for k in (1.30, 1.36)]
        commands = [-15.0, -14.5, -15.3, -14.97, -14.0, -15.0, -14.5, -13.2] * 2
        for command in commands:
            socs = []
            for plant in plants:
                rec = plant.step_cycle(command, mid_op)
                if rec.cycle_index >= MOTORED_CYCLES:
                    assert rec.soc == knock_integral_soc(rec.op, rec.soi_applied,
                                                         plant.cfg)
                    socs.append(rec.soc)
            assert len(set(socs)) == len(socs)

    def test_geometry_computed_once_per_angle_per_run(self, monkeypatch):
        computed = Counter()
        compression = _kernels._compression

        def counting(m, *geo):
            g = compression(m, *geo)

            def counted(theta):
                computed[theta] += 1
                return g(theta)
            return counted
        monkeypatch.setattr(_kernels, "_compression", counting)
        sc = builtin_case(1)
        step = PlantConfig(geom=default_geometry(), coeffs=default_coefficients(),
                           **sc.plant).quad_step
        for _ in range(2):   # a second run starts from nothing
            computed.clear()
            records, _ = run_scenario(sc)
            visited = {rec.soi_applied + step * i for rec in records[MOTORED_CYCLES:]
                       for i in range(math.ceil((rec.soc - rec.soi_applied) / step) + 1)}
            assert computed.keys() == visited
            assert set(computed.values()) == {1}


def _counting_compression(monkeypatch):
    """Patch _kernels._compression to count its calls; returns the count."""
    built = [0]
    compression = _kernels._compression

    def counting(m, *geo):
        built[0] += 1
        return compression(m, *geo)
    monkeypatch.setattr(_kernels, "_compression", counting)
    return built


class TestConfigGeometricFactor:
    """Each PlantConfig builds the integrand's geometric factor g once, and
    every march of that config, dataset samples and plant runs alike, uses
    it."""

    def test_dataset_builds_g_once(self, geom, coeffs, monkeypatch):
        built = _counting_compression(monkeypatch)
        cfg = PlantConfig(geom=geom, coeffs=coeffs)
        samples, misfires = generate_dataset(None, 50, cfg, seed=3)
        assert len(samples) + misfires == 50
        assert built[0] == 1

    def test_plant_and_soc_share_the_config_g(self, geom, coeffs, mid_op, monkeypatch):
        built = _counting_compression(monkeypatch)
        cfg = PlantConfig(geom=geom, coeffs=coeffs, ca50_noise_halfwidth=0.0)
        plant = EnginePlant(cfg)
        records = [plant.step_cycle(-15.0, mid_op) for _ in range(MOTORED_CYCLES + 2)]
        assert records[-1].soc == knock_integral_soc(mid_op, -15.0, cfg)
        assert built[0] == 1

    def test_each_config_marches_with_its_own_g(self, geom, coeffs, box_rng):
        other = EngineGeometry(bore=0.13, stroke=0.16, rod_length=0.26,
                               compression_ratio=16.0, ivc_angle=-140.0)
        cfgs = [PlantConfig(geom=geom, coeffs=coeffs),
                PlantConfig(geom=other, coeffs=coeffs, plant_poly_exp=1.36)]
        for _ in range(20):   # the two configs alternate, so a shared g shows
            op, soi = random_box_op(box_rng), random_box_soi(box_rng)
            for cfg in cfgs:
                gm, k = cfg.geom, cfg.plant_poly_exp
                geo = (gm.ivc_volume, k * coeffs.c6 - k + 1.0, gm.piston_area,
                       gm.clearance_volume, gm.crank_radius, gm.rod_length)
                a, denom = _kernel_args(op, cfg)[:2]
                want, _ = _kernels._march_scalar(soi, cfg.quad_step, MISFIRE_LIMIT,
                                                 a, denom, *geo)
                assert knock_integral_soc(op, soi, cfg) == want


class TestCycleRecord:
    def test_fields_fixed_and_read_only(self, cfg, mid_op):
        assert CycleRecord._fields == (
            "cycle_index", "time_s", "op", "soi_commanded", "soi_applied", "soc",
            "bd", "ca50_actual", "ca50_measured", "ca50_ref", "alpha_hat", "beta_hat")
        rec = EnginePlant(cfg).step_cycle(-15.0, mid_op)
        with pytest.raises(AttributeError):
            rec.soc = 1.0

    def _fired_cycle(self, cfg, op):
        engine = EnginePlant(cfg)
        for _ in range(MOTORED_CYCLES):
            engine.step_cycle(-15.0, op)   # motored cycles carry zeros, unchecked
        return engine.step_cycle(-15.0, op)

    def test_combustion_before_injection_rejected(self, cfg, mid_op, monkeypatch):
        monkeypatch.setattr("dualfuel._kernels.march", lambda soi, *rest: (soi - 1.0, 1.0))
        with pytest.raises(DomainError, match="^combustion cannot precede injection$"):
            self._fired_cycle(cfg, mid_op)

    def test_ca50_before_combustion_rejected(self, cfg, mid_op, monkeypatch):
        monkeypatch.setattr("dualfuel.plant.ca50_from_soc_bd", lambda soc, bd, coeffs: soc - 1.0)
        with pytest.raises(DomainError, match="^CA50 cannot precede start of combustion$"):
            self._fired_cycle(cfg, mid_op)

    def test_ca50_past_the_end_of_expansion_rejected(self, cfg, mid_op, monkeypatch):
        monkeypatch.setattr("dualfuel.plant.ca50_from_soc_bd", lambda soc, bd, coeffs: 1e6)
        with pytest.raises(DomainError, match=r"^CA50 cannot follow the end of the expansion "
                                               r"stroke \(180 deg aTDC\), got 1e\+06$"):
            self._fired_cycle(cfg, mid_op)

    @pytest.mark.parametrize("ca50", [math.nextafter(EXPANSION_END, math.inf), math.inf,
                                      math.nan])
    def test_ca50_not_at_or_before_the_end_of_expansion_rejected(self, ca50):
        with pytest.raises(DomainError, match="^CA50 cannot follow the end"):
            check_phasing_order(-15.0, 0.0, ca50)
