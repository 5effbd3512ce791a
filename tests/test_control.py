"""Adaptive feedback law (observer + deadbeat behaviour) and the open-loop
model-inversion law."""

import re
from dataclasses import replace

import numpy as np
import pytest
from mpmath import mp, mpf, power as mp_power

from dualfuel.control import (
    FEEDFORWARD_SEED_SOI,
    MEAN_RESIDUAL_FRACTION,
    AdaptiveStates,
    ControllerState,
    adaptive_soi,
    adaptive_update,
    compute_states,
    feedforward_soi,
    learning_rate,
    smooth_measurement,
)
from dualfuel.core import DomainError, OperatingPoint, cylinder_volume
from dualfuel.harness import run_noise_study
from dualfuel.model import predict_ca50

from conftest import random_box_op

mp.dps = 50


class TestComputeStates:
    def test_unit_phis(self, coeffs):
        op = OperatingPoint(speed=1300.0, phi_ng=1.0, phi_di=1.0, egr=0.0,
                            x_r=0.0, p_ivc=3.0, t_ivc=390.0)
        s = compute_states(op, coeffs)
        assert s.x1 == pytest.approx(2.0 * 1300.0, rel=1e-14)
        assert s.x2 == pytest.approx(2.0, rel=1e-14)

    def test_linear_in_speed(self, coeffs, mid_op):
        s1 = compute_states(mid_op, coeffs)
        fast = OperatingPoint(speed=2400.0, phi_ng=0.4, phi_di=0.4, egr=0.25,
                              x_r=0.0329, p_ivc=3.5, t_ivc=390.0)
        s2 = compute_states(fast, coeffs)
        assert s2.x1 == pytest.approx(2.0 * s1.x1, rel=1e-14)
        assert s2.x2 == s1.x2

    def test_pinned_values(self, coeffs, mid_op):
        # frozen from mpmath with the shipped exponents at N=1200, phi 0.4/0.4
        s = compute_states(mid_op, coeffs)
        assert s.x1 == pytest.approx(2496.7688955382676, rel=1e-12)
        assert s.x2 == pytest.approx(3.3815014106375486, rel=1e-12)
        x2_oracle = mp_power(mpf("0.4"), mpf("0.0522")) + mp_power(mpf("0.4"), mpf("-0.9682"))
        assert s.x2 == pytest.approx(float(x2_oracle), rel=1e-12)

    def test_no_pilot_rejected(self, coeffs):
        op = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=1e-12, egr=0.0,
                            x_r=0.0, p_ivc=3.0, t_ivc=390.0)
        object.__setattr__(op, "phi_di", 0.0)   # bypass the type guard
        with pytest.raises(DomainError):
            compute_states(op, coeffs)

    def test_gain_not_formed_rejected(self, coeffs, mid_op):
        # speed * phi_ng^c3 is inf, so the observer gain would be 0
        with pytest.raises(DomainError, match=re.escape(
                "the observer gain 1/(x1^2 + x2^2) cannot be formed for x1 = inf")):
            compute_states(mid_op, replace(coeffs, c3=-770.0))


class TestLearningRate:
    def test_arithmetic(self):
        assert learning_rate(AdaptiveStates(3.0, 4.0)) == pytest.approx(0.04)
        assert learning_rate(AdaptiveStates(1.0, 0.0)) == 1.0

    def test_inverse_square_scaling(self, box_rng):
        for _ in range(100):
            x1, x2 = box_rng.uniform(0.1, 100.0, size=2)
            k = box_rng.uniform(0.5, 10.0)
            a = learning_rate(AdaptiveStates(x1, x2))
            b = learning_rate(AdaptiveStates(k * x1, k * x2))
            assert b == pytest.approx(a / k ** 2, rel=1e-12)

    def test_zero_states_rejected(self):
        with pytest.raises(DomainError):
            learning_rate(AdaptiveStates(0.0, 0.0))

    @pytest.mark.parametrize("x1, x2", [
        pytest.param(1e200, 1.0, id="square-overflows"),
        pytest.param(np.inf, 1.0, id="infinite"),
        pytest.param(0.0, 0.0, id="zero"),
        # numpy scalars would warn before the error
        pytest.param(np.float64(1e200), 1.0, id="numpy-square-overflows"),
        pytest.param(np.float64(0.0), np.float64(0.0), id="numpy-zero"),
    ])
    def test_gain_not_formed(self, x1, x2):
        message = f"the observer gain 1/(x1^2 + x2^2) cannot be formed for x1 = {x1}, x2 = {x2}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            learning_rate(AdaptiveStates(x1, x2))


class TestAdaptiveLaw:
    def test_zero_observer_passes_reference(self):
        s = AdaptiveStates(2500.0, 3.4)
        assert adaptive_soi(8.0, s, ControllerState()) == 8.0

    def test_command_arithmetic(self):
        # y_d = 8 with a 23 CAD model offset puts injection at -15
        s = AdaptiveStates(2300.0, 2.0)
        ctrl = ControllerState(alpha_hat=0.01, beta_hat=0.0)
        assert adaptive_soi(8.0, s, ctrl) == pytest.approx(-15.0, rel=1e-14)

    def test_no_update_without_innovation(self):
        s = AdaptiveStates(2500.0, 3.4)
        ctrl = ControllerState(alpha_hat=0.002, beta_hat=1.5)
        after = adaptive_update(8.0, 8.0, s, ctrl)
        assert after.alpha_hat == ctrl.alpha_hat
        assert after.beta_hat == ctrl.beta_hat

    def test_deadbeat_one_update(self, box_rng):
        # against the affine plant y = u + alpha*x1 + beta*x2 with constant
        # parameters one observer update lands the next cycle exactly
        for _ in range(500):
            x = AdaptiveStates(box_rng.uniform(500, 5000), box_rng.uniform(0.5, 5))
            alpha, beta = box_rng.uniform(-5e-3, 5e-3), box_rng.uniform(0.5, 3.0)
            y_d = box_rng.uniform(4.0, 12.0)
            ctrl = ControllerState(alpha_hat=box_rng.uniform(-5e-3, 5e-3),
                                   beta_hat=box_rng.uniform(0.0, 3.0))
            u = adaptive_soi(y_d, x, ctrl)
            y = u + alpha * x.x1 + beta * x.x2
            ctrl = adaptive_update(y, y_d, x, ctrl)
            y_next = adaptive_soi(y_d, x, ctrl) + alpha * x.x1 + beta * x.x2
            assert abs(y_next - y_d) < 1e-9

    def test_lyapunov_decrement_exact(self, box_rng):
        # V(k+1) - V(k) = -(y_d - y_k)^2 along the constant-parameter loop
        for _ in range(500):
            x = AdaptiveStates(box_rng.uniform(500, 5000), box_rng.uniform(0.5, 5))
            alpha, beta = box_rng.uniform(-5e-3, 5e-3), box_rng.uniform(0.5, 3.0)
            y_d = box_rng.uniform(4.0, 12.0)
            ctrl = ControllerState(alpha_hat=box_rng.uniform(-5e-3, 5e-3),
                                   beta_hat=box_rng.uniform(0.0, 3.0))
            v_prev = None
            for _ in range(4):
                u = adaptive_soi(y_d, x, ctrl)
                y = u + alpha * x.x1 + beta * x.x2
                v = (y_d - y) ** 2
                if v_prev is not None:
                    assert v - v_prev == pytest.approx(-v_prev, abs=1e-9)
                v_prev = v
                ctrl = adaptive_update(y, y_d, x, ctrl)

    def test_update_along_state_direction(self, box_rng):
        # observer moves only along (x1, x2); recovering the increments from
        # the stored state loses ~eps * |state|, so scale the tolerance
        for _ in range(200):
            x = AdaptiveStates(box_rng.uniform(500, 5000), box_rng.uniform(0.5, 5))
            ctrl = ControllerState(alpha_hat=0.001, beta_hat=1.0)
            after = adaptive_update(box_rng.uniform(0, 15), 8.0, x, ctrl)
            da = after.alpha_hat - ctrl.alpha_hat
            db = after.beta_hat - ctrl.beta_hat
            assert da * x.x2 == pytest.approx(db * x.x1,
                                              abs=1e-11 * (x.x1 + x.x2))


class TestMeasurementFilter:
    def test_off_by_default_passes_through(self):
        assert smooth_measurement(7.5, 9.0, 0.0) == 9.0
        assert smooth_measurement(None, 9.0, 3.0) == 9.0

    def test_first_order_step_response(self):
        gain = 1.0 - np.exp(-1.0 / 3.0)
        assert smooth_measurement(8.0, 9.0, 3.0) == pytest.approx(
            8.0 + gain * 1.0, rel=1e-12)

    def test_filter_damps_noise_chasing(self):
        # the smoothed observer chases less noise once the loop has settled
        # (it slows the startup transient, so compare steady segments only)
        def steady_std(filter_cycles):
            _, records, _ = run_noise_study(
                0.5, seed=9, measurement_filter_cycles=filter_cycles)
            err = np.array([r.ca50_actual - r.ca50_ref
                            for r in records if r.time_s >= 2.0])
            return err.std()

        assert steady_std(1.0) < steady_std(0.0)


class TestFeedforward:
    def test_inverts_model_exactly(self, coeffs, geom, box_rng):
        for _ in range(200):
            op = random_box_op(box_rng)
            op = OperatingPoint(speed=op.speed, phi_ng=op.phi_ng,
                                phi_di=op.phi_di, egr=op.egr,
                                x_r=MEAN_RESIDUAL_FRACTION,
                                p_ivc=op.p_ivc, t_ivc=op.t_ivc)
            ref = box_rng.uniform(4.0, 12.0)
            prev_soi = box_rng.uniform(-20.0, -10.0)
            cmd = feedforward_soi(ref, op, coeffs, geom, prev_soi)
            achieved = predict_ca50(op, cmd, coeffs, geom,
                                    v_soi=cylinder_volume(prev_soi, geom))
            assert achieved == pytest.approx(ref, abs=1e-9)

    def test_uses_mean_residual_not_actual(self, coeffs, geom, mid_op):
        # the open-loop law cannot see the true residual fraction
        other = OperatingPoint(speed=1200.0, phi_ng=0.4, phi_di=0.4,
                               egr=0.25, x_r=0.08, p_ivc=3.5, t_ivc=390.0)
        cmd_a = feedforward_soi(8.0, mid_op, coeffs, geom, -15.0)
        cmd_b = feedforward_soi(8.0, other, coeffs, geom, -15.0)
        assert cmd_a == cmd_b

    def test_seed_volume_on_first_cycle(self, coeffs, geom, mid_op):
        cmd_seeded = feedforward_soi(8.0, mid_op, coeffs, geom)
        cmd_explicit = feedforward_soi(8.0, mid_op, coeffs, geom, FEEDFORWARD_SEED_SOI)
        assert cmd_seeded == cmd_explicit

    def test_fixed_point_under_constant_conditions(self, coeffs, geom, mid_op):
        # iterating the previous-cycle angle converges to a fixed command
        commands = [FEEDFORWARD_SEED_SOI]
        for _ in range(8):
            commands.append(feedforward_soi(8.0, mid_op, coeffs, geom, commands[-1]))
        assert abs(commands[-1] - commands[-2]) < 1e-9

    def test_inversion_not_finite(self, coeffs, geom, mid_op):
        # p_ivc^c6 overflows in numpy scalars, which flag it rather than raise
        with pytest.raises(DomainError, match="feedforward inversion is not finite"):
            feedforward_soi(8.0, mid_op, replace(coeffs, c6=1e300), geom)

    @pytest.mark.parametrize("ref, command", [(np.inf, "inf"), (np.nan, "nan")])
    def test_reference_not_finite(self, coeffs, geom, mid_op, ref, command):
        # a non-finite reference sets no numpy flag; the command itself is checked
        with pytest.raises(DomainError, match=re.escape(
                f"the feedforward inversion is not finite (command {command})")):
            feedforward_soi(ref, mid_op, coeffs, geom)
