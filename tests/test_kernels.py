"""The plain-math march against the numpy reference march, its early exit,
the integrand against the model's ignition delay along the compression
trace, and the integral value against the march's crossing and a numpy
reference sum."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from dualfuel import _kernels
from dualfuel.core import OperatingPoint, cylinder_volume, polytropic_state_at_soi
from dualfuel.model import ignition_delay
from dualfuel.plant import MISFIRE_LIMIT, PlantConfig, _kernel_args

from conftest import random_box_op, random_box_soi


def _args(op, cfg):
    return _kernel_args(op, cfg)


@pytest.fixture
def cfg(geom, coeffs):
    return PlantConfig(geom=geom, coeffs=coeffs)


def test_integrand_matches_reference_formula(cfg, geom, coeffs, box_rng):
    # the folded exponent a * r^e must reproduce the reciprocal of the
    # model's ignition delay at the instantaneous polytropic state: volume ->
    # polytropic state -> ignition_delay, on a grid and one angle at a time
    theta = np.linspace(-20.0, 10.0, 61)
    vol = cylinder_volume(theta, geom)
    for _ in range(25):
        op = random_box_op(box_rng)
        a, denom, *geo = _args(op, cfg)
        p, t = polytropic_state_at_soi(op.p_ivc, op.t_ivc, geom.ivc_volume, vol,
                                       cfg.plant_poly_exp)
        expected = 1.0 / ignition_delay(op.egr, op.speed, op.phi_ng, op.phi_di, p, t,
                                        coeffs)
        np.testing.assert_allclose(_kernels._integrand_numpy(theta, a, denom, *geo),
                                   expected, rtol=1e-12)
        # the plain-math node of the march, one angle at a time
        g = _kernels._compression(math, *geo)
        scalar = [math.exp(a * g(th)) / denom for th in theta]
        np.testing.assert_allclose(scalar, expected, rtol=1e-12)


def test_scalar_and_numpy_marches_agree(cfg, box_rng):
    # the scalar march is the reference: it takes the same nodes one at a
    # time and stops at the crossing; the vectorised march must agree with
    # it, fired or misfired
    freezing = OperatingPoint(speed=1500.0, phi_ng=0.2, phi_di=0.2, egr=0.4,
                              x_r=0.03, p_ivc=1.0, t_ivc=60.0)
    points = [(random_box_op(box_rng), random_box_soi(box_rng)) for _ in range(120)]
    for op, soi in points + [(freezing, -15.0)]:
        args = (soi, cfg.quad_step, MISFIRE_LIMIT) + _args(op, cfg)
        soc_py, reached_py = _kernels._march_scalar(*args)
        soc_np, reached_np = _kernels.march_numpy(*args)
        assert math.isnan(soc_py) == math.isnan(soc_np) == (op is freezing)
        if op is not freezing:
            assert soc_py == pytest.approx(soc_np, rel=1e-12, abs=1e-12)
        assert reached_py == pytest.approx(reached_np, rel=1e-12)


def test_misfire_returns_nan(cfg):
    # freezing charge: the integrand never accumulates to 1
    op = OperatingPoint(speed=1500.0, phi_ng=0.2, phi_di=0.2, egr=0.4,
                        x_r=0.03, p_ivc=1.0, t_ivc=60.0)
    args = (-15.0, cfg.quad_step, MISFIRE_LIMIT) + _args(op, cfg)
    soc, reached = _kernels.march(*args)
    assert math.isnan(soc)
    assert reached < 1.0


# ---------------------------------------------------------------------------
# the early exit and the integral value

def test_march_evaluates_nodes_up_to_the_crossing(cfg, box_rng, monkeypatch):
    # one exp per node: the march stops at the node past the crossing, or at
    # the misfire limit when there is none
    calls = [0]

    def exp(x):
        calls[0] += 1
        return math.exp(x)
    counting_math = SimpleNamespace(**{n: getattr(math, n) for n in dir(math)
                                       if not n.startswith("_")})
    counting_math.exp = exp
    monkeypatch.setattr(_kernels, "math", counting_math)
    freezing = OperatingPoint(speed=1500.0, phi_ng=0.2, phi_di=0.2, egr=0.4,
                              x_r=0.03, p_ivc=1.0, t_ivc=60.0)
    points = [(random_box_op(box_rng), random_box_soi(box_rng)) for _ in range(50)]
    for op, soi in points + [(freezing, -15.0)]:
        calls[0] = 0
        soc, _ = _kernels.march(soi, cfg.quad_step, MISFIRE_LIMIT, *_args(op, cfg))
        assert math.isnan(soc) == (op is freezing)
        end = MISFIRE_LIMIT if op is freezing else soc
        assert calls[0] == math.ceil((end - soi) / cfg.quad_step) + 1


def test_value_is_one_at_the_march_crossing(cfg, box_rng):
    for _ in range(200):
        args = _args(random_box_op(box_rng), cfg)
        soi = random_box_soi(box_rng)
        soc, _ = _kernels.march(soi, cfg.quad_step, MISFIRE_LIMIT, *args)
        assert abs(_kernels.value(soc, soi, cfg.quad_step, *args) - 1.0) <= 1e-12


def _numpy_value(theta_end, soi, step, a, denom, *geo):
    # the whole grid up to theta_end at once, summed by numpy
    n_full = int(math.floor((theta_end - soi) / step))
    theta = soi + step * np.arange(n_full + 2)
    f = _kernels._integrand_numpy(theta, a, denom, *geo)
    incr = 0.5 * step * (f[:-1] + f[1:])
    frac = (theta_end - (soi + step * n_full)) / step
    return float(np.sum(incr[:n_full]) + frac * incr[n_full])


def test_value_matches_numpy_reference_sum(cfg, box_rng):
    for _ in range(200):
        args = _args(random_box_op(box_rng), cfg)
        soi = random_box_soi(box_rng)
        theta_end = soi + box_rng.uniform(0.0, 30.0)
        got = _kernels.value(theta_end, soi, cfg.quad_step, *args)
        expected = _numpy_value(theta_end, soi, cfg.quad_step, *args)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
