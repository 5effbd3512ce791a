"""The numpy quadrature march against the scalar reference march, the
integrand against its unfolded formula, and the march's grid cache."""

import math

import numpy as np
import pytest

import dualfuel as df
from dualfuel import _kernels
from dualfuel.plant import MISFIRE_LIMIT, _kernel_args

from conftest import random_box_op, random_box_soi


def _args(op, cfg):
    return _kernel_args(op, cfg)


@pytest.fixture
def cfg(geom, coeffs):
    return df.PlantConfig(geom=geom, coeffs=coeffs)


def test_integrand_matches_reference_formula(cfg, geom, coeffs, box_rng):
    # the folded exponent a * r^e must reproduce the unfolded chain of the
    # public building blocks: volume -> polytropic state -> Arrhenius
    theta = np.linspace(-20.0, 10.0, 61)
    vol = df.cylinder_volume(theta, geom)
    for _ in range(25):
        op = random_box_op(box_rng)
        p_ivc, t_ivc, v_ivc, denom, c5, c6, poly, area, v_clear, crank_r, rod_len = \
            _args(op, cfg)
        p, t = df.polytropic_state_at_soi(op.p_ivc, op.t_ivc, v_ivc, vol, poly)
        expected = np.exp(-coeffs.c5 * p ** coeffs.c6 / t) / denom
        a, e = _kernels._folded_exponent(p_ivc, t_ivc, c5, c6, poly)
        r_e = _kernels._ratio_power(theta, v_ivc, e, area, v_clear, crank_r, rod_len)
        got = _kernels._integrand_numpy(theta, r_e, a, denom)
        np.testing.assert_allclose(got, expected, rtol=1e-12)
        # the same helpers serve the scalar march one angle at a time
        scalar = [math.exp(a * _kernels._ratio_power(
            th, v_ivc, e, area, v_clear, crank_r, rod_len)) / denom for th in theta]
        np.testing.assert_allclose(scalar, expected, rtol=1e-12)


def test_scalar_and_numpy_marches_agree(cfg, box_rng):
    # the scalar march is the reference: it takes the same nodes one at a
    # time and stops at the crossing; the vectorised march must agree with
    # it, fired or misfired
    freezing = df.OperatingPoint(speed=1500.0, phi_ng=0.2, phi_di=0.2, egr=0.4,
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
    op = df.OperatingPoint(speed=1500.0, phi_ng=0.2, phi_di=0.2, egr=0.4,
                           x_r=0.03, p_ivc=1.0, t_ivc=60.0)
    args = (-15.0, cfg.quad_step, MISFIRE_LIMIT) + _args(op, cfg)
    soc, reached = _kernels.march(*args)
    assert math.isnan(soc)
    assert reached < 1.0


# ---------------------------------------------------------------------------
# the numpy march's grid cache

def test_cached_grid_gives_cold_results(cfg, box_rng):
    # repeated injection angles hit the cache with a different thermal state
    # each time; every result must equal a march on an empty cache exactly
    sois = [-15.0, -12.3, -15.0, -18.7, -12.3, -15.0, -10.0, -18.7]
    calls = [(soi, cfg.quad_step, MISFIRE_LIMIT) + _args(random_box_op(box_rng), cfg)
             for soi in sois]
    _kernels._grid.cache_clear()
    warm = [_kernels.march_numpy(*args) for args in calls]
    assert _kernels._grid.cache_info().hits == 4
    cold = []
    for args in calls:
        _kernels._grid.cache_clear()
        cold.append(_kernels.march_numpy(*args))
    assert warm == cold


def test_cached_grid_is_read_only(cfg, mid_op):
    p_ivc, t_ivc, v_ivc, _, c5, c6, poly, area, v_clear, crank_r, rod_len = \
        _args(mid_op, cfg)
    _, e = _kernels._folded_exponent(p_ivc, t_ivc, c5, c6, poly)
    arrays = _kernels._grid(-15.0, cfg.quad_step, MISFIRE_LIMIT, v_ivc, e,
                            area, v_clear, crank_r, rod_len)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_grid_cache_stays_bounded(cfg, mid_op):
    rng = np.random.default_rng(7)
    for soi in rng.uniform(-20.0, -10.0, 1054):
        _kernels.march_numpy(soi, cfg.quad_step, MISFIRE_LIMIT, *_args(mid_op, cfg))
        assert _kernels._grid.cache_info().currsize <= 16
