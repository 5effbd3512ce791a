"""Quadrature kernels for the autoignition integral.

The accumulated integral is the trapezoid rule on a fixed crank-angle grid
anchored at the injection angle, interpolated linearly between nodes; the
start of combustion is the exact crossing of 1 of that piecewise-linear
cumulative. The integrand (slider-crank volume -> polytrope -> Arrhenius
exponent) is written once, with numpy ufuncs, so that it takes a scalar
angle or an angle array. Two marches use it: a scalar march that stops at
the crossing, compiled by numba when numba is installed (the optional
``fast`` extra), and a vectorised numpy march over the whole grid. Without
numba, or with DUALFUEL_DISABLE_NUMBA=1, the numpy march is used.
``value_numpy`` integrates up to a given angle for the quadrature checks.
"""

from __future__ import annotations

import math
import os

import numpy as np

_DEG = math.pi / 180.0


def numba_disabled_by_env() -> bool:
    return os.environ.get("DUALFUEL_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")


def _arrhenius_exponent(theta, p_ivc, t_ivc, v_ivc, c5, c6, poly_exp,
                        area, v_clear, crank_r, rod_len):
    """-c5 * P^c6 / T at crank angle(s) theta [deg aTDC], with P and T
    projected from IVC along the polytrope through the slider-crank volume."""
    rad = theta * _DEG
    s = crank_r * (1.0 - np.cos(rad)) + rod_len - np.sqrt(
        rod_len * rod_len - (crank_r * np.sin(rad)) ** 2)
    ratio = v_ivc / (v_clear + area * s)
    return -c5 * (p_ivc * ratio ** poly_exp) ** c6 / (t_ivc * ratio ** (poly_exp - 1.0))


# ---------------------------------------------------------------------------
# scalar march (numba-compilable; no allocations, early exit at the crossing)

def _march_scalar(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                  c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    """Returns (soc, integral_reached). soc is NaN when the integral never
    reaches 1 before theta_max (misfire)."""
    th = soi
    f0 = math.exp(_arrhenius_exponent(th, p_ivc, t_ivc, v_ivc, c5, c6, poly_exp,
                                      area, v_clear, crank_r, rod_len)) / denom
    total = 0.0
    i = 0
    while th < theta_max:
        i += 1
        th1 = soi + step * i
        f1 = math.exp(_arrhenius_exponent(th1, p_ivc, t_ivc, v_ivc, c5, c6, poly_exp,
                                          area, v_clear, crank_r, rod_len)) / denom
        new_total = total + 0.5 * step * (f0 + f1)
        if new_total >= 1.0:
            frac = (1.0 - total) / (new_total - total)
            return th + frac * step, new_total
        total = new_total
        th = th1
        f0 = f1
    return math.nan, total


# ---------------------------------------------------------------------------
# vectorised numpy path

def _integrand_numpy(theta, p_ivc, t_ivc, v_ivc, denom, c5, c6, poly_exp,
                     area, v_clear, crank_r, rod_len):
    return np.exp(_arrhenius_exponent(theta, p_ivc, t_ivc, v_ivc, c5, c6, poly_exp,
                                      area, v_clear, crank_r, rod_len)) / denom


def march_numpy(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    n = int(math.ceil((theta_max - soi) / step))
    theta = soi + step * np.arange(n + 1)
    f = _integrand_numpy(theta, p_ivc, t_ivc, v_ivc, denom, c5, c6, poly_exp,
                         area, v_clear, crank_r, rod_len)
    cum = np.cumsum(0.5 * step * (f[:-1] + f[1:]))
    idx = int(np.searchsorted(cum, 1.0))
    if idx == len(cum):
        return math.nan, float(cum[-1])
    prev = float(cum[idx - 1]) if idx > 0 else 0.0
    frac = (1.0 - prev) / (float(cum[idx]) - prev)
    return float(theta[idx]) + frac * step, float(cum[idx])


def value_numpy(theta_end, soi, step, p_ivc, t_ivc, v_ivc, denom,
                c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    """Accumulated integral up to theta_end, linearly interpolated within
    the final grid step (the same convention the march inverts)."""
    n_full = int(math.floor((theta_end - soi) / step))
    theta = soi + step * np.arange(n_full + 2)
    f = _integrand_numpy(theta, p_ivc, t_ivc, v_ivc, denom, c5, c6, poly_exp,
                         area, v_clear, crank_r, rod_len)
    incr = 0.5 * step * (f[:-1] + f[1:])
    frac = (theta_end - (soi + step * n_full)) / step
    return float(np.sum(incr[:n_full]) + frac * incr[n_full])


# ---------------------------------------------------------------------------
# backend selection

NUMBA_ENABLED = False
march_jit = None

if not numba_disabled_by_env():
    try:
        from numba import njit
        from numba.extending import register_jitable
    except ImportError:  # numba is the optional "fast" extra
        pass
    else:
        # compiles the shared exponent wherever jitted code calls it; Python
        # callers keep the plain function
        register_jitable(_arrhenius_exponent)
        march_jit = njit(cache=True)(_march_scalar)
        NUMBA_ENABLED = True

march = march_jit if NUMBA_ENABLED else march_numpy
