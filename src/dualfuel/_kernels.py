"""Quadrature kernels for the autoignition integral.

The accumulated integral is the trapezoid rule on a fixed crank-angle grid
anchored at the injection angle, interpolated linearly between nodes; the
start of combustion is the exact crossing of 1 of that piecewise-linear
cumulative. The integrand (slider-crank volume -> polytrope -> Arrhenius
exponent) is written once, with numpy ufuncs, so that it takes a scalar
angle or an angle array, in two pieces: ``_compression_powers`` (the
geometric part, the compression ratio raised to the polytropic exponent and
to the exponent less one) and ``_thermal_exponent`` (the part that depends
on the IVC state). Two marches use them: a scalar march that stops at the
crossing, compiled by numba when numba is installed (the optional ``fast``
extra), and a vectorised numpy march over the whole grid. Without numba, or
with DUALFUEL_DISABLE_NUMBA=1, the numpy march is used.
``value_numpy`` integrates up to a given angle for the quadrature checks.

The numpy march caches the grid and its compression-ratio powers in
``_grid``, a 16-entry LRU keyed by the injection angle, step, grid end,
IVC volume, polytropic exponent and the four slider-crank dimensions: every
input of the geometric part and nothing else. The actuator quantizes the
injection angle, so a closed loop revisits a few dozen angles; a
continuous set of angles (a random dataset) misses every time and builds
its grid on each call as before, plus the lookup. A hit returns the arrays
that the same operations produced on the first call, and the thermal part
keeps its operation order, so the results are bit for bit those of an
uncached march. The thermal part and ``exp`` still run at every node of the
full grid on each call. The cache is shared by every caller in the
process; its arrays are read-only, so no caller can change another's grid.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

_DEG = math.pi / 180.0


def numba_disabled_by_env() -> bool:
    return os.environ.get("DUALFUEL_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")


def _compression_powers(theta, v_ivc, poly_exp, area, v_clear, crank_r, rod_len):
    """(r^k, r^(k-1)) at crank angle(s) theta [deg aTDC], where r is the
    compression ratio V_ivc / V(theta) of the slider crank and k the
    polytropic exponent."""
    rad = theta * _DEG
    s = crank_r * (1.0 - np.cos(rad)) + rod_len - np.sqrt(
        rod_len * rod_len - (crank_r * np.sin(rad)) ** 2)
    ratio = v_ivc / (v_clear + area * s)
    return ratio ** poly_exp, ratio ** (poly_exp - 1.0)


def _thermal_exponent(rk, rk1, p_ivc, t_ivc, c5, c6):
    """-c5 * P^c6 / T with P = p_ivc * r^k and T = t_ivc * r^(k-1)."""
    return -c5 * (p_ivc * rk) ** c6 / (t_ivc * rk1)


def _arrhenius_exponent(theta, p_ivc, t_ivc, v_ivc, c5, c6, poly_exp,
                        area, v_clear, crank_r, rod_len):
    """-c5 * P^c6 / T at crank angle(s) theta [deg aTDC], with P and T
    projected from IVC along the polytrope through the slider-crank volume."""
    rk, rk1 = _compression_powers(theta, v_ivc, poly_exp, area, v_clear,
                                  crank_r, rod_len)
    return _thermal_exponent(rk, rk1, p_ivc, t_ivc, c5, c6)


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

def _integrand_numpy(theta, rk, rk1, p_ivc, t_ivc, denom, c5, c6):
    """Integrand at the nodes theta, given the compression-ratio powers
    rk, rk1 taken on those nodes."""
    return np.exp(_thermal_exponent(rk, rk1, p_ivc, t_ivc, c5, c6)) / denom


@functools.lru_cache(maxsize=16)
def _grid(soi, step, theta_max, v_ivc, poly_exp, area, v_clear, crank_r, rod_len):
    """Read-only (theta, rk, rk1) of the march grid from soi to theta_max."""
    n = int(math.ceil((theta_max - soi) / step))
    theta = soi + step * np.arange(n + 1)
    rk, rk1 = _compression_powers(theta, v_ivc, poly_exp, area, v_clear,
                                  crank_r, rod_len)
    for a in (theta, rk, rk1):
        a.setflags(write=False)
    return theta, rk, rk1


def march_numpy(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    theta, rk, rk1 = _grid(soi, step, theta_max, v_ivc, poly_exp, area,
                           v_clear, crank_r, rod_len)
    f = _integrand_numpy(theta, rk, rk1, p_ivc, t_ivc, denom, c5, c6)
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
    rk, rk1 = _compression_powers(theta, v_ivc, poly_exp, area, v_clear,
                                  crank_r, rod_len)
    f = _integrand_numpy(theta, rk, rk1, p_ivc, t_ivc, denom, c5, c6)
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
        # callers keep the plain functions
        for fn in (_compression_powers, _thermal_exponent, _arrhenius_exponent):
            register_jitable(fn)
        march_jit = njit(cache=True)(_march_scalar)
        NUMBA_ENABLED = True

march = march_jit if NUMBA_ENABLED else march_numpy
