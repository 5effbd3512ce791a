"""Quadrature kernels for the autoignition integral.

The accumulated integral is the trapezoid rule on a fixed crank-angle grid
anchored at the injection angle, interpolated linearly between nodes; the
start of combustion is the exact crossing of 1 of that piecewise-linear
cumulative. The integrand is exp(-c5 * P^c6 / T) / denom with P and T
projected from IVC along the polytrope, P = p_ivc * r^k and
T = t_ivc * r^(k-1), where r = V_ivc / V(theta) is the compression ratio of
the slider crank. Folding the polytrope into the exponent gives

    -c5 * P^c6 / T = a * r^e,  a = -c5 * p_ivc^c6 / t_ivc,  e = k*c6 - k + 1,

so a node costs one cos (sin^2 = 1 - cos^2), one sqrt, one power r^e, one
multiply by a, one exp and one divide. ``_folded_exponent`` returns (a, e)
for a state; ``_ratio_power`` returns r^e for a scalar angle or an angle
array. ``march`` is the vectorised numpy march over the whole grid, the
one kernel the package runs. ``_march_scalar`` is the reference march: it
takes the same nodes one at a time and stops at the crossing, and the
tests check ``march`` against it. ``value_numpy`` integrates up to a given
angle for the quadrature checks.

The numpy march caches the grid and its r^e in ``_grid``, a 16-entry LRU
keyed by the injection angle, step, grid end, IVC volume, folded exponent e
and the four slider-crank dimensions: every input of the geometric part and
nothing else. The actuator quantizes the injection angle, so a closed loop
revisits a few dozen angles and a hit costs one multiply, one exp and one
divide per node; a continuous set of angles (a random dataset) misses every
time and builds the grid on each call, plus the lookup. A hit returns the
arrays that the same operations produced on the first call, so cached and
uncached marches agree bit for bit. The folded exponent rounds differently
from the unfolded chain P^c6 / T, so results differ from that chain in the
last bits (SOC by about 1e-15 CAD), not bit for bit. The cache is shared by
every caller in the process; its arrays are read-only, so no caller can
change another's grid.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_DEG = math.pi / 180.0


def _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp):
    """(a, e) with -c5 * P^c6 / T = a * r^e along the polytrope from IVC."""
    return -c5 * p_ivc ** c6 / t_ivc, poly_exp * c6 - poly_exp + 1.0


def _ratio_power(theta, v_ivc, e, area, v_clear, crank_r, rod_len):
    """r^e at crank angle(s) theta [deg aTDC], where r is the compression
    ratio V_ivc / V(theta) of the slider crank."""
    c = np.cos(theta * _DEG)
    s = crank_r * (1.0 - c) + rod_len - np.sqrt(
        rod_len * rod_len - crank_r * crank_r * (1.0 - c * c))
    return (v_ivc / (v_clear + area * s)) ** e


# ---------------------------------------------------------------------------
# scalar reference march (early exit at the crossing)

def _march_scalar(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                  c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    """Returns (soc, integral_reached). soc is NaN when the integral never
    reaches 1 before theta_max (misfire)."""
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    th = soi
    f0 = math.exp(a * _ratio_power(th, v_ivc, e, area, v_clear, crank_r, rod_len)) / denom
    total = 0.0
    i = 0
    while th < theta_max:
        i += 1
        th1 = soi + step * i
        f1 = math.exp(a * _ratio_power(th1, v_ivc, e, area, v_clear,
                                       crank_r, rod_len)) / denom
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

def _integrand_numpy(theta, r_e, a, denom):
    """Integrand at the nodes theta, given r^e taken on those nodes."""
    return np.exp(a * r_e) / denom


@functools.lru_cache(maxsize=16)
def _grid(soi, step, theta_max, v_ivc, e, area, v_clear, crank_r, rod_len):
    """Read-only (theta, r^e) of the march grid from soi to theta_max."""
    n = int(math.ceil((theta_max - soi) / step))
    theta = soi + step * np.arange(n + 1)
    r_e = _ratio_power(theta, v_ivc, e, area, v_clear, crank_r, rod_len)
    for arr in (theta, r_e):
        arr.setflags(write=False)
    return theta, r_e


def march_numpy(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    theta, r_e = _grid(soi, step, theta_max, v_ivc, e, area, v_clear, crank_r, rod_len)
    f = _integrand_numpy(theta, r_e, a, denom)
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
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    n_full = int(math.floor((theta_end - soi) / step))
    theta = soi + step * np.arange(n_full + 2)
    r_e = _ratio_power(theta, v_ivc, e, area, v_clear, crank_r, rod_len)
    f = _integrand_numpy(theta, r_e, a, denom)
    incr = 0.5 * step * (f[:-1] + f[1:])
    frac = (theta_end - (soi + step * n_full)) / step
    return float(np.sum(incr[:n_full]) + frac * incr[n_full])


# ---------------------------------------------------------------------------
# the kernel

march = march_numpy

# perfbench/run.py's run manifest reads this flag; it goes in the next
# change to the benchmark
NUMBA_ENABLED = False
