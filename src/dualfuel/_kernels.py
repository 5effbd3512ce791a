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
for a state and ``_node`` the integrand at one angle in plain ``math``.

``march`` is the kernel the package runs: ``_march_scalar`` takes the nodes
one at a time and stops at the crossing: about 11 nodes for a firing point
against the 584 of the whole grid up to the misfire limit, which in plain
CPython cost less than one vectorised pass over that grid. ``value``
integrates up to a given angle with the same nodes and the same sum, for the
quadrature checks.

``march_numpy`` is the reference march: it evaluates the whole grid at once
with the numpy helpers ``_ratio_power`` and ``_integrand_numpy``, written
apart from the scalar loop so that a slip in one does not hide in both.
The tests hold ``march`` to it within 1e-12 CAD, and the benchmark's node
counts and backend label read it by name. numpy's vectorised cos, sqrt and
power round differently from libm in the last bit now and then, so a few SOCs
differ from the reference by about 1e-15 CAD, not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_DEG = math.pi / 180.0


def _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp):
    """(a, e) with -c5 * P^c6 / T = a * r^e along the polytrope from IVC."""
    return -c5 * p_ivc ** c6 / t_ivc, poly_exp * c6 - poly_exp + 1.0


# ---------------------------------------------------------------------------
# the kernel: plain-math march with an early exit at the crossing

def _node(theta, a, denom, v_ivc, e, area, v_clear, crank_r, rod_len):
    """Integrand exp(a * r^e) / denom at one crank angle theta [deg aTDC]."""
    c = math.cos(theta * _DEG)
    s = crank_r * (1.0 - c) + rod_len - math.sqrt(
        rod_len * rod_len - crank_r * crank_r * (1.0 - c * c))
    return math.exp(a * (v_ivc / (v_clear + area * s)) ** e) / denom


def _march_scalar(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                  c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    """Returns (soc, integral_reached). soc is NaN when the integral never
    reaches 1 before theta_max (misfire)."""
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    geo = (a, denom, v_ivc, e, area, v_clear, crank_r, rod_len)
    th = soi
    f0 = _node(th, *geo)
    total = 0.0
    i = 0
    while th < theta_max:
        i += 1
        th1 = soi + step * i
        f1 = _node(th1, *geo)
        new_total = total + 0.5 * step * (f0 + f1)
        if new_total >= 1.0:
            frac = (1.0 - total) / (new_total - total)
            return th + frac * step, new_total
        total = new_total
        th = th1
        f0 = f1
    return math.nan, total


march = _march_scalar


def value(theta_end, soi, step, p_ivc, t_ivc, v_ivc, denom,
          c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    """Accumulated integral up to theta_end, linearly interpolated within
    the final grid step (the same convention the march inverts)."""
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    geo = (a, denom, v_ivc, e, area, v_clear, crank_r, rod_len)
    n_full = int(math.floor((theta_end - soi) / step))
    f = [_node(soi + step * i, *geo) for i in range(n_full + 2)]
    total = 0.0
    for i in range(n_full):
        total += 0.5 * step * (f[i] + f[i + 1])
    frac = (theta_end - (soi + step * n_full)) / step
    return total + frac * (0.5 * step * (f[n_full] + f[n_full + 1]))


# ---------------------------------------------------------------------------
# vectorised numpy reference march over the whole grid

def _ratio_power(theta, v_ivc, e, area, v_clear, crank_r, rod_len):
    """r^e at crank angle(s) theta [deg aTDC], where r is the compression
    ratio V_ivc / V(theta) of the slider crank."""
    c = np.cos(theta * _DEG)
    s = crank_r * (1.0 - c) + rod_len - np.sqrt(
        rod_len * rod_len - crank_r * crank_r * (1.0 - c * c))
    return (v_ivc / (v_clear + area * s)) ** e


def _integrand_numpy(theta, r_e, a, denom):
    """Integrand at the nodes theta, given r^e taken on those nodes."""
    return np.exp(a * r_e) / denom


def march_numpy(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    n = int(math.ceil((theta_max - soi) / step))
    theta = soi + step * np.arange(n + 1)
    r_e = _ratio_power(theta, v_ivc, e, area, v_clear, crank_r, rod_len)
    f = _integrand_numpy(theta, r_e, a, denom)
    cum = np.cumsum(0.5 * step * (f[:-1] + f[1:]))
    idx = int(np.searchsorted(cum, 1.0))
    if idx == len(cum):
        return math.nan, float(cum[-1])
    prev = float(cum[idx - 1]) if idx > 0 else 0.0
    frac = (1.0 - prev) / (float(cum[idx]) - prev)
    return float(theta[idx]) + frac * step, float(cum[idx])


# perfbench/run.py's run manifest reads this flag; it goes in the next
# change to the benchmark
NUMBA_ENABLED = False
