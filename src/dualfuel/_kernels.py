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
for a state and ``_node`` the integrand, written once for both marches: with
``m = math`` at one angle, with ``m = numpy`` on a whole grid.

``march`` is the kernel the package runs: ``_march_scalar`` takes the nodes
one at a time and stops at the crossing: about 11 nodes for a firing point
against the 584 of the whole grid up to the misfire limit, which in plain
CPython cost less than one vectorised pass over that grid. ``value``
integrates up to a given angle with the same nodes and the same sum, for the
quadrature checks.

``march_numpy`` is the reference march: it evaluates the whole grid at once
through ``_integrand_numpy`` and finds the crossing with numpy's cumsum and
searchsorted, so it checks the scalar loop's summation and crossing apart
from that loop; the tests check the integrand itself against the model's
unfolded formula. The tests hold ``march`` to it within 1e-12 CAD, and the
benchmark's node counts and backend label read it by name. numpy's
vectorised cos, sqrt and power round differently from libm in the last bit
now and then, so a few SOCs differ from the reference by about 1e-15 CAD,
not bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_DEG = math.pi / 180.0


def _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp):
    """(a, e) with -c5 * P^c6 / T = a * r^e along the polytrope from IVC."""
    return -c5 * p_ivc ** c6 / t_ivc, poly_exp * c6 - poly_exp + 1.0


# ---------------------------------------------------------------------------
# the integrand

def _node(theta, m, a, denom, v_ivc, e, area, v_clear, crank_r, rod_len):
    """Integrand exp(a * r^e) / denom at crank angle(s) theta [deg aTDC],
    where r is the compression ratio V_ivc / V(theta) of the slider crank;
    m is the module that evaluates it, ``math`` or ``numpy``."""
    c = m.cos(theta * _DEG)
    s = crank_r * (1.0 - c) + rod_len - m.sqrt(
        rod_len * rod_len - crank_r * crank_r * (1.0 - c * c))
    return m.exp(a * (v_ivc / (v_clear + area * s)) ** e) / denom


# ---------------------------------------------------------------------------
# the kernel: plain-math march with an early exit at the crossing

def _march_scalar(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                  c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    """Returns (soc, integral_reached). soc is NaN when the integral never
    reaches 1 before theta_max (misfire)."""
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    geo = (math, a, denom, v_ivc, e, area, v_clear, crank_r, rod_len)
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
    geo = (math, a, denom, v_ivc, e, area, v_clear, crank_r, rod_len)
    n_full = int(math.floor((theta_end - soi) / step))
    f = [_node(soi + step * i, *geo) for i in range(n_full + 2)]
    total = 0.0
    for i in range(n_full):
        total += 0.5 * step * (f[i] + f[i + 1])
    frac = (theta_end - (soi + step * n_full)) / step
    return total + frac * (0.5 * step * (f[n_full] + f[n_full + 1]))


# ---------------------------------------------------------------------------
# vectorised numpy reference march over the whole grid

def _integrand_numpy(theta, *geo):
    """``_node`` on the whole grid theta at once."""
    return _node(theta, np, *geo)


def march_numpy(soi, step, theta_max, p_ivc, t_ivc, v_ivc, denom,
                c5, c6, poly_exp, area, v_clear, crank_r, rod_len):
    a, e = _folded_exponent(p_ivc, t_ivc, c5, c6, poly_exp)
    n = int(math.ceil((theta_max - soi) / step))
    theta = soi + step * np.arange(n + 1)
    f = _integrand_numpy(theta, a, denom, v_ivc, e, area, v_clear, crank_r, rod_len)
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
