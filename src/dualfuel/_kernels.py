"""Quadrature kernels for the autoignition integral.

The accumulated integral is the trapezoid rule on a fixed crank-angle grid
anchored at the injection angle, interpolated linearly between nodes; the
start of combustion is the exact crossing of 1 of that piecewise-linear
cumulative. The integrand is exp(-c5 * P^c6 / T) / denom with P and T
projected from IVC along the polytrope, P = p_ivc * r^k and
T = t_ivc * r^(k-1), where r = V_ivc / V(theta) is the compression ratio of
the slider crank. Folding the polytrope into the exponent gives

    -c5 * P^c6 / T = a * r^e,  a = -c5 * p_ivc^c6 / t_ivc,  e = k*c6 - k + 1,

and the integrand is exp(a * g(theta)) / denom. It splits in two parts:
a and denom depend on the operating point only (the plant's
``_kernel_args`` computes both), and the geometric factor g(theta) = r^e on
the crank angle and the plant's config only. ``_compression(m, ...)``
writes g once: called with the geometry, it binds the module ``m``'s
functions and returns ``g(theta)``, which evaluates one angle with
``m = math`` or a whole grid with ``m = numpy``. g costs one cos
(sin^2 = 1 - cos^2), one sqrt and one power r^e per angle; the point part
costs one multiply by a, one exp and one divide.

The march's arguments after (soi, step, theta_max) are (a, denom) and
then g's geometry. ``_march_scalar`` evaluates exp(a * g(th)) / denom
inline, one node per loop pass, looking ``math`` up at each call. It takes
an optional trailing ``g``, the g of its geometry arguments. Each plant
config builds its g once and passes it with every march, dataset samples
included. A plant run passes it memoised per angle, since the actuator's
grid makes its marches revisit the same angles; a node whose angle the
memo has seen costs one dict lookup, one multiply, one exp and one divide.
Without ``g`` the march builds its own from the arguments.

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


# ---------------------------------------------------------------------------
# the geometric factor of the integrand

def _compression(m, v_ivc, e, area, v_clear, crank_r, rod_len):
    """g(theta) = r^e at crank angle(s) theta [deg aTDC], where r is the
    compression ratio V_ivc / V(theta) of the slider crank; m is the module
    that evaluates it, ``math`` or ``numpy``. The integrand is
    exp(a * g(theta)) / denom."""
    cos, sqrt = m.cos, m.sqrt
    rod2, crank2 = rod_len * rod_len, crank_r * crank_r

    def g(theta):
        c = cos(theta * _DEG)
        s = crank_r * (1.0 - c) + rod_len - sqrt(rod2 - crank2 * (1.0 - c * c))
        return (v_ivc / (v_clear + area * s)) ** e
    return g


# ---------------------------------------------------------------------------
# the kernel: plain-math march with an early exit at the crossing

def _march_scalar(soi, step, theta_max, a, denom, v_ivc, e, area, v_clear,
                  crank_r, rod_len, g=None):
    """Returns (soc, integral_reached). soc is NaN when the integral never
    reaches 1 before theta_max (misfire). g is the geometric factor of these
    geometry arguments, built here when not given."""
    if g is None:
        g = _compression(math, v_ivc, e, area, v_clear, crank_r, rod_len)
    exp = math.exp
    half = 0.5 * step
    th = soi
    f0 = exp(a * g(th)) / denom
    total = 0.0
    i = 0
    while th < theta_max:
        i += 1
        th1 = soi + step * i
        f1 = exp(a * g(th1)) / denom
        new_total = total + half * (f0 + f1)
        if new_total >= 1.0:
            frac = (1.0 - total) / (new_total - total)
            return th + frac * step, new_total
        total = new_total
        th = th1
        f0 = f1
    return math.nan, total


march = _march_scalar


def value(theta_end, soi, step, a, denom, *geo):
    """Accumulated integral up to theta_end, linearly interpolated within
    the final grid step (the same convention the march inverts)."""
    g, exp = _compression(math, *geo), math.exp
    n_full = int(math.floor((theta_end - soi) / step))
    f = [exp(a * g(soi + step * i)) / denom for i in range(n_full + 2)]
    total = 0.0
    for i in range(n_full):
        total += 0.5 * step * (f[i] + f[i + 1])
    frac = (theta_end - (soi + step * n_full)) / step
    return total + frac * (0.5 * step * (f[n_full] + f[n_full + 1]))


# ---------------------------------------------------------------------------
# vectorised numpy reference march over the whole grid

def _integrand_numpy(theta, a, denom, *geo):
    """The integrand on the whole grid theta at once."""
    return np.exp(a * _compression(np, *geo)(theta)) / denom


def march_numpy(soi, step, theta_max, a, denom, *geo):
    n = int(math.ceil((theta_max - soi) / step))
    theta = soi + step * np.arange(n + 1)
    f = _integrand_numpy(theta, a, denom, *geo)
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
