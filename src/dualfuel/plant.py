"""Cycle-by-cycle engine plant.

Plays the role of the high-fidelity reference: the autoignition integral is
integrated over the full polytropic in-cylinder trace (no freezing at the
injection point), CA50 sits at the Wiebe profile's half-burn point, and the
actuator/sensor path adds injection quantization, intake transport lag and
measurement noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _kernels
from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    _count,
    cylinder_volume,  # noqa: F401  (perfbench traces plant.cylinder_volume)
)
from .model import arrhenius_exponent, burn_duration, ca50_from_soc_bd, delay_scale

# combustion later than this is treated as a failed cycle
MISFIRE_LIMIT = 60.0

# end of the expansion stroke [deg aTDC]: no CA50 lies past it
EXPANSION_END = 180.0

# start-up cycles run without fuel before the first fired cycle
MOTORED_CYCLES = 2

# finest quadrature step [CAD]: it bounds a march from IVC (-148.5 deg aTDC
# for the reference engine) to MISFIRE_LIMIT at about 20,850 nodes
QUAD_STEP_MIN = 0.01


class Misfire(RuntimeError):
    """The autoignition integral never reached 1 before the misfire limit."""


@dataclass(frozen=True)
class PlantConfig:
    """Plant composition and actuator/sensor imperfections.

    plant_poly_exp drives the in-cylinder compression trace and is
    deliberately distinct from the model's calibrated k_c so the controllers
    face an honest plant/model mismatch.
    """

    geom: EngineGeometry
    coeffs: ModelCoefficients
    plant_poly_exp: float = 1.30
    quad_step: float = 0.1           # CAD
    soi_resolution: float = 0.1      # CAD
    egr_lag_cycles: int = 3
    ca50_noise_halfwidth: float = 0.5  # CAD
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("plant_poly_exp", "quad_step", "soi_resolution",
                     "egr_lag_cycles", "ca50_noise_halfwidth"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.plant_poly_exp <= 1.0:
            raise DomainError("polytropic exponent plant_poly_exp must exceed 1")
        if not (QUAD_STEP_MIN <= self.quad_step <= 0.5):
            raise DomainError(f"quad_step must lie in [{QUAD_STEP_MIN}, 0.5] CAD, "
                              f"got {self.quad_step}")
        # quantize_soi divides a command by the resolution; the quotient
        # must stay finite
        if not (self.soi_resolution > 0.0 and 720.0 / self.soi_resolution < math.inf):
            raise DomainError("soi_resolution must be positive with a finite number of "
                              f"steps per cycle, 720 / soi_resolution, got {self.soi_resolution}")
        if self.egr_lag_cycles < 0:
            raise DomainError("egr_lag_cycles must be non-negative")
        if not 0.0 <= 2.0 * self.ca50_noise_halfwidth < math.inf:   # the draw's span
            raise DomainError(f"ca50_noise_halfwidth must be non-negative with a finite "
                              f"span 2 * halfwidth, got {self.ca50_noise_halfwidth}")
        _count(self.rng_seed, "rng_seed")

    # The knock integrand's geometric factor g(theta) = r^e is fixed by the
    # config, so it is derived once per instance, as the geometry derives its
    # volumes. Neither is a field: equality, hashing and the scenario's plant
    # keys do not see them.
    @cached_property
    def _g_args(self) -> tuple:
        """The arguments of g (``_kernels._compression``) after its module.
        e = k*c6 - k + 1 folds the polytrope into the exponent."""
        geom, k = self.geom, self.plant_poly_exp
        return (geom.ivc_volume, k * self.coeffs.c6 - k + 1.0, geom.piston_area,
                geom.clearance_volume, geom.crank_radius, geom.rod_length)

    @cached_property
    def _g(self):
        """g(theta) of this config on one angle, in plain math."""
        return _kernels._compression(math, *self._g_args)

    def __getstate__(self):
        # g is a closure, which pickle cannot carry; a copy rebuilds it on use
        return {k: v for k, v in self.__dict__.items() if k != "_g"}


class CycleRecord(NamedTuple):
    """One engine cycle as simulated: commands, applied actuation, outcome.

    Immutable. Its ordering checks (combustion not before injection, CA50
    not before combustion) run in EnginePlant.step_cycle on every fired
    cycle; motored start-up cycles carry zeros.
    """

    cycle_index: int
    time_s: float
    op: OperatingPoint          # boundary conditions as seen by the cylinder
    soi_commanded: float
    soi_applied: float
    soc: float
    bd: float
    ca50_actual: float
    ca50_measured: float
    ca50_ref: float
    alpha_hat: float | None = None   # observer values; None on open-loop runs
    beta_hat: float | None = None


def _kernel_args(op: OperatingPoint, cfg: PlantConfig):
    """The march's arguments after (soi, step, theta_max): the point's folded
    factor a = -c5 * p_ivc^c6 / t_ivc and delay scale, then the geometry's."""
    coeffs = cfg.coeffs
    try:
        a = -arrhenius_exponent(op.p_ivc, op.t_ivc, coeffs)
    except OverflowError:
        raise DomainError(f"p_ivc^c6 overflows for c6 = {coeffs.c6}") from None
    return (a, delay_scale(op.egr, op.speed, op.phi_ng, op.phi_di, coeffs)) + cfg._g_args


def _march_soc(op: OperatingPoint, soi: float, cfg: PlantConfig, args) -> float:
    """knock_integral_soc with op's kernel arguments args already built."""
    if soi < cfg.geom.ivc_angle:
        raise DomainError("injection cannot precede IVC")
    try:
        soc, reached = _kernels.march(soi, cfg.quad_step, MISFIRE_LIMIT, *args)
    except OverflowError:   # the integrand's r^e, a Python float power
        raise DomainError(f"the knock integrand overflows for c6 = {cfg.coeffs.c6}"
                          ) from None
    if math.isnan(soc):
        raise Misfire(
            f"integral reached {reached:.4f} < 1 by {MISFIRE_LIMIT} deg aTDC "
            f"(soi={soi:.2f}, speed={op.speed:.0f})"
        )
    return soc


def knock_integral_soc(op: OperatingPoint, soi: float, cfg: PlantConfig) -> float:
    """Start of combustion [deg aTDC] from the full autoignition integral.

    Marches from the injection angle in quad_step increments over the
    polytropic trace until the accumulated integral crosses 1; the crossing
    is interpolated linearly within the final step.
    """
    return _march_soc(op, soi, cfg, _kernel_args(op, cfg) + (cfg._g,))


def knock_integral_value(op: OperatingPoint, soi: float, theta_end: float,
                         cfg: PlantConfig) -> float:
    """Accumulated autoignition integral from soi up to theta_end."""
    if theta_end < soi:
        raise DomainError("theta_end must not precede soi")
    try:
        return _kernels.value(theta_end, soi, cfg.quad_step, *_kernel_args(op, cfg))
    except OverflowError:   # as in _march_soc
        raise DomainError(f"the knock integrand overflows for c6 = {cfg.coeffs.c6}"
                          ) from None


def check_phasing_order(soi: float, soc: float, ca50: float) -> None:
    """A DomainError if start of combustion precedes injection, or CA50
    precedes start of combustion, by more than 1e-9 CAD, or if CA50 is not
    at or before the end of the expansion stroke."""
    if soc < soi - 1e-9:
        raise DomainError("combustion cannot precede injection")
    if ca50 < soc - 1e-9:
        raise DomainError("CA50 cannot precede start of combustion")
    if not ca50 <= EXPANSION_END:
        raise DomainError(f"CA50 cannot follow the end of the expansion stroke "
                          f"({EXPANSION_END:g} deg aTDC), got {ca50:g}")


def quantize_soi(command: float, resolution: float) -> float:
    """Round to the actuator grid, halves away from zero."""
    n = math.floor(abs(command) / resolution + 0.5)
    return math.copysign(n * resolution, command)


class _AngleMemo(dict):
    """g(theta) by the exact float angle, computed on first use."""

    def __init__(self, g):
        super().__init__()
        self.g = g

    def __missing__(self, theta):
        value = self[theta] = self.g(theta)
        return value


class EnginePlant:
    """Mutable single-cylinder plant advanced one cycle at a time.

    The first MOTORED_CYCLES cycles run without fuel: phasing outputs are
    zero. The cylinder sees a first-order-lagged EGR fraction; everything
    else in the commanded operating point applies within the cycle.
    Deterministic for a fixed config (seeded measurement noise).

    One plant is one run, and it keeps two things for that run only. The
    values of its config's geometric factor g(theta), which the config
    builds once, are memoised by the exact float angle, since the
    actuator's grid makes the marches revisit the same angles; no memo
    outlives the plant, because its key does not include the config. And
    the point the cylinder saw last keeps its march arguments and burn
    duration until the point changes. Neither changes an output bit: each
    value is the one a fresh computation gives.
    """

    def __init__(self, cfg: PlantConfig):
        self.cfg = cfg
        self.cycle_index = 0
        self.time_s = 0.0
        self.egr_seen: float | None = None
        self.rng = np.random.default_rng(cfg.rng_seed)
        self._g = _AngleMemo(cfg._g).__getitem__
        # (point the cylinder saw last, its march arguments with self._g
        # appended, its burn duration)
        self._seen: tuple | None = None
        if cfg.egr_lag_cycles > 0:
            self._lag_gain = 1.0 - math.exp(-1.0 / cfg.egr_lag_cycles)
        else:
            self._lag_gain = 1.0

    def step_cycle(self, soi_command: float, op: OperatingPoint,
                   ca50_ref: float = float("nan"),
                   alpha_hat: float | None = None,
                   beta_hat: float | None = None) -> CycleRecord:
        cfg = self.cfg
        if self.egr_seen is None:
            self.egr_seen = op.egr   # plant starts in equilibrium with the schedule
        else:
            self.egr_seen += self._lag_gain * (op.egr - self.egr_seen)
        if self.egr_seen == op.egr:
            op_seen = op   # the lag has settled: the cylinder sees the command
        else:
            op_seen = OperatingPoint(speed=op.speed, phi_ng=op.phi_ng, phi_di=op.phi_di,
                                     egr=self.egr_seen, x_r=op.x_r, p_ivc=op.p_ivc,
                                     t_ivc=op.t_ivc)

        soi_applied = quantize_soi(soi_command, cfg.soi_resolution)

        if self.cycle_index < MOTORED_CYCLES:
            soc = bd = ca50 = ca50_meas = 0.0   # motored start-up cycles
        else:
            seen = self._seen
            if seen is None or seen[0] is not op_seen:
                # work that depends on the point alone, redone when it changes
                seen = self._seen = (
                    op_seen, _kernel_args(op_seen, cfg) + (self._g,),
                    burn_duration(op_seen.egr + op_seen.x_r, op_seen.phi_ng,
                                  op_seen.phi_di, cfg.coeffs))
            _, args, bd = seen
            soc = _march_soc(op_seen, soi_applied, cfg, args)
            ca50 = ca50_from_soc_bd(soc, bd, cfg.coeffs)
            check_phasing_order(soi_applied, soc, ca50)
            if cfg.ca50_noise_halfwidth > 0.0:
                ca50_meas = ca50 + self.rng.uniform(-cfg.ca50_noise_halfwidth,
                                                    cfg.ca50_noise_halfwidth)
            else:
                ca50_meas = ca50

        record = CycleRecord(self.cycle_index, self.time_s, op_seen, soi_command,
                             soi_applied, soc, bd, ca50, ca50_meas, ca50_ref,
                             alpha_hat, beta_hat)
        self.cycle_index += 1
        self.time_s += 120.0 / op.speed   # two revolutions per four-stroke cycle
        return record
