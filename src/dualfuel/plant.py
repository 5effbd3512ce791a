"""Cycle-by-cycle engine plant.

Plays the role of the high-fidelity reference: the autoignition integral is
integrated over the full polytropic in-cylinder trace (no freezing at the
injection point), CA50 sits at the Wiebe profile's half-burn point, and the
actuator/sensor path adds injection quantization, intake transport lag and
measurement noise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    cylinder_volume,  # noqa: F401  (perfbench traces plant.cylinder_volume)
)
from .model import burn_duration, ca50_from_soc_bd, delay_scale

# combustion later than this is treated as a failed cycle
MISFIRE_LIMIT = 60.0

# start-up cycles run without fuel before the first fired cycle
MOTORED_CYCLES = 2


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
        if not (0.0 < self.quad_step <= 0.5):
            raise DomainError("quad_step must lie in (0, 0.5] CAD")
        if self.soi_resolution <= 0.0:
            raise DomainError("soi_resolution must be positive")
        if self.egr_lag_cycles < 0:
            raise DomainError("egr_lag_cycles must be non-negative")
        if self.ca50_noise_halfwidth < 0.0:
            raise DomainError("ca50_noise_halfwidth must be finite and non-negative")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise DomainError(f"rng_seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class CycleRecord:
    """One engine cycle as simulated: commands, applied actuation, outcome."""

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

    def __post_init__(self):
        # ordering holds for fired cycles; motored start-up cycles carry zeros
        if self.cycle_index >= MOTORED_CYCLES:
            if self.soc < self.soi_applied - 1e-9:
                raise DomainError("combustion cannot precede injection")
            if self.ca50_actual < self.soc - 1e-9:
                raise DomainError("CA50 cannot precede start of combustion")


def _kernel_args(op: OperatingPoint, cfg: PlantConfig):
    geom, coeffs = cfg.geom, cfg.coeffs
    denom = delay_scale(op.egr, op.speed, op.phi_ng, op.phi_di, coeffs)
    return (op.p_ivc, op.t_ivc, geom.ivc_volume, denom, coeffs.c5, coeffs.c6,
            cfg.plant_poly_exp, geom.piston_area, geom.clearance_volume,
            geom.crank_radius, geom.rod_length)


def knock_integral_soc(op: OperatingPoint, soi: float, cfg: PlantConfig) -> float:
    """Start of combustion [deg aTDC] from the full autoignition integral.

    Marches from the injection angle in quad_step increments over the
    polytropic trace until the accumulated integral crosses 1; the crossing
    is interpolated linearly within the final step.
    """
    if soi < cfg.geom.ivc_angle:
        raise DomainError("injection cannot precede IVC")
    soc, reached = _kernels.march(soi, cfg.quad_step, MISFIRE_LIMIT, *_kernel_args(op, cfg))
    if math.isnan(soc):
        raise Misfire(
            f"integral reached {reached:.4f} < 1 by {MISFIRE_LIMIT} deg aTDC "
            f"(soi={soi:.2f}, speed={op.speed:.0f})"
        )
    return soc


def knock_integral_value(op: OperatingPoint, soi: float, theta_end: float,
                         cfg: PlantConfig) -> float:
    """Accumulated autoignition integral from soi up to theta_end."""
    if theta_end < soi:
        raise DomainError("theta_end must not precede soi")
    return _kernels.value(theta_end, soi, cfg.quad_step, *_kernel_args(op, cfg))


def quantize_soi(command: float, resolution: float) -> float:
    """Round to the actuator grid, halves away from zero."""
    n = math.floor(abs(command) / resolution + 0.5)
    return math.copysign(n * resolution, command)


class EnginePlant:
    """Mutable single-cylinder plant advanced one cycle at a time.

    The first MOTORED_CYCLES cycles run without fuel: phasing outputs are
    zero. The cylinder sees a first-order-lagged EGR fraction; everything
    else in the commanded operating point applies within the cycle.
    Deterministic for a fixed config (seeded measurement noise).
    """

    def __init__(self, cfg: PlantConfig):
        self.cfg = cfg
        self.cycle_index = 0
        self.time_s = 0.0
        self.egr_seen: float | None = None
        self.rng = np.random.default_rng(cfg.rng_seed)
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
        op_seen = OperatingPoint(speed=op.speed, phi_ng=op.phi_ng, phi_di=op.phi_di,
                                 egr=self.egr_seen, x_r=op.x_r, p_ivc=op.p_ivc,
                                 t_ivc=op.t_ivc)

        soi_applied = quantize_soi(soi_command, cfg.soi_resolution)

        if self.cycle_index < MOTORED_CYCLES:
            soc = bd = ca50 = ca50_meas = 0.0   # motored start-up cycles
        else:
            soc = knock_integral_soc(op_seen, soi_applied, cfg)
            bd = burn_duration(op_seen.egr + op_seen.x_r, op_seen.phi_ng,
                               op_seen.phi_di, cfg.coeffs)
            ca50 = ca50_from_soc_bd(soc, bd, cfg.coeffs)
            if cfg.ca50_noise_halfwidth > 0.0:
                ca50_meas = ca50 + self.rng.uniform(-cfg.ca50_noise_halfwidth,
                                                    cfg.ca50_noise_halfwidth)
            else:
                ca50_meas = ca50

        record = CycleRecord(
            cycle_index=self.cycle_index,
            time_s=self.time_s,
            op=op_seen,
            soi_commanded=soi_command,
            soi_applied=soi_applied,
            soc=soc,
            bd=bd,
            ca50_actual=ca50,
            ca50_measured=ca50_meas,
            ca50_ref=ca50_ref,
            alpha_hat=alpha_hat,
            beta_hat=beta_hat,
        )
        self.cycle_index += 1
        self.time_s += 120.0 / op.speed   # two revolutions per four-stroke cycle
        return record
