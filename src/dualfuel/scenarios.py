"""Scenario definitions: piecewise-linear schedules over time for the engine
boundary conditions and the CA50 reference, plus JSON loading and the six
built-in benchmark transients."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields

from .control import MEAN_RESIDUAL_FRACTION
from .core import _load_json, _number
from .plant import PlantConfig

# quantities a scenario may schedule; manifold conditions are mapped to IVC
# conditions unless the scenario supplies p_ivc/t_ivc directly
SCHEDULE_KEYS = ("speed", "phi_di", "phi_ng", "egr", "x_r",
                 "p_ivc", "t_ivc", "p_man", "t_man")

# documented bridge from mean intake-manifold conditions to IVC conditions
# (ram/heating effects of the intake stroke on this engine)
IVC_PRESSURE_GAIN = 1.45    # p_ivc = 1.45 * p_man  [bar]
IVC_TEMP_OFFSET = 90.0      # t_ivc = t_man + 90    [K]

CONTROLLERS = ("adaptive", "feedforward")

# PlantConfig fields a scenario may override; the runner supplies the rest
PLANT_KEYS = tuple(f.name for f in fields(PlantConfig)
                   if f.name not in ("geom", "coeffs"))


@dataclass(frozen=True)
class Breakpoint:
    """New schedule value taking effect at time t, optionally reached by a
    linear ramp of length ramp_s."""

    t: float
    value: float
    ramp_s: float = 0.0

    def __post_init__(self):
        for name in ("t", "value", "ramp_s"):
            if not math.isfinite(_number(getattr(self, name), f"breakpoint {name}")):
                raise ValueError(f"breakpoint {name} must be finite")
        if self.ramp_s < 0.0:
            raise ValueError("ramp_s must be non-negative")


@dataclass(frozen=True)
class Scenario:
    duration_s: float
    controller: str
    schedules: dict              # name -> list[Breakpoint]
    reference: list              # list[Breakpoint] for the CA50 target
    plant: dict = field(default_factory=dict)   # PlantConfig overrides

    def __post_init__(self):
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0.0):
            raise ValueError("duration_s must be finite and non-negative")
        if self.controller not in CONTROLLERS:
            raise ValueError(f"controller must be one of {CONTROLLERS}")
        for key, value in self.plant.items():
            if key not in PLANT_KEYS:
                raise ValueError(f"unknown plant key {key!r}")
            _number(value, f"plant key {key!r}")
        for key, bps in self.schedules.items():
            if key not in SCHEDULE_KEYS:
                raise ValueError(f"unknown schedule key {key!r}")
            _check_breakpoints(key, bps)
        _check_breakpoints("reference", self.reference)
        for key in ("speed", "phi_di", "phi_ng"):
            if key not in self.schedules:
                raise ValueError(f"scenario must schedule {key!r}")
        if "p_ivc" not in self.schedules and "p_man" not in self.schedules:
            raise ValueError("scenario must schedule p_ivc or p_man")
        if "t_ivc" not in self.schedules and "t_man" not in self.schedules:
            raise ValueError("scenario must schedule t_ivc or t_man")

    def event_times(self):
        """Sorted distinct times at which any schedule or the reference
        changes (segment boundaries), excluding t = 0."""
        times = set()
        for bps in list(self.schedules.values()) + [self.reference]:
            for bp in bps:
                if 0.0 < bp.t < self.duration_s:
                    times.add(bp.t)
        return sorted(times)


def _check_breakpoints(name, bps):
    if not bps:
        raise ValueError(f"schedule {name!r} has no breakpoints")
    for prev, bp in zip(bps, bps[1:]):
        if bp.t < prev.t:
            raise ValueError(f"schedule {name!r} breakpoints must be time-ordered")
        # schedule_value would skip a breakpoint inside the previous ramp
        # until that ramp ends
        if bp.t < prev.t + prev.ramp_s:
            raise ValueError(
                f"schedule {name!r} breakpoint at t={bp.t} falls inside the ramp "
                f"of the one at t={prev.t}, which ends at t={prev.t + prev.ramp_s}")


def schedule_value(bps, t: float) -> float:
    """Evaluate a breakpoint list: piecewise constant, with linear
    interpolation across each breakpoint's ramp window."""
    v = bps[0].value
    for bp in bps:
        if t < bp.t:
            break
        if bp.ramp_s > 0.0 and t < bp.t + bp.ramp_s:
            return v + (bp.value - v) * (t - bp.t) / bp.ramp_s
        v = bp.value
    return v


# ---------------------------------------------------------------------------
# JSON loading

def _expect(value, kind, what):
    """value if it has the JSON type kind (dict or list), else ValueError."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _fields_of(cls, d):
    """d, a JSON object, as keyword arguments of the dataclass cls. A key that
    is not a field, and a missing field without a default, raise a ValueError."""
    kind = cls.__name__.lower()
    for key in d:
        if key not in cls.__dataclass_fields__:
            raise ValueError(f"unknown {kind} key {key!r}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{kind} is missing key {f.name!r}")
    return d


def _breakpoints_from_list(name, bps) -> list:
    return [Breakpoint(**_fields_of(Breakpoint,
                                    _expect(bp, dict, f"breakpoint of {name!r}")))
            for bp in _expect(bps, list, f"schedule {name!r}")]


def scenario_from_dict(d: dict) -> Scenario:
    _fields_of(Scenario, _expect(d, dict, "scenario"))
    return Scenario(
        duration_s=float(_number(d["duration_s"], "scenario key 'duration_s'")),
        controller=d["controller"],
        plant=dict(_expect(d.get("plant", {}), dict, "scenario key 'plant'")),
        schedules={k: _breakpoints_from_list(k, bps) for k, bps in
                   _expect(d["schedules"], dict, "scenario key 'schedules'").items()},
        reference=_breakpoints_from_list("reference", d["reference"]),
    )


def load_scenario(path) -> Scenario:
    return scenario_from_dict(_load_json(path))


# ---------------------------------------------------------------------------
# built-in benchmark transients

# the base condition of every case: 1200 RPM, manifold 2 bar / 300 K, and a
# CA50 reference of 8 CAD
_BASE = {"speed": 1200.0, "t_man": 300.0, "p_man": 2.0, "phi_di": 0.4, "phi_ng": 0.4,
         "egr": 0.25, "x_r": MEAN_RESIDUAL_FRACTION, "reference": 8.0}

# each case's second condition: (schedule, value before 5 s, value from 5 s)
_SPEED, _GAS, _EGR = ("speed", 1200.0, 1500.0), ("phi_ng", 0.3, 0.5), ("egr", 0.0, 0.5)
_CASES = {1: [("reference", 8.0, 10.0)], 2: [_SPEED], 3: [_GAS], 4: [_EGR],
          5: [_SPEED, _GAS], 6: [_SPEED, _GAS, _EGR]}


def builtin_case(n: int, controller: str = "adaptive", seed: int = 0) -> Scenario:
    """Six 10 s benchmark transients at 1200 RPM base, manifold 2 bar / 300 K,
    second condition applied at t = 5 s (ramped over 0.5 s where the change
    is a plant quantity):

    1 reference CA50 step 8 -> 10; 2 speed 1200 -> 1500; 3 phi_ng 0.3 -> 0.5;
    4 EGR 0 -> 0.5; 5 speed + phi_ng combined; 6 speed + phi_ng + EGR combined.
    """
    if n not in _CASES:
        raise ValueError("case number must be 1..6")
    schedules = {key: [Breakpoint(t=0.0, value=v)] for key, v in _BASE.items()}
    for key, before, after in _CASES[n]:
        schedules[key] = [Breakpoint(t=0.0, value=before),
                          Breakpoint(t=5.0, value=after,
                                     ramp_s=0.0 if key == "reference" else 0.5)]
    reference = schedules.pop("reference")
    # benchmark runs are noise-free; the measurement-noise study adds it back
    plant = {"ca50_noise_halfwidth": 0.0, "rng_seed": seed}
    return Scenario(duration_s=10.0, controller=controller,
                    schedules=schedules, reference=reference, plant=plant)
