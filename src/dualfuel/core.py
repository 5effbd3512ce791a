"""Domain types and closed-form in-cylinder state relations for a dual-fuel
(diesel pilot + premixed natural gas) compression-ignition engine.

Conventions: crank angles in degrees after top dead center (aTDC), pressures
in bar, temperatures in K, volumes in m^3, speed in RPM.
All functions broadcast over numpy arrays.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import MISSING, dataclass, fields
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """Input outside the physical or model domain of an operation."""


def holds(cond, reduce=np.all) -> bool:
    """Truth value of a domain check over scalars or arrays.

    A scalar comparison result (bool or np.bool_) is used as it is, so the
    per-cycle scalar path makes no numpy call; an array result is reduced
    with ``reduce`` (np.all or np.any).
    """
    if isinstance(cond, (bool, np.bool_)):
        return bool(cond)
    return bool(reduce(cond))


def _number(value, what):
    """value if it is a real number (JSON true/false are not) that converts to
    a float, else ValueError: JSON allows an integer of any length."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {type(value).__name__}")
    try:
        float(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite, got an integer too large "
                         "for a float") from None
    return value


def _expect(value, kind, what):
    """value if it has the JSON type kind (dict or list), else ValueError."""
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "a list"
        raise ValueError(f"{what} must be {name}, got {type(value).__name__}")
    return value


def _fields_of(cls, d, what, extra=()):
    """d, a JSON object, as keyword arguments of the dataclass cls, which may
    also carry the keys in extra. Any other key, and a missing field without
    a default, raise a ValueError naming the key as a {what}."""
    for key in d:
        if key not in cls.__dataclass_fields__ and key not in extra:
            raise ValueError(f"unknown {what} {key!r}")
    for f in fields(cls):
        if f.name not in d and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing {what} {f.name!r}")
    return d


def _count(value, name):
    """value if it is a non-negative integer (True and False are not), else a
    DomainError naming it: the rule for every random generator's seed
    (name "rng_seed") and every count of samples or iterations."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# geometry

@dataclass(frozen=True)
class EngineGeometry:
    """Per-cylinder slider-crank geometry plus the IVC angle (deg aTDC)."""

    bore: float
    stroke: float
    rod_length: float
    compression_ratio: float
    ivc_angle: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
        if self.bore <= 0.0 or self.stroke <= 0.0 or self.rod_length <= 0.0:
            raise DomainError("bore, stroke and rod length must be positive")
        if self.compression_ratio <= 1.0:
            raise DomainError("compression ratio must exceed 1")
        # slider-crank validity: rod must clear the crank throw
        if self.rod_length <= self.stroke / 2.0:
            raise DomainError("rod length must exceed crank radius")

    # derived once per instance: the per-cycle path reads them every cycle
    @cached_property
    def crank_radius(self) -> float:
        return self.stroke / 2.0

    @cached_property
    def piston_area(self) -> float:
        return np.pi * self.bore ** 2 / 4.0

    @cached_property
    def displaced_volume(self) -> float:
        return self.piston_area * self.stroke

    @cached_property
    def clearance_volume(self) -> float:
        return self.displaced_volume / (self.compression_ratio - 1.0)

    @cached_property
    def ivc_volume(self) -> float:
        """Cylinder volume at intake valve closing [m^3], a Python float, so
        that the plant's scalar march divides and raises to a power in plain
        floats."""
        return float(cylinder_volume(self.ivc_angle, self))


def default_geometry() -> EngineGeometry:
    """Reference heavy-duty engine: 12.4 L over six cylinders, 17:1 CR."""
    return EngineGeometry(
        bore=0.126,
        stroke=0.166,
        rod_length=0.251,
        compression_ratio=17.0,
        ivc_angle=-148.5,
    )


def cylinder_volume(theta, geom: EngineGeometry):
    """Instantaneous cylinder volume [m^3] at crank angle theta [deg aTDC].

    Exact slider-crank kinematics; theta = 0 is TDC (minimum volume),
    +/-180 is BDC. Broadcasts over theta.
    """
    th = np.deg2rad(theta)
    r = geom.crank_radius
    l = geom.rod_length
    s = r * (1.0 - np.cos(th)) + l - np.sqrt(l * l - (r * np.sin(th)) ** 2)
    return geom.clearance_volume + geom.piston_area * s


# ---------------------------------------------------------------------------
# per-cycle boundary conditions

@dataclass(frozen=True)
class OperatingPoint:
    """Per-cycle boundary conditions seen by one cylinder."""

    speed: float      # RPM
    phi_ng: float     # natural gas equivalence ratio
    phi_di: float     # diesel equivalence ratio
    egr: float        # EGR mass fraction, 0..1
    x_r: float        # residual gas fraction, 0..1
    p_ivc: float      # pressure at IVC [bar]
    t_ivc: float      # temperature at IVC [K]

    def __post_init__(self):
        # one combined test for a valid point; a failing point, or columns,
        # whose comparisons have no single truth value, take the per-field
        # checks below, which name the field
        try:
            if (self.speed > 0.0 and 0.0 <= self.egr < 1.0 and 0.0 <= self.x_r < 1.0
                    and self.phi_ng >= 0.0 and self.phi_di > 0.0 and self.p_ivc > 0.0
                    and self.t_ivc > 0.0):
                return
        except ValueError:
            pass
        if not holds(self.speed > 0.0):
            raise DomainError("engine speed must be positive")
        if not (holds(self.egr >= 0.0) and holds(self.egr < 1.0)):
            raise DomainError("EGR fraction must lie in [0, 1)")
        if not (holds(self.x_r >= 0.0) and holds(self.x_r < 1.0)):
            raise DomainError("residual fraction must lie in [0, 1)")
        if not holds(self.phi_ng >= 0.0):
            raise DomainError("phi_ng must be non-negative")
        if not holds(self.phi_di > 0.0):
            raise DomainError("phi_di must be positive")
        if not holds(self.p_ivc > 0.0):
            raise DomainError("p_ivc must be positive")
        if not holds(self.t_ivc > 0.0):
            raise DomainError("t_ivc must be positive")


# ---------------------------------------------------------------------------
# model coefficients

@dataclass(frozen=True)
class ModelCoefficients:
    """Constants of the CA50 prediction model.

    c1, c2 scale the ignition delay with EGR and speed; c3, c4 are the
    natural-gas/diesel equivalence-ratio exponents of the delay; c5, c6
    form the Arrhenius-like exponent c5 * P^c6 / T; c8..c10 shape the burn
    duration; c11 maps the burn-duration term onto the SOC-to-CA50 offset;
    k_c is the polytropic exponent used to project IVC state to injection.
    wiebe_a/wiebe_b shape the burn profile used by the plant only; the
    plant burn-duration scale c7 is derived so that the half-burn point of
    the profile reproduces the c11 offset.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    c5: float
    c6: float
    c8: float
    c9: float
    c10: float
    c11: float
    k_c: float
    wiebe_a: float = 6.908   # ln(1000): 99.9 % of mass burned at SOC + BD
    wiebe_b: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"coefficient {f.name!r} must be finite, got {value}")
        if self.c5 <= 0.0:
            raise DomainError("c5 must be positive")
        if self.c11 <= 0.0:
            raise DomainError("c11 must be positive")
        if self.k_c <= 1.0:
            raise DomainError("polytropic exponent k_c must exceed 1")
        if self.wiebe_a <= 0.0 or self.wiebe_b <= 0.0:
            raise DomainError("Wiebe shape parameters must be positive")
        # a Wiebe shape far from the usual one under- or overflows the
        # half-burn fraction, and c7 with it
        with np.errstate(over="ignore"):
            fraction = self.half_burn_fraction
        if not (0.0 < fraction < math.inf and 0.0 < self.c7 < math.inf):
            raise DomainError(
                f"the Wiebe shape wiebe_a={self.wiebe_a}, wiebe_b={self.wiebe_b} gives a "
                f"half-burn fraction {fraction} and c7 = c11 / fraction that are not "
                "finite and positive")

    @cached_property
    def half_burn_fraction(self) -> float:
        """Fraction of the burn duration elapsed at 50 % mass burned."""
        return float((np.log(2.0) / self.wiebe_a) ** (1.0 / self.wiebe_b))

    @cached_property
    def c7(self) -> float:
        """Plant burn-duration scale [CAD], derived from c11 and the Wiebe shape."""
        return self.c11 / self.half_burn_fraction

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["c7"] = self.c7
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelCoefficients":
        _fields_of(cls, _expect(d, dict, "coefficients"), "coefficient", extra=("c7",))
        coeffs = cls(**{f.name: float(_number(d[f.name], f"coefficient {f.name!r}"))
                        for f in fields(cls) if f.name in d})
        if "c7" in d:
            c7 = float(_number(d["c7"], "coefficient 'c7'"))
            if not abs(c7 - coeffs.c7) <= 1e-9 * coeffs.c7:
                raise DomainError(f"coefficient 'c7' = {c7} contradicts c11 / "
                                  f"half_burn_fraction = {coeffs.c7}")
        return coeffs


def default_coefficients() -> ModelCoefficients:
    """Shipped calibration of the CA50 model for the reference engine."""
    return ModelCoefficients(
        c1=1.0504e-4,
        c2=1.4958e-4,
        c3=0.2284,
        c4=-0.2604,
        c5=9591.9,
        c6=-0.5962,
        c8=0.8292,
        c9=0.0522,
        c10=-0.9682,
        c11=1.3359,
        k_c=1.0546,
    )


def save_coefficients(path, coeffs: ModelCoefficients):
    with open(path, "w") as fh:
        json.dump(coeffs.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_json(path):
    """The JSON document in path. Undecodable text, malformed JSON and a
    document nested past the parser's recursion limit raise a ValueError
    naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:   # UnicodeDecodeError or JSONDecodeError
            raise ValueError(f"{path}: {exc}") from None


def _write_csv(path, header, rows):
    """Write header and rows, each an iterable of values, in the one CSV
    dialect of the package: cells joined by commas and lines ending in \\r\\n,
    as csv.writer writes cells that need no quoting. A str is written as it
    is, None as an empty cell and any other value as the repr of its float,
    so that it reloads exactly; an integer column passes str(value)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(",".join([repr(v) if type(v) is float else v if type(v) is str
                                else "" if v is None else repr(float(v)) for v in cells])
                      + "\r\n" for cells in rows)


def _read_csv(path, header, row):
    """[row(cells) for each row after the header] of a CSV file whose first
    row is header, each row's cells a list of strings. A missing or different
    header, no row, a row the csv module cannot parse and undecodable text
    raise a one-line ValueError naming the file; so do a row whose length is
    not the header's and a ValueError from row(cells), with the line on which
    the row starts. Each row is converted as it is read, so the first bad
    row is the one named, whatever its fault."""
    out = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        start = 1   # the line on which the row being read starts
        try:
            for cells in r:
                if start == 1:
                    if tuple(cells) != tuple(header):
                        raise ValueError(f"expected the header {','.join(header)}")
                elif len(cells) != len(header):
                    raise ValueError(f"expected {len(header)} values, got {len(cells)}")
                else:
                    out.append(row(cells))
                start = r.line_num + 1
        except UnicodeDecodeError as exc:   # a ValueError, but on no one line
            raise ValueError(f"{path}: {exc}") from None
        except (csv.Error, ValueError) as exc:   # DomainError is a ValueError
            raise ValueError(f"{path}:{start}: {exc}") from None
    if start == 1:
        raise ValueError(f"{path}: empty file, no header")
    if not out:
        raise ValueError(f"{path}: a header but no rows")
    return out


def load_coefficients(path) -> ModelCoefficients:
    """Coefficients from a JSON file, with a positive ignition-delay scale.

    The delay scale c1*egr + c2 must be positive for every egr in [0, 1),
    that is c2 > 0 and c1 + c2 > 0. ``model.delay_scale`` rejects a scale
    that is not finite and positive only at the points it evaluates, and the
    adaptive law reads neither c1 nor c2, so an adaptive run would go on; this
    check rejects the file once, naming c1 and c2. The calibration's trial
    points do not come through here, so the check stays out of
    ``ModelCoefficients``.
    """
    coeffs = ModelCoefficients.from_dict(_load_json(path))
    if not (coeffs.c2 > 0.0 and coeffs.c1 + coeffs.c2 > 0.0):
        raise DomainError(
            f"ignition-delay scale c1*egr + c2 must be positive for egr in [0, 1): "
            f"need c2 > 0 and c1 + c2 > 0, got c1={coeffs.c1}, c2={coeffs.c2}")
    return coeffs


# ---------------------------------------------------------------------------
# in-cylinder state

def polytropic_state_at_soi(p_ivc, t_ivc, v_ivc, v_soi, k_c):
    """(P, T) at injection from IVC state via a polytropic compression.

    P_SOI = P_IVC * (V_IVC/V_SOI)^k_c, T_SOI = T_IVC * (V_IVC/V_SOI)^(k_c-1).
    A state that is not finite is a DomainError: inf^c6 = 0 for a negative
    c6 would otherwise make the Arrhenius factor silently 1.
    """
    if holds(v_ivc <= 0.0, np.any) or holds(v_soi <= 0.0, np.any):
        raise DomainError("volumes must be positive")
    ratio = v_ivc / v_soi
    try:
        p_soi, t_soi = p_ivc * ratio ** k_c, t_ivc * ratio ** (k_c - 1.0)
    except OverflowError:   # a Python float power raises; numpy gives inf instead
        p_soi = t_soi = math.inf
    if not holds((p_soi < math.inf) & (t_soi < math.inf)):
        raise DomainError(f"the polytropic state at SOI is not finite for k_c = {k_c}")
    return p_soi, t_soi
