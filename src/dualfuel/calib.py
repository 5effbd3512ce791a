"""Synthetic dataset generation and Levenberg-Marquardt calibration of the
CA50 model against the plant, with holdout validation statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    _read_csv,
    _write_csv,
    default_coefficients,
    default_geometry,
)
from . import model
from .model import (
    _check_soi,
    burn_duration,
    ca50_from_soc_bd,
    ca50_jacobian,
    predict_ca50,
    predict_soc,
)
from .plant import Misfire, PlantConfig, knock_integral_soc

DATASET_COLUMNS = ("speed", "t_ivc", "p_ivc", "phi_di", "phi_ng", "egr",
                   "x_r", "soi", "soc_ref", "ca50_ref")

# coefficients adjusted by calibration (Wiebe shape is plant-only)
CALIBRATED_FIELDS = ("c1", "c2", "c3", "c4", "c5", "c6", "c8", "c9", "c10",
                     "c11", "k_c")

DIVERGENCE_RMSE = 1e3

# Levenberg-Marquardt damping: start, change per accepted (/) or rejected (*)
# step, floor (repeated division must not reach 0, where a rejection could no
# longer raise it) and the ceiling past which no improving step is left
LM_DAMPING_INITIAL = 1e-3
LM_DAMPING_FACTOR = 10.0
LM_DAMPING_MIN = 1e-12
LM_DAMPING_MAX = 1e10


class CalibrationDiverged(RuntimeError):
    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class CalibSample:
    """One steady-state reference point: boundary conditions, injection angle
    and the plant's resulting phasing."""

    op: OperatingPoint
    soi: float
    soc_ref: float
    ca50_ref: float


@dataclass(frozen=True)
class SampleRanges:
    """Sampling box for dataset generation (min, max per quantity)."""

    speed: tuple = (1200.0, 1500.0)
    t_ivc: tuple = (372.56, 408.87)
    p_ivc: tuple = (2.85, 4.37)
    phi_di: tuple = (0.2, 0.5)
    phi_ng: tuple = (0.2, 0.7)
    egr: tuple = (0.0, 0.5)
    x_r: tuple = (0.02, 0.05)
    soi: tuple = (-20.0, -10.0)


@dataclass
class CalibrationOptions:
    max_iters: int = 2000
    tol: float = 1e-6   # stop when an accepted step improves RMSE by less

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be non-negative, got {self.max_iters}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ValueError(f"tol must be finite and non-negative, got {self.tol}")


@dataclass
class ValidationStats:
    n_samples: int
    soc_err_std: float
    soc_err_max: float
    ca50_err_std: float
    ca50_err_max: float
    soc_within_1cad: float
    ca50_within_1cad: float


@dataclass
class CalibReport:
    iterations: int
    final_rmse: float
    rmse_history: list = field(default_factory=list)
    coeff_history: list = field(default_factory=list)  # dict per iteration
    stop_reason: str = ""   # "tol", "max_iters" or "no_improving_step"
    train_stats: ValidationStats | None = None   # training set, set by calibrate


# ---------------------------------------------------------------------------
# dataset generation

def _latin_hypercube(n, dims, rng):
    u = np.empty((n, dims))
    for j in range(dims):
        u[:, j] = (rng.permutation(n) + rng.uniform(size=n)) / n
    return u


def generate_dataset(ranges: SampleRanges | None, n_samples: int,
                     cfg: PlantConfig, seed: int = 0):
    """Latin-hypercube sample of the operating box with plant references.

    Returns (samples, misfire_count); misfired points are excluded.
    """
    if n_samples < 1:
        raise DomainError("n_samples must be at least 1")
    ranges = ranges or SampleRanges()
    names = [f.name for f in fields(SampleRanges)]
    rng = np.random.default_rng(seed)
    u = _latin_hypercube(n_samples, len(names), rng)
    lo, hi = np.array([getattr(ranges, name) for name in names], dtype=float).T
    samples = []
    misfires = 0
    for speed, t_ivc, p_ivc, phi_di, phi_ng, egr, x_r, soi in (lo + (hi - lo) * u).tolist():
        op = OperatingPoint(speed, phi_ng, phi_di, egr, x_r, p_ivc, t_ivc)
        try:
            soc = knock_integral_soc(op, soi, cfg)
        except Misfire:
            misfires += 1
            continue
        bd = burn_duration(op.egr + op.x_r, op.phi_ng, op.phi_di, cfg.coeffs)
        ca50 = ca50_from_soc_bd(soc, bd, cfg.coeffs)
        samples.append(CalibSample(op, soi, soc, ca50))
    return samples, misfires


def split_dataset(samples, holdout_frac: float = 0.2, seed: int = 0):
    """Shuffle and split into (train, holdout); holdout_frac of 0 keeps
    everything in the training set."""
    if not 0.0 <= holdout_frac < 1.0:
        raise DomainError("holdout_frac must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(samples))
    n_holdout = int(round(holdout_frac * len(samples)))
    if n_holdout == len(samples):
        raise DomainError(f"holdout_frac {holdout_frac:g} of {len(samples)} samples "
                          "leaves no training sample")
    holdout_idx = set(order[:n_holdout].tolist())
    train = [s for i, s in enumerate(samples) if i not in holdout_idx]
    holdout = [s for i, s in enumerate(samples) if i in holdout_idx]
    return train, holdout


# ---------------------------------------------------------------------------
# vectorised evaluation over a dataset

def _columns(dataset):
    """Array-valued OperatingPoint plus soi/reference arrays for fast
    whole-dataset prediction."""
    if not dataset:
        raise DomainError("dataset is empty")
    cols = {name: np.array([getattr(s.op, name) for s in dataset])
            for name in ("speed", "phi_ng", "phi_di", "egr", "x_r", "p_ivc", "t_ivc")}
    op = OperatingPoint(**cols)
    soi = np.array([s.soi for s in dataset])
    soc_ref = np.array([s.soc_ref for s in dataset])
    ca50_ref = np.array([s.ca50_ref for s in dataset])
    return op, soi, soc_ref, ca50_ref


def _check_finite(values, what):
    """A DomainError naming the first sample whose value is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise DomainError(f"sample {bad[0]}: {what} is not finite ({values[bad[0]]})")


def _error(predict, ref, what, op, soi, coeffs, geom, *v_soi):
    """predict(op, soi, coeffs, geom, *v_soi) - ref on a dataset's columns,
    for predict_soc or predict_ca50 and what "SOC" or "CA50". A DomainError
    names the first sample outside the model's domain or whose error is not
    finite."""
    with np.errstate(all="ignore"):   # a non-finite error is named below
        err = predict(op, soi, coeffs, geom, *v_soi) - ref
    _check_finite(err, f"the {what} error")
    return err


def _rms(err) -> float:
    """sqrt(mean(err**2)) of finite errors; a DomainError if it overflows."""
    with np.errstate(all="ignore"):
        out = float(np.sqrt(np.mean(err ** 2)))
    if not math.isfinite(out):
        raise DomainError(f"the CA50 RMSE is not finite ({out})")
    return out


def _spread(err, what):
    """(std, max |err|) of finite errors; a DomainError if the std overflows."""
    with np.errstate(all="ignore"):
        std = float(np.std(err))
    if not math.isfinite(std):
        raise DomainError(f"the standard deviation of {what} is not finite ({std})")
    return std, float(np.max(np.abs(err)))


def rmse(coeffs: ModelCoefficients, dataset, geom: EngineGeometry) -> float:
    """Root-mean-square CA50 prediction error over the dataset [CAD]."""
    op, soi, _, ca50_ref = _columns(dataset)
    return _rms(_error(predict_ca50, ca50_ref, "CA50", op, soi, coeffs, geom))


def validate(coeffs: ModelCoefficients, dataset, geom: EngineGeometry) -> ValidationStats:
    """SOC and CA50 prediction-error statistics against reference values. A
    prediction that is not finite raises a DomainError naming its sample,
    and a statistic that overflows one naming the statistic."""
    op, soi, soc_ref, ca50_ref = _columns(dataset)
    soc_err = _error(predict_soc, soc_ref, "SOC", op, soi, coeffs, geom)
    ca50_err = _error(predict_ca50, ca50_ref, "CA50", op, soi, coeffs, geom)
    soc_std, soc_max = _spread(soc_err, "the SOC error")
    ca50_std, ca50_max = _spread(ca50_err, "the CA50 error")
    return ValidationStats(
        n_samples=len(dataset),
        soc_err_std=soc_std,
        soc_err_max=soc_max,
        ca50_err_std=ca50_std,
        ca50_err_max=ca50_max,
        soc_within_1cad=float(np.mean(np.abs(soc_err) <= 1.0)),
        ca50_within_1cad=float(np.mean(np.abs(ca50_err) <= 1.0)),
    )


# ---------------------------------------------------------------------------
# Levenberg-Marquardt fit

def _pack(coeffs):
    return np.array([getattr(coeffs, name) for name in CALIBRATED_FIELDS])


def _unpack(coeffs, vec):
    return coeffs.replace(**{name: float(v) for name, v in zip(CALIBRATED_FIELDS, vec)})


def _objective(base_coeffs, op, soi, v_soi, ca50_ref, geom):
    def f(vec):
        try:
            coeffs = _unpack(base_coeffs, vec)
            return _rms(_error(predict_ca50, ca50_ref, "CA50", op, soi, coeffs, geom, v_soi))
        except DomainError:
            return float("inf")
    return f


def _lm_step(jac, resid, lam):
    """Levenberg-Marquardt step: the solution of
    (J^T J + lam * diag(J^T J)) step = -J^T resid.

    Solved as the damped least-squares problem it is the normal equation of,
    with the columns scaled to unit norm. A zero column (a coefficient the
    dataset does not identify) gets a zero step.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", jac, jac))
    active = norms > 0.0
    n = int(np.count_nonzero(active))
    damped = np.vstack([jac[:, active] / norms[active], np.sqrt(lam) * np.eye(n)])
    rhs = np.concatenate([-resid, np.zeros(n)])
    step = np.zeros(jac.shape[1])
    step[active] = np.linalg.lstsq(damped, rhs, rcond=None)[0] / norms[active]
    return step


def calibrate(initial: ModelCoefficients | None, dataset, geom: EngineGeometry,
              options: CalibrationOptions | None = None):
    """Minimise the CA50 RMSE by Levenberg-Marquardt.

    The solve runs in magnitude-normalised coordinates (each coefficient
    scaled by its starting size) with the analytic Jacobian of
    model.ca50_jacobian, which gives each iteration's residual from the same
    evaluation; the injection volumes are computed once per fit. A step is
    accepted only if it lowers the RMSE, so the reported RMSE trace is
    non-increasing; the damping falls tenfold after an accepted step and
    rises tenfold after a rejected one. Stops when the improvement of an
    accepted step drops below tol ("tol"), when no step improves before the
    damping exceeds LM_DAMPING_MAX ("no_improving_step"), or after
    max_iters accepted steps ("max_iters").
    A starting RMSE above DIVERGENCE_RMSE raises CalibrationDiverged; no
    accepted step can exceed it later. The shipped coefficient set is the
    default starting point. Returns (report, coefficients).
    """
    if initial is None:
        initial = default_coefficients()
    options = options or CalibrationOptions()
    op, soi, _, ca50_ref = _columns(dataset)
    v_soi = model.cylinder_volume(soi, geom)   # model's name, which perfbench traces
    f = _objective(initial, op, soi, v_soi, ca50_ref, geom)

    x = _pack(initial)
    fx = f(x)
    if not np.isfinite(fx):
        # not divergence: name the first sample outside the model domain, or
        # the overflowing RMSE
        _rms(_error(predict_ca50, ca50_ref, "CA50", op, soi, initial, geom, v_soi))
    report = CalibReport(iterations=0, final_rmse=fx)
    report.rmse_history.append(fx)
    report.coeff_history.append(dict(zip(CALIBRATED_FIELDS, x.tolist())))
    if not np.isfinite(fx) or fx > DIVERGENCE_RMSE:
        raise CalibrationDiverged(f"initial RMSE {fx:.3g} CAD exceeds "
                                  f"{DIVERGENCE_RMSE:g}", report)

    scale = np.maximum(np.abs(x), 1e-12)
    lam = LM_DAMPING_INITIAL
    report.stop_reason = "max_iters"
    for _ in range(options.max_iters):
        ca50, columns = ca50_jacobian(op, soi, _unpack(initial, x), geom, v_soi)
        resid = ca50 - ca50_ref
        jac = np.column_stack([columns[name] for name in CALIBRATED_FIELDS]) * scale
        while lam <= LM_DAMPING_MAX:
            x_try = x + _lm_step(jac, resid, lam) * scale
            f_try = f(x_try)
            if f_try < fx:
                lam = max(lam / LM_DAMPING_FACTOR, LM_DAMPING_MIN)
                break
            lam *= LM_DAMPING_FACTOR
        else:
            report.stop_reason = "no_improving_step"
            break
        improvement = fx - f_try
        x, fx = x_try, f_try
        report.iterations += 1
        report.rmse_history.append(fx)
        report.coeff_history.append(dict(zip(CALIBRATED_FIELDS, x.tolist())))
        if improvement < options.tol:
            report.stop_reason = "tol"
            break

    coeffs = _unpack(initial, x)
    report.final_rmse = fx
    report.train_stats = validate(coeffs, dataset, geom)
    return report, coeffs


# ---------------------------------------------------------------------------
# CSV round trips, in core's dialect

def write_dataset(path, samples):
    _write_csv(path, DATASET_COLUMNS, (map(repr, map(float, (
        s.op.speed, s.op.t_ivc, s.op.p_ivc, s.op.phi_di, s.op.phi_ng, s.op.egr,
        s.op.x_r, s.soi, s.soc_ref, s.ca50_ref))) for s in samples))


def _read_sample(row, geom: EngineGeometry) -> CalibSample:
    if len(row) != len(DATASET_COLUMNS):
        raise ValueError(f"expected {len(DATASET_COLUMNS)} values, got {len(row)}")
    vals = dict(zip(DATASET_COLUMNS, map(float, row)))
    for name, v in vals.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v}")
    soi, soc_ref, ca50_ref = vals.pop("soi"), vals.pop("soc_ref"), vals.pop("ca50_ref")
    _check_soi(soi, geom)
    return CalibSample(op=OperatingPoint(**vals), soi=soi, soc_ref=soc_ref, ca50_ref=ca50_ref)


def read_dataset(path):
    """Samples of a dataset CSV. A malformed, non-finite or out-of-domain row
    (SOI outside the reference geometry's window included) raises a
    ValueError naming the file and the line on which the first such row
    starts; so does a file that core._read_csv rejects."""
    geom = default_geometry()
    rows, lines = _read_csv(path, DATASET_COLUMNS)
    try:   # every row at once: numpy converts each cell by float()'s rules
        data = np.array(rows, dtype=float)
        if data.shape[1:] != (len(DATASET_COLUMNS),) or not np.isfinite(data).all():
            raise ValueError("malformed dataset")
        _check_soi(data[:, DATASET_COLUMNS.index("soi")], geom)
        return [CalibSample(OperatingPoint(speed, phi_ng, phi_di, egr, x_r, p_ivc, t_ivc),
                            soi, soc_ref, ca50_ref)
                for speed, t_ivc, p_ivc, phi_di, phi_ng, egr, x_r, soi, soc_ref, ca50_ref
                in data.tolist()]
    except ValueError:   # DomainError is a ValueError; the rows name the first bad one
        pass
    samples = []
    for row, line in zip(rows, lines):
        try:
            samples.append(_read_sample(row, geom))
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from None
    return samples


def write_report_csv(path, report: CalibReport):
    _write_csv(path, ("iteration", "rmse") + CALIBRATED_FIELDS,
               ((str(i), repr(r), *(repr(c[name]) for name in CALIBRATED_FIELDS))
                for i, (r, c) in enumerate(zip(report.rmse_history, report.coeff_history))))


def write_report_summary(path, report: CalibReport):
    stats = report.train_stats
    lines = [
        f"iterations          {report.iterations}",
        f"stop reason         {report.stop_reason}",
        f"final CA50 RMSE     {report.final_rmse:.6f} CAD",
        f"SOC error std/max   {stats.soc_err_std:.4f} / {stats.soc_err_max:.4f} CAD",
        f"CA50 error std/max  {stats.ca50_err_std:.4f} / {stats.ca50_err_max:.4f} CAD",
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
