"""Combustion-phasing modelling, calibration and control for dual-fuel
compression-ignition engines."""

from .core import (
    DomainError,
    EngineGeometry,
    ModelCoefficients,
    OperatingPoint,
    cylinder_volume,
    default_coefficients,
    default_geometry,
    load_coefficients,
    polytropic_state_at_soi,
    save_coefficients,
)
from .model import (
    burn_duration,
    ca50_from_soc_bd,
    half_burn_angle,
    ignition_delay,
    predict_ca50,
    predict_soc,
)
from .plant import (
    CycleRecord,
    EnginePlant,
    Misfire,
    PlantConfig,
    knock_integral_soc,
    knock_integral_value,
    quantize_soi,
    simplification_gap,
    wiebe_fraction,
)
from .control import (
    MEAN_RESIDUAL_FRACTION,
    AdaptiveStates,
    ControllerState,
    adaptive_soi,
    adaptive_update,
    compute_states,
    feedforward_soi,
    learning_rate,
    smooth_measurement,
)
from .calib import (
    CalibReport,
    CalibSample,
    CalibrationOptions,
    SampleRanges,
    ValidationStats,
    calibrate,
    generate_dataset,
    read_dataset,
    rmse,
    split_dataset,
    validate,
    write_dataset,
)
from .scenarios import Breakpoint, Scenario, builtin_case, load_scenario, save_scenario
from .harness import (
    NoiseStudyResult,
    ScenarioSummary,
    run_noise_study,
    run_scenario,
    run_sensitivity,
)

__version__ = "0.1.0"
