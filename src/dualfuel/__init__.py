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
from .model import burn_duration, ca50_from_soc_bd, predict_ca50, predict_soc
from .plant import (
    EnginePlant,
    PlantConfig,
    knock_integral_soc,
    knock_integral_value,
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
    SampleRanges,
    calibrate,
    generate_dataset,
    rmse,
    split_dataset,
    validate,
    write_dataset,
)
from .scenarios import Scenario, load_scenario
from .harness import run_noise_study, run_scenario

__version__ = "0.1.0"
