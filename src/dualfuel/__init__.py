"""Combustion-phasing modelling, calibration and control for dual-fuel
compression-ignition engines."""

__version__ = "0.1.0"
