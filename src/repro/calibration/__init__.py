"""The paper's 14-step off-chip calibration procedure (the secret sauce)."""

from repro.calibration.metering import is_oscillating, oscillation_frequency
from repro.calibration.optimizer import (
    STEP14_FIELDS,
    CoordinateDescentResult,
    OptimizerTrace,
    coordinate_descent,
    descent_machine,
)
from repro.calibration.procedure import (
    NOMINAL_BIAS_CODES,
    NOMINAL_DELAY_CODE,
    CalibrationFailed,
    CalibrationLogEntry,
    CalibrationProbe,
    CalibrationResult,
    Calibrator,
    calibration_machine,
    segment_gain_plan,
    vglna_gain_plan,
)
from repro.calibration.fleet import FleetCalibrator

__all__ = [
    "CalibrationFailed",
    "CalibrationLogEntry",
    "CalibrationProbe",
    "CalibrationResult",
    "Calibrator",
    "CoordinateDescentResult",
    "FleetCalibrator",
    "NOMINAL_BIAS_CODES",
    "NOMINAL_DELAY_CODE",
    "OptimizerTrace",
    "STEP14_FIELDS",
    "calibration_machine",
    "coordinate_descent",
    "descent_machine",
    "is_oscillating",
    "oscillation_frequency",
    "segment_gain_plan",
    "vglna_gain_plan",
]
