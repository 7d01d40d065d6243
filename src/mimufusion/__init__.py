"""Multi-IMU extrinsic calibration, virtual-IMU fusion, and on-manifold
preintegration."""

from .calibration import (
    CalibrationInput,
    CalibrationResult,
    calibrate,
    estimate_angular_accel,
)
from .errors import (
    DegenerateMotion,
    EmptyOverlap,
    FormatError,
    LengthMismatch,
    MimuError,
    RateMismatch,
    SingularFusion,
    SingularNormalEquations,
)
from .harness import ExperimentPlan, RmseReport, ingest_csv, run_experiment
from .preintegration import (
    PreintDelta,
    VimuState,
    predict_state,
    preintegrate_windows,
)
from .simulation import (
    SimConfig,
    TrajectoryParams,
    grid_mounts,
    perturb_extrinsics,
)
from .types import Extrinsic, ImuSeries, NoiseSpec
from .vimu import (
    VimuConfig,
    VimuNoise,
    centroid_frame,
    fuse_series,
    virtual_covariances,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationInput",
    "CalibrationResult",
    "DegenerateMotion",
    "EmptyOverlap",
    "ExperimentPlan",
    "Extrinsic",
    "FormatError",
    "ImuSeries",
    "LengthMismatch",
    "MimuError",
    "NoiseSpec",
    "PreintDelta",
    "RateMismatch",
    "RmseReport",
    "SimConfig",
    "SingularFusion",
    "SingularNormalEquations",
    "TrajectoryParams",
    "VimuConfig",
    "VimuNoise",
    "VimuState",
    "calibrate",
    "centroid_frame",
    "estimate_angular_accel",
    "fuse_series",
    "grid_mounts",
    "ingest_csv",
    "perturb_extrinsics",
    "predict_state",
    "preintegrate_windows",
    "run_experiment",
    "virtual_covariances",
]
