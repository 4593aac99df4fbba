"""Exact Riemann star states and certified wave-speed bounds for the
Euler, shallow-water and arterial blood-flow equations."""

from .core import (
    ClosedFormOverflow,
    CollapseData,
    DegeneratePoints,
    DryBed,
    EstimatorId,
    InvalidBracket,
    NoConvergence,
    RiemannBoundsError,
    RootBracket,
    SpeedBounds,
    UnsupportedEstimator,
    VacuumData,
    WavePattern,
    ZeroMaxSpeed,
    courant_dt,
    find_root,
    interpolate_root,
)

__all__ = [
    "ClosedFormOverflow",
    "CollapseData",
    "DegeneratePoints",
    "DryBed",
    "EstimatorId",
    "InvalidBracket",
    "NoConvergence",
    "RiemannBoundsError",
    "RootBracket",
    "SpeedBounds",
    "UnsupportedEstimator",
    "VacuumData",
    "WavePattern",
    "ZeroMaxSpeed",
    "courant_dt",
    "find_root",
    "interpolate_root",
]

__version__ = "0.1.0"
