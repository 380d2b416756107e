"""kaclab: exact simulation and spectral/entropy/chaos analysis of a
thermostatted Kac particle system."""

from .core import (
    Params,
    angular_moment,
    hermite_eigenvalue_s,
    kac_gap_Lambda,
    sphere_moment_Gamma,
)

__all__ = [
    "Params",
    "angular_moment",
    "hermite_eigenvalue_s",
    "kac_gap_Lambda",
    "sphere_moment_Gamma",
]

__version__ = "0.1.0"
