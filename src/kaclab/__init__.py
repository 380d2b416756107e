"""kaclab: exact simulation and spectral/entropy/chaos analysis of a
thermostatted Kac particle system."""

from .core import Params

__all__ = ["Params"]

__version__ = "0.1.0"
