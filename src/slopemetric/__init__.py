"""Slope metrics on graph surfaces.

Builds the travel-time (slope) metric F = alpha^2 / (v*alpha - w*beta) on
graph surfaces and surfaces of revolution, decides where it is strongly
convex by mutually checking routes, and traces time-minimizing geodesics
and propagating fronts.
"""

# each module's __all__ is the one list of the names it exports
from .errors import *
from .surfaces import *
from .metric import *
from .convexity import *
from .geodesics import *

__version__ = "0.1.0"
