"""Desk-scale laboratory for clique-free graphs near the colorability
threshold: exact census, MCMC sampling, closed-form thresholds, and
numerically verified probability bounds."""

__version__ = "0.1.0"

# the package re-exports each module's __all__, which is its public surface
from .errors import *
from .graph_core import *
from .turan import *
from .census import *
from .bounds import *
from .sampler import *
from .thresholds import *

__all__ = [name for name in dir() if not name.startswith("_")]
