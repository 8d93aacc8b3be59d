"""Exact harmonic-measure computations for random walks on the modular
group Z2 * Z3, with a mediant encoding of the boundary, the
Minkowski-Denjoy measure family, and a seeded Monte Carlo oracle.

Each module's ``__all__`` is the one list of its public names."""

from .boundary import *
from .denjoy import *
from .group import *
from .mediant import *
from .montecarlo import *
from .solver import *

__version__ = "0.1.0"
