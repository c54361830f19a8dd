"""Numerical laboratory for N=2 supersymmetric quantum mechanics.

Partner Hamiltonians factorized from a superpotential on a finite-difference
grid, their shared spectra and intertwined eigenstates, spin-times-mode
entanglement of supercharge eigenstates, and the hidden SUSY structure of the
resonant Jaynes-Cummings model.
"""

from . import entanglement, errors, grid, jaynescummings, operators, spectral, superpotentials
from .entanglement import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .grid import *  # noqa: F401,F403
from .jaynescummings import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .superpotentials import *  # noqa: F401,F403

__version__ = "0.1.0"

# each public name is listed once, in its own module's __all__
__all__ = [
    name
    for module in (superpotentials, grid, operators, spectral, entanglement,
                   jaynescummings, errors)
    for name in module.__all__
]
